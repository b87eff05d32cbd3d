"""Unit tests for repro.core.sampling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import (
    cap_and_redistribute,
    draw_stratified,
    largest_remainder_round,
    reservoir_sample,
    uniform_without_replacement,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestUniformWithoutReplacement:
    @pytest.mark.parametrize("n,size", [(10, 3), (10, 10), (100, 1), (5, 0)])
    def test_size(self, n, size):
        out = uniform_without_replacement(rng(), np.arange(n), size)
        assert len(out) == size

    @pytest.mark.parametrize("n,size", [(5, 10), (1, 2), (3, 100)])
    def test_clamps_to_population(self, n, size):
        out = uniform_without_replacement(rng(), np.arange(n), size)
        assert len(out) == n

    @pytest.mark.parametrize("seed", range(5))
    def test_no_duplicates(self, seed):
        out = uniform_without_replacement(rng(seed), np.arange(50), 30)
        assert len(np.unique(out)) == 30

    @pytest.mark.parametrize("seed", range(5))
    def test_members_of_population(self, seed):
        pop = np.array([3, 7, 11, 19, 23])
        out = uniform_without_replacement(rng(seed), pop, 3)
        assert set(out) <= set(pop)

    def test_negative_size_empty(self):
        assert len(uniform_without_replacement(rng(), np.arange(5), -1)) == 0

    def test_empty_population(self):
        assert len(uniform_without_replacement(rng(), np.arange(0), 3)) == 0

    def test_deterministic_in_seed(self):
        a = uniform_without_replacement(rng(4), np.arange(100), 10)
        b = uniform_without_replacement(rng(4), np.arange(100), 10)
        assert np.array_equal(a, b)

    def test_uniform_marginals(self):
        # Each element appears with probability size/n.
        counts = np.zeros(20)
        for s in range(2000):
            counts[uniform_without_replacement(rng(s), np.arange(20), 5)] += 1
        freq = counts / 2000
        assert np.all(np.abs(freq - 0.25) < 0.05)


class TestDrawStratified:
    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=5),
        st.lists(st.integers(-2, 60), min_size=5, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_choice_over_each_stratum(self, sizes, budgets, seed):
        # The reference: choice over each stratum's members in turn, with
        # the same generator (the loops draw_stratified replaced).
        members = np.array_split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1])
        budgets = budgets[: len(sizes)]
        idx, strata = draw_stratified(rng(seed), members, budgets)
        ref_rng, ref = rng(seed), []
        for m, b in zip(members, budgets):
            if min(b, len(m)) > 0:
                ref.append(ref_rng.choice(m, size=min(b, len(m)), replace=False))
            else:
                ref.append(m[:0])
        assert np.array_equal(idx, np.concatenate(ref))
        sizes = [len(r) for r in ref]
        assert np.array_equal(strata, np.repeat(np.arange(len(ref)), sizes))


class TestReservoirSample:
    @pytest.mark.parametrize("n,cap", [(10, 3), (3, 3), (2, 5), (100, 1)])
    def test_size(self, n, cap):
        out = reservoir_sample(rng(), np.arange(n), cap)
        assert len(out) == min(n, cap)

    @pytest.mark.parametrize("cap", [0, -2])
    def test_nonpositive_capacity(self, cap):
        assert len(reservoir_sample(rng(), np.arange(10), cap)) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_no_duplicates(self, seed):
        out = reservoir_sample(rng(seed), np.arange(100), 20)
        assert len(np.unique(out)) == 20

    def test_matches_uniform_distribution(self):
        # The one-pass reservoir and the direct without-replacement draw
        # must produce the same marginal inclusion probabilities — the
        # equivalence the offline kernels rely on (DESIGN.md §2).
        n, cap, trials = 30, 6, 4000
        counts_r = np.zeros(n)
        counts_u = np.zeros(n)
        for s in range(trials):
            counts_r[reservoir_sample(rng(s), np.arange(n), cap)] += 1
            counts_u[uniform_without_replacement(rng(s + trials), np.arange(n), cap)] += 1
        p = cap / n
        assert np.all(np.abs(counts_r / trials - p) < 0.04)
        assert np.all(np.abs(counts_r / trials - counts_u / trials) < 0.05)


class TestLargestRemainderRound:
    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8),
        st.integers(0, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_to_total(self, fracs, total):
        fracs = np.asarray(fracs)
        out = largest_remainder_round(fracs, total)
        if fracs.sum() > 0 and total > 0:
            assert out.sum() == total
        assert np.all(out >= 0)

    def test_proportional(self):
        out = largest_remainder_round(np.array([0.5, 0.3, 0.2]), 10)
        assert np.array_equal(out, [5, 3, 2])

    def test_remainder_goes_to_largest_fraction(self):
        out = largest_remainder_round(np.array([0.5, 0.5]), 3)
        assert out.sum() == 3 and set(out) == {1, 2}

    def test_zero_weights(self):
        assert np.array_equal(largest_remainder_round(np.zeros(3), 10), [0, 0, 0])

    def test_never_off_by_rounding(self):
        out = largest_remainder_round(np.array([1 / 3, 1 / 3, 1 / 3]), 100)
        assert out.sum() == 100 and np.all(np.abs(out - 33.33) < 1)


class TestCapAndRedistribute:
    def test_no_cap_needed(self):
        out = cap_and_redistribute(np.array([3, 4, 5]), np.array([10, 10, 10]))
        assert np.array_equal(out, [3, 4, 5])

    def test_simple_cap(self):
        out = cap_and_redistribute(np.array([10, 1, 1]), np.array([4, 10, 10]))
        assert out[0] == 4 and out.sum() == 12

    def test_total_preserved_when_feasible(self):
        budgets = np.array([20, 0, 0])
        caps = np.array([5, 10, 10])
        out = cap_and_redistribute(budgets, caps)
        assert out.sum() == 20 and np.all(out <= caps)

    def test_infeasible_truncates_to_capacity(self):
        out = cap_and_redistribute(np.array([10, 10]), np.array([3, 2]))
        assert np.array_equal(out, [3, 2])

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=6),
        st.lists(st.integers(0, 50), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, budgets, caps):
        k = min(len(budgets), len(caps))
        budgets, caps = np.array(budgets[:k]), np.array(caps[:k])
        out = cap_and_redistribute(budgets, caps)
        assert np.all(out <= caps)
        assert np.all(out >= 0)
        assert out.sum() == min(budgets.sum(), caps.sum())
