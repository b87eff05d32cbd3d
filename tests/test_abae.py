"""Tests for the ABae batch comparator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.abae import _draw_unused, abae_plan, abae_trial
from repro.core.inquest import segment_slices
from repro.core.stratify import assign_strata, quantile_boundaries


def toy_stream(n=10_000, seed=0, p=0.6):
    g = np.random.default_rng(seed)
    pred = g.random(n) < p
    f = np.where(pred, (1.0 + g.poisson(2.0, n)) / 10.0, 0.0)
    proxy = 0.7 * f / f.max() + 0.3 * g.random(n)
    proxy = (proxy - proxy.min()) / (proxy.max() - proxy.min())
    return f, pred, proxy


class TestAbaeTrial:
    def test_budget_spent_exactly(self):
        f, pred, proxy = toy_stream(8000)
        out = abae_trial(f, pred, proxy, seg_len=2000, total_budget=400, seed=0)
        assert out["oracle_calls"] == 400

    def test_seg_count(self):
        f, pred, proxy = toy_stream(8000)
        out = abae_trial(f, pred, proxy, seg_len=2000, total_budget=400, seed=0)
        assert len(out["seg_estimates"]) == 4

    def test_pilot_fraction_bounds_stage1(self):
        # With pilot_frac=0.15 and budget 400, stage 1 spends 60 samples;
        # total is still exactly the budget (sample reuse, no surplus).
        f, pred, proxy = toy_stream(8000)
        out = abae_trial(
            f, pred, proxy, seg_len=2000, total_budget=400, seed=0, pilot_frac=0.15
        )
        assert out["oracle_calls"] == 400

    def test_deterministic_in_seed(self):
        f, pred, proxy = toy_stream(4000)
        a = abae_trial(f, pred, proxy, seg_len=1000, total_budget=200, seed=3)
        b = abae_trial(f, pred, proxy, seg_len=1000, total_budget=200, seed=3)
        assert np.array_equal(a["seg_estimates"], b["seg_estimates"])
        assert a["full_estimate"] == b["full_estimate"]

    def test_unbiased_no_predicate(self):
        g = np.random.default_rng(1)
        n = 9000
        proxy = g.random(n)
        f = proxy * 2 + g.normal(0, 0.1, n)
        ones = np.ones(n, dtype=bool)
        truth = f.mean()
        ests = [
            abae_trial(f, ones, proxy, seg_len=n, total_budget=200, seed=s)["full_estimate"]
            for s in range(300)
        ]
        assert abs(np.mean(ests) - truth) < 0.02

    def test_close_to_truth_with_predicate(self):
        f, pred, proxy = toy_stream(20_000, seed=2)
        truth = f[pred].mean()
        ests = [
            abae_trial(f, pred, proxy, seg_len=4000, total_budget=1000, seed=s)["full_estimate"]
            for s in range(100)
        ]
        assert abs(np.mean(ests) - truth) < 0.02

    def test_budget_smaller_than_k_pilot(self):
        f, pred, proxy = toy_stream(1000)
        out = abae_trial(f, pred, proxy, seg_len=500, total_budget=6, seed=0)
        assert out["oracle_calls"] >= 3  # at least the k-sample pilot

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_k_strata(self, k):
        f, pred, proxy = toy_stream(5000)
        out = abae_trial(f, pred, proxy, seg_len=1000, total_budget=300, seed=0, k=k)
        assert np.isfinite(out["full_estimate"])

    def test_no_duplicate_oracle_calls(self):
        # Sample reuse must not double-invoke the oracle on one record:
        # oracle_calls counts distinct records so it can't exceed n.
        f, pred, proxy = toy_stream(500)
        out = abae_trial(f, pred, proxy, seg_len=100, total_budget=600, seed=0)
        assert out["oracle_calls"] <= 500

    def test_beats_uniform_with_informative_proxy(self):
        from repro.core.baselines import uniform_trial

        g = np.random.default_rng(4)
        n = 15_000
        proxy = g.random(n)
        f = np.floor(proxy * 3) + g.normal(0, 0.05, n)
        ones = np.ones(n, dtype=bool)
        truth = f.mean()
        err_u, err_a = [], []
        for s in range(200):
            err_u.append(
                uniform_trial(f, ones, proxy, seg_len=n, total_budget=120, seed=s)["full_estimate"] - truth
            )
            err_a.append(
                abae_trial(f, ones, proxy, seg_len=n, total_budget=120, seed=s)["full_estimate"] - truth
            )
        assert np.mean(np.square(err_a)) < np.mean(np.square(err_u))


class TestAbaePlan:
    @pytest.mark.parametrize(
        "n,seg_len,k", [(8000, 2000, 3), (5300, 1200, 5), (7, 10, 3)]
    )
    def test_matches_per_trial_strata(self, n, seg_len, k):
        # The reference: what every trial used to recompute.
        _, _, proxy = toy_stream(n)
        plan = abae_plan(proxy, seg_len=seg_len, k=k)
        strata = assign_strata(proxy, quantile_boundaries(proxy, k))
        for k_, m in enumerate(plan.strata.members):
            assert np.array_equal(m, np.flatnonzero(strata == k_))
        expected = [
            [np.count_nonzero(strata[sl] == k_) for k_ in range(k)]
            for sl in segment_slices(n, seg_len)
        ]
        assert np.array_equal(plan.seg_sizes, expected)

    @given(
        st.integers(1, 200),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_draw_unused_equals_choice_over_set_difference(self, m, data, seed):
        members = np.sort(
            np.random.default_rng(seed).choice(10 * m, size=m, replace=False)
        )
        used = data.draw(st.lists(st.sampled_from(list(members)), unique=True))
        used = np.array(used, dtype=members.dtype)
        size = data.draw(st.integers(0, m - len(used)))
        got = _draw_unused(np.random.default_rng(seed), members, used, size)
        unused = np.setdiff1d(members, used, assume_unique=True)
        ref_rng = np.random.default_rng(seed)
        ref = ref_rng.choice(unused, size=size, replace=False) if size else unused[:0]
        assert np.array_equal(got, ref)
