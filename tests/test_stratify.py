"""Unit tests for repro.core.stratify."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stratify import (
    Ewma,
    assign_strata,
    fixed_boundaries,
    quantile_boundaries,
    stratify,
)


class TestQuantileBoundaries:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_length(self, k):
        b = quantile_boundaries(np.random.default_rng(0).random(1000), k)
        assert len(b) == k - 1

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_monotone(self, k):
        b = quantile_boundaries(np.random.default_rng(1).random(1000), k)
        assert np.all(np.diff(b) >= 0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_equal_occupancy(self, k):
        proxy = np.random.default_rng(2).random(30_000)
        strata = assign_strata(proxy, quantile_boundaries(proxy, k))
        frac = np.bincount(strata, minlength=k) / len(proxy)
        assert np.all(np.abs(frac - 1 / k) < 0.02)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            quantile_boundaries(np.arange(10.0), 0)

    def test_known_quantiles(self):
        b = quantile_boundaries(np.arange(1.0, 101.0), 4)
        assert np.allclose(b, [25.75, 50.5, 75.25])


class TestAssignStrata:
    def test_range(self):
        strata = assign_strata(np.random.default_rng(3).random(100), np.array([0.3, 0.6]))
        assert strata.min() >= 0 and strata.max() <= 2

    def test_boundary_ownership(self):
        # side='left': a value exactly on a boundary belongs below it.
        strata = assign_strata(np.array([0.3, 0.30001, 0.6, 0.9]), np.array([0.3, 0.6]))
        assert list(strata) == [0, 1, 1, 2]

    def test_degenerate_single_stratum(self):
        strata = assign_strata(np.random.default_rng(4).random(10), np.array([]))
        assert np.all(strata == 0)

    def test_fixed_boundaries_value(self):
        assert np.array_equal(fixed_boundaries(3), [1 / 3, 2 / 3])


class TestStratify:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_members_are_the_assigned_positions(self, k):
        proxy = np.round(np.random.default_rng(5).random(500), 1)  # ties
        b = quantile_boundaries(proxy, k)
        s = stratify(proxy, b)
        strata = assign_strata(proxy, b)
        assert len(s.members) == k
        for k_, m in enumerate(s.members):
            assert np.array_equal(m, np.flatnonzero(strata == k_))
        assert np.array_equal(s.sizes, np.bincount(strata, minlength=k))

    def test_boundaries_are_a_copy(self):
        boundaries = fixed_boundaries(3)
        s = stratify(np.random.default_rng(6).random(10), boundaries)
        s.boundaries[0] = 0.0
        assert np.array_equal(boundaries, [1 / 3, 2 / 3])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_fixed_boundaries(self, k):
        assert np.allclose(fixed_boundaries(k), np.arange(1, k) / k)


class TestEwma:
    def test_alpha_zero_is_plain_mean(self):
        # The theory sections' alpha=0 case: unweighted history.
        e = Ewma(0.0)
        for v in [1.0, 2.0, 6.0]:
            e.update(v)
        assert np.isclose(e.value, 3.0)

    def test_alpha_one_is_latest(self):
        e = Ewma(1.0)
        for v in [1.0, 2.0, 6.0]:
            e.update(v)
        assert np.isclose(e.value, 6.0)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_explicit_weights(self, alpha):
        # value = sum lam^(m-j) s_j / sum lam^(m-j), lam = 1 - alpha.
        obs = [3.0, 1.0, 4.0, 1.5]
        e = Ewma(alpha)
        for v in obs:
            e.update(v)
        lam = 1 - alpha
        w = np.array([lam ** (len(obs) - 1 - j) for j in range(len(obs))])
        assert np.isclose(e.value, (w @ np.array(obs)) / w.sum())

    def test_vector_observations(self):
        e = Ewma(0.5)
        e.update(np.array([1.0, 2.0]))
        e.update(np.array([3.0, 4.0]))
        assert np.allclose(e.value, (np.array([3.0, 4.0]) + 0.5 * np.array([1.0, 2.0])) / 1.5)

    def test_single_observation_identity(self):
        e = Ewma(0.8)
        e.update(np.array([0.1, 0.9]))
        assert np.allclose(e.value, [0.1, 0.9])

    def test_no_observation_raises(self):
        with pytest.raises(ValueError):
            _ = Ewma(0.5).value

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ValueError):
            Ewma(alpha)

    @given(st.floats(0.0, 1.0), st.lists(st.floats(-10, 10), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_value_within_observation_range(self, alpha, obs):
        e = Ewma(alpha)
        for v in obs:
            e.update(v)
        assert min(obs) - 1e-9 <= float(e.value) <= max(obs) + 1e-9
