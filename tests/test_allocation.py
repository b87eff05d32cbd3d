"""Unit tests for repro.core.allocation (Propositions 1 and 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.allocation import (
    estimated_allocation,
    mix_defensive,
    optimal_allocation,
    optimal_expected_mse,
)
from repro.core.estimator import cell_stats


def _random_instance(seed, k=3):
    g = np.random.default_rng(seed)
    return (
        g.integers(100, 1000, k).astype(float),  # |D_tk|
        g.uniform(0.05, 1.0, k),  # p_tk
        g.uniform(0.1, 2.0, k),  # sigma_tk
    )


def _mse(d, p, sigma, a, n1, n2, k):
    # Eq. 5: sum_k w_k^2 sigma_k^2 / (p_k (N1/K + N2 a_k)).
    w = d * p / (d * p).sum()
    draws = p * (n1 / k + n2 * a)
    return float((w**2 * sigma**2 / draws).sum())


class TestOptimalAllocation:
    @pytest.mark.parametrize("seed", range(8))
    def test_sums_to_one(self, seed):
        d, p, sigma = _random_instance(seed)
        a = optimal_allocation(d, p, sigma, n1=10, n2=90, k=3)
        assert np.isclose(a.sum(), 1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_minimises_mse(self, seed):
        # a* must beat random perturbed allocations (Proposition 1).
        d, p, sigma = _random_instance(seed)
        n1, n2, k = 10, 90, 3
        a_star = optimal_allocation(d, p, sigma, n1=n1, n2=n2, k=k)
        base = _mse(d, p, sigma, a_star, n1, n2, k)
        g = np.random.default_rng(seed + 100)
        for _ in range(50):
            delta = g.normal(0, 0.05, k)
            delta -= delta.mean()  # stay on the simplex
            a_pert = a_star + delta
            if np.any(n1 / k + n2 * a_pert <= 0):
                continue
            assert _mse(d, p, sigma, a_pert, n1, n2, k) >= base - 1e-12

    def test_weighted_towards_large_sigma(self):
        a = optimal_allocation(
            np.array([100.0, 100.0]), np.array([0.5, 0.5]), np.array([0.1, 1.0]),
            n1=10, n2=90, k=2,
        )
        assert a[1] > a[0]

    def test_weighted_towards_large_p(self):
        a = optimal_allocation(
            np.array([100.0, 100.0]), np.array([0.1, 0.9]), np.array([1.0, 1.0]),
            n1=10, n2=90, k=2,
        )
        assert a[1] > a[0]

    def test_all_zero_weight_raises(self):
        with pytest.raises(ValueError):
            optimal_allocation(
                np.array([10.0, 10.0]), np.array([0.5, 0.5]), np.zeros(2),
                n1=1, n2=9, k=2,
            )


class TestOptimalExpectedMse:
    @pytest.mark.parametrize("seed", range(8))
    def test_closed_form_matches_eq5(self, seed):
        # Eq. 6 (closed form) must equal Eq. 5 evaluated at a*.
        d, p, sigma = _random_instance(seed)
        n1, n2, k = 10, 90, 3
        a_star = optimal_allocation(d, p, sigma, n1=n1, n2=n2, k=k)
        assert np.isclose(
            optimal_expected_mse(d, p, sigma, n1=n1, n2=n2),
            _mse(d, p, sigma, a_star, n1, n2, k),
            rtol=1e-9,
        )

    def test_decreases_with_budget(self):
        d, p, sigma = _random_instance(0)
        small = optimal_expected_mse(d, p, sigma, n1=10, n2=90)
        large = optimal_expected_mse(d, p, sigma, n1=100, n2=900)
        assert np.isclose(small / large, 10.0)  # O(1/N) exactly, Eq. 6

    def test_no_positive_rate_raises(self):
        with pytest.raises(ValueError):
            optimal_expected_mse(
                np.array([10.0]), np.array([0.0]), np.array([1.0]), n1=1, n2=9
            )


class TestStratumStats:
    """GetAlloc's per-stratum statistics, from ``cell_stats``."""

    def _reference(self, f, pred, strata, k):
        pdf = pd.DataFrame({"f": f, "pred": pred, "s": strata})
        out = {}
        for k_ in range(k):
            sub = pdf[pdf.s == k_]
            pos = sub[sub.pred]
            out[k_] = {
                "n": len(sub),
                "n_pos": len(pos),
                "p_hat": len(pos) / len(sub) if len(sub) else 0.0,
                "mu_hat": pos.f.mean() if len(pos) else 0.0,
                "sigma_hat": pos.f.std(ddof=1) if len(pos) > 1 else 0.0,
            }
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pandas_reference(self, seed):
        g = np.random.default_rng(seed)
        n, k = 200, 3
        f = g.normal(1, 0.5, n)
        pred = g.random(n) < 0.6
        strata = g.integers(0, k, n)
        stats = cell_stats(f, pred, strata, np.full(k, n))
        ref = self._reference(f, pred, strata, k)
        for k_ in range(k):
            assert stats.n[k_] == ref[k_]["n"]
            assert stats.n_pos[k_] == ref[k_]["n_pos"]
            assert np.isclose(stats.p_hat[k_], ref[k_]["p_hat"])
            assert np.isclose(stats.mu_hat[k_], ref[k_]["mu_hat"])
            assert np.isclose(stats.sigma_hat[k_], ref[k_]["sigma_hat"], atol=1e-9)

    def test_empty_stratum_guards(self):
        # The paper's explicit "else 0" guard clauses.
        stats = cell_stats(
            np.array([1.0, 2.0]), np.array([True, True]), np.array([0, 0]), [10, 10, 10]
        )
        assert stats.p_hat[1] == 0.0
        assert stats.mu_hat[2] == 0.0
        assert stats.sigma_hat[1] == 0.0

    def test_single_positive_sample_sigma_zero(self):
        stats = cell_stats(
            np.array([5.0, 1.0]), np.array([True, False]), np.array([0, 0]), [10]
        )
        assert stats.sigma_hat[0] == 0.0 and stats.mu_hat[0] == 5.0


class TestEstimatedAllocation:
    def test_normalised(self):
        a = estimated_allocation(
            np.array([100.0, 200.0]), np.array([0.5, 0.5]), np.array([1.0, 2.0])
        )
        assert np.isclose(a.sum(), 1.0) and a[1] > a[0]

    def test_none_when_uninformative(self):
        assert estimated_allocation(np.array([10.0]), np.array([0.5]), np.array([0.0])) is None
        assert estimated_allocation(np.array([10.0]), np.array([0.0]), np.array([1.0])) is None
        assert estimated_allocation(np.array([0.0]), np.array([0.5]), np.array([1.0])) is None

    def test_matches_getalloc_formula(self):
        d = np.array([100.0, 300.0])
        p_hat = np.array([0.25, 1.0])
        sigma = np.array([2.0, 1.0])
        w = np.sqrt(p_hat) * d / d.sum()
        expected = w * sigma / (w * sigma).sum()
        assert np.allclose(estimated_allocation(d, p_hat, sigma), expected)


class TestMixDefensive:
    def test_sums_to_one(self):
        out = mix_defensive(np.array([0.0, 0.2, 0.8]), n1=10, n2=90, k=3)
        assert np.isclose(out.sum(), 1.0)

    def test_floor_guaranteed(self):
        out = mix_defensive(np.array([0.0, 0.0, 1.0]), n1=10, n2=90, k=3)
        assert np.all(out >= 10 / 3 / 100 - 1e-12)

    def test_pure_defensive(self):
        out = mix_defensive(np.array([1.0, 0.0]), n1=100, n2=0, k=2)
        assert np.allclose(out, [0.5, 0.5])
