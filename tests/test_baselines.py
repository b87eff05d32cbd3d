"""Tests for the Section 5.1 streaming baselines.

The fixed-strata baseline is a configuration of InQuest's state machine,
so it is tested through its registry entry.
"""
import numpy as np
import pytest

from repro.core.baselines import uniform_trial
from repro.core.inquest import segment_slices
from repro.sparkops.trials import ALGORITHMS

fixed_stratified = ALGORITHMS["stratified"]


def toy_stream(n=10_000, seed=0, p=0.6):
    g = np.random.default_rng(seed)
    pred = g.random(n) < p
    f = np.where(pred, (1.0 + g.poisson(2.0, n)) / 10.0, 0.0)
    proxy = 0.7 * f / f.max() + 0.3 * g.random(n)
    proxy = (proxy - proxy.min()) / (proxy.max() - proxy.min())
    return f, pred, proxy


class TestUniformTrial:
    def test_exact_budget(self):
        f, pred, proxy = toy_stream(5000)
        out = uniform_trial(f, pred, proxy, seg_len=1000, total_budget=333, seed=0)
        assert out["oracle_calls"] == 333

    def test_seg_count(self):
        f, pred, proxy = toy_stream(5000)
        out = uniform_trial(f, pred, proxy, seg_len=1000, total_budget=100, seed=0)
        assert len(out["seg_estimates"]) == 5

    def test_full_estimate_is_matching_sample_mean(self):
        f, pred, proxy = toy_stream(5000, seed=1)
        out = uniform_trial(f, pred, proxy, seg_len=1000, total_budget=5000, seed=0)
        # Budget == stream length: the "sample" is the full stream.
        assert np.isclose(out["full_estimate"], f[pred].mean())
        assert np.allclose(
            out["seg_estimates"],
            [f[sl][pred[sl]].mean() for sl in segment_slices(5000, 1000)],
        )

    def test_unbiased(self):
        f, pred, proxy = toy_stream(8000, seed=2)
        truth = f[pred].mean()
        ests = [
            uniform_trial(f, pred, proxy, seg_len=8000, total_budget=200, seed=s)[
                "full_estimate"
            ]
            for s in range(400)
        ]
        assert abs(np.mean(ests) - truth) < 0.01

    def test_deterministic_in_seed(self):
        f, pred, proxy = toy_stream(3000)
        a = uniform_trial(f, pred, proxy, seg_len=1000, total_budget=90, seed=5)
        b = uniform_trial(f, pred, proxy, seg_len=1000, total_budget=90, seed=5)
        assert np.array_equal(a["seg_estimates"], b["seg_estimates"])

    def test_proxy_free(self):
        # Uniform sampling must ignore the proxy entirely.
        f, pred, proxy = toy_stream(3000)
        a = uniform_trial(f, pred, proxy, seg_len=1000, total_budget=90, seed=5)
        b = uniform_trial(f, pred, np.zeros_like(proxy), seg_len=1000, total_budget=90, seed=5)
        assert np.array_equal(a["seg_estimates"], b["seg_estimates"])


class TestFixedStratifiedTrial:
    def test_seg_count_and_budget_cap(self):
        f, pred, proxy = toy_stream(5000)
        out = fixed_stratified(f, pred, proxy, seg_len=1000, total_budget=300, seed=0)
        assert len(out["seg_estimates"]) == 5
        assert out["oracle_calls"] <= 300

    def test_even_allocation_when_strata_populated(self):
        # Uniform proxy: every fixed stratum holds ~1/3 of each segment,
        # so the fixed N/K allocation is always satisfiable.
        g = np.random.default_rng(0)
        n = 6000
        f = g.random(n)
        pred = np.ones(n, dtype=bool)
        proxy = g.random(n)
        out = fixed_stratified(f, pred, proxy, seg_len=2000, total_budget=300, seed=0)
        assert out["oracle_calls"] == 300

    def test_unbiased_no_predicate(self):
        g = np.random.default_rng(1)
        n = 9000
        proxy = g.random(n)
        f = proxy + g.normal(0, 0.1, n)
        pred = np.ones(n, dtype=bool)
        truth = f.mean()
        ests = [
            fixed_stratified(f, pred, proxy, seg_len=9000, total_budget=150, seed=s)[
                "full_estimate"
            ]
            for s in range(400)
        ]
        assert abs(np.mean(ests) - truth) < 0.01

    def test_beats_uniform_with_informative_proxy(self):
        # With a strongly stratifying proxy and even occupancy, fixed
        # stratified sampling must reduce variance vs uniform sampling.
        g = np.random.default_rng(2)
        n = 15_000
        proxy = g.random(n)
        f = np.floor(proxy * 3) + g.normal(0, 0.05, n)  # step function of proxy
        pred = np.ones(n, dtype=bool)
        truth = f.mean()
        err_u, err_s = [], []
        for s in range(200):
            err_u.append(
                uniform_trial(f, pred, proxy, seg_len=n, total_budget=90, seed=s)["full_estimate"] - truth
            )
            err_s.append(
                fixed_stratified(f, pred, proxy, seg_len=n, total_budget=90, seed=s)["full_estimate"] - truth
            )
        assert np.mean(np.square(err_s)) < np.mean(np.square(err_u))

    def test_deterministic_in_seed(self):
        f, pred, proxy = toy_stream(3000)
        a = fixed_stratified(f, pred, proxy, seg_len=1000, total_budget=90, seed=7)
        b = fixed_stratified(f, pred, proxy, seg_len=1000, total_budget=90, seed=7)
        assert np.array_equal(a["seg_estimates"], b["seg_estimates"])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_k_strata(self, k):
        f, pred, proxy = toy_stream(3000)
        out = fixed_stratified.kernel(
            f, pred, proxy, seg_len=1000, total_budget=90, seed=0, k=k
        )
        assert len(out["seg_estimates"]) == 3
