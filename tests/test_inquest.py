"""Tests for the InQuest state machine and trial kernel (Algorithms 1-2)."""
import numpy as np
import pytest

from repro.core.allocation import optimal_allocation
from repro.core.estimator import CellStats, confidence_interval, get_prediction
from repro.core.inquest import (
    InQuestConfig,
    InQuestState,
    inquest_plan,
    inquest_trial,
    segment_slices,
)
from repro.datasets.streams import generate


def toy_stream(n=10_000, seed=0, p=0.6):
    """Stationary stream with a proxy moderately correlated to f."""
    g = np.random.default_rng(seed)
    pred = g.random(n) < p
    mag = 1.0 + g.poisson(2.0, n)
    f = np.where(pred, mag / 10.0, 0.0)
    proxy = 0.7 * f / f.max() + 0.3 * g.random(n)
    proxy = (proxy - proxy.min()) / (proxy.max() - proxy.min())
    return f, pred, proxy


class TestSegmentSlices:
    def test_even_split(self):
        assert segment_slices(10, 5) == [slice(0, 5), slice(5, 10)]

    def test_ragged_tail(self):
        assert segment_slices(11, 5)[-1] == slice(10, 11)

    def test_invalid(self):
        with pytest.raises(ValueError):
            segment_slices(10, 0)


class TestInQuestConfig:
    def test_budget_split(self):
        cfg = InQuestConfig(n_per_segment=100, defensive_frac=0.1)
        assert cfg.n1 == 10 and cfg.n2 == 90


class TestInQuestState:
    def test_pilot_spends_full_budget(self):
        f, pred, proxy = toy_stream(2000)
        state = InQuestState(InQuestConfig(n_per_segment=120), seed=0)
        out = state.observe_segment(f, pred, proxy)
        assert out["oracle_calls"] == 120
        assert out["segment"] == 1

    def test_state_is_per_cell_statistics(self):
        # The query state is K cells of sufficient statistics per segment,
        # from which the running estimate and the spend are read.
        f, pred, proxy = toy_stream(6000)
        state = InQuestState(InQuestConfig(n_per_segment=120, k=4), seed=0)
        for sl in segment_slices(6000, 2000):
            out = state.observe_segment(f[sl], pred[sl], proxy[sl])
        assert isinstance(state.cells, CellStats) and len(state.cells) == 3 * 4
        assert state.cells.n.sum() == 3 * 120
        assert get_prediction(state.cells) == out["running_estimate"]

    def test_later_segments_spend_full_budget(self):
        f, pred, proxy = toy_stream(6000)
        state = InQuestState(InQuestConfig(n_per_segment=120), seed=0)
        for sl in segment_slices(6000, 2000):
            out = state.observe_segment(f[sl], pred[sl], proxy[sl])
            assert out["oracle_calls"] == 120

    def test_defensive_floor_in_budgets(self):
        # Every stratum gets at least floor(N1/K) samples after segment 1.
        f, pred, proxy = toy_stream(6000)
        cfg = InQuestConfig(n_per_segment=120, defensive_frac=0.1)
        state = InQuestState(cfg, seed=1)
        for i, sl in enumerate(segment_slices(6000, 2000)):
            out = state.observe_segment(f[sl], pred[sl], proxy[sl])
            if i > 0:
                assert np.all(out["budgets"] >= int(cfg.n1 / cfg.k))

    def test_deterministic_in_seed(self):
        f, pred, proxy = toy_stream(4000)
        runs = []
        for _ in range(2):
            state = InQuestState(InQuestConfig(n_per_segment=80), seed=42)
            ests = [
                state.observe_segment(f[sl], pred[sl], proxy[sl])["estimate"]
                for sl in segment_slices(4000, 1000)
            ]
            runs.append(ests)
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        f, pred, proxy = toy_stream(4000)
        ests = []
        for seed in (1, 2):
            state = InQuestState(InQuestConfig(n_per_segment=80), seed=seed)
            ests.append(
                [
                    state.observe_segment(f[sl], pred[sl], proxy[sl])["estimate"]
                    for sl in segment_slices(4000, 1000)
                ]
            )
        assert ests[0] != ests[1]

    def test_boundaries_update_with_dynamic_strata(self):
        f, pred, proxy = toy_stream(6000, seed=3)
        state = InQuestState(InQuestConfig(n_per_segment=100), seed=0)
        bounds = [
            state.observe_segment(f[sl], pred[sl], proxy[sl])["boundaries"].copy()
            for sl in segment_slices(6000, 2000)
        ]
        assert not np.allclose(bounds[1], bounds[2])

    def test_fixed_strata_boundaries_constant(self):
        f, pred, proxy = toy_stream(6000, seed=3)
        state = InQuestState(
            InQuestConfig(n_per_segment=100, dynamic_strata=False), seed=0
        )
        bounds = [
            state.observe_segment(f[sl], pred[sl], proxy[sl])["boundaries"].copy()
            for sl in segment_slices(6000, 2000)
        ]
        for b in bounds:
            assert np.allclose(b, [1 / 3, 2 / 3])

    def test_fixed_alloc_even_budgets(self):
        f, pred, proxy = toy_stream(6000, seed=4)
        state = InQuestState(
            InQuestConfig(n_per_segment=99, dynamic_alloc=False), seed=0
        )
        for i, sl in enumerate(segment_slices(6000, 2000)):
            out = state.observe_segment(f[sl], pred[sl], proxy[sl])
            if i > 0:
                assert np.all(out["budgets"] == 33)

    def test_running_estimate_tracks_truth(self):
        f, pred, proxy = toy_stream(20_000, seed=5)
        state = InQuestState(InQuestConfig(n_per_segment=300), seed=0)
        for sl in segment_slices(20_000, 4000):
            out = state.observe_segment(f[sl], pred[sl], proxy[sl])
        assert abs(out["running_estimate"] - f[pred].mean()) < 0.05

    def test_no_predicate_mode(self):
        f, pred, proxy = toy_stream(4000, seed=6)
        ones = np.ones_like(pred)
        state = InQuestState(InQuestConfig(n_per_segment=100), seed=0)
        for sl in segment_slices(4000, 1000):
            out = state.observe_segment(f[sl], ones[sl], proxy[sl])
        assert abs(out["running_estimate"] - f.mean()) < 0.08

    def test_all_predicate_false_estimate_zero(self):
        f, _, proxy = toy_stream(2000, seed=7)
        none = np.zeros(2000, dtype=bool)
        state = InQuestState(InQuestConfig(n_per_segment=50), seed=0)
        out = state.observe_segment(f, none, proxy)
        assert out["estimate"] == 0.0


class TestInQuestTrial:
    def test_output_shapes(self):
        f, pred, proxy = toy_stream(5000)
        out = inquest_trial(f, pred, proxy, seg_len=1000, total_budget=250, seed=0)
        assert len(out["seg_estimates"]) == 5
        assert np.isfinite(out["full_estimate"])
        assert out["oracle_calls"] == 250

    def test_budget_never_exceeded(self):
        f, pred, proxy = toy_stream(5000)
        for budget in (50, 125, 500):
            out = inquest_trial(f, pred, proxy, seg_len=1000, total_budget=budget, seed=1)
            assert out["oracle_calls"] <= budget

    @pytest.mark.parametrize("flags", [(True, False), (False, True), (False, False)])
    def test_lesion_variants_run(self, flags):
        dyn_s, dyn_a = flags
        f, pred, proxy = toy_stream(5000)
        out = inquest_trial(
            f, pred, proxy, seg_len=1000, total_budget=250, seed=0,
            dynamic_strata=dyn_s, dynamic_alloc=dyn_a,
        )
        assert len(out["seg_estimates"]) == 5

    def test_error_decreases_with_budget(self):
        # Theorem 2's O(1/N) empirically: MSE at 4x budget should drop
        # clearly (allow slack for Monte Carlo noise).
        f, pred, proxy = toy_stream(20_000, seed=8)
        truth = np.array(
            [f[sl][pred[sl]].mean() for sl in segment_slices(20_000, 4000)]
        )
        mses = []
        for budget in (250, 1000):
            errs = [
                inquest_trial(f, pred, proxy, seg_len=4000, total_budget=budget, seed=s)[
                    "seg_estimates"
                ]
                - truth
                for s in range(150)
            ]
            mses.append(float((np.array(errs) ** 2).mean()))
        assert mses[1] < mses[0] / 2.0

    def test_allocation_converges_towards_optimal(self):
        # Theorem 1 empirically: on a stationary stream the EWMA'd
        # allocation approaches a* (computed with perfect information).
        n, seg = 60_000, 6000
        f, pred, proxy = toy_stream(n, seed=9)
        cfg = InQuestConfig(n_per_segment=400, alpha=0.0)  # unweighted history
        from repro.core.stratify import assign_strata, quantile_boundaries

        state = InQuestState(cfg, seed=0)
        for sl in segment_slices(n, seg):
            out = state.observe_segment(f[sl], pred[sl], proxy[sl])
        # Perfect-information a* for the final segment's strata.
        sl = segment_slices(n, seg)[-1]
        strata = assign_strata(proxy[sl], out["boundaries"])
        d = np.bincount(strata, minlength=3).astype(float)
        p_k = np.array([pred[sl][strata == k].mean() for k in range(3)])
        sig = np.array(
            [
                f[sl][(strata == k) & pred[sl]].std(ddof=1)
                if ((strata == k) & pred[sl]).sum() > 1
                else 0.0
                for k in range(3)
            ]
        )
        a_star = optimal_allocation(d, p_k, sig, n1=cfg.n1, n2=cfg.n2, k=3)
        realized = out["budgets"] / out["budgets"].sum()
        target = (cfg.n1 / 3 + cfg.n2 * a_star) / cfg.n_per_segment
        assert np.max(np.abs(realized - target)) < 0.15


class TestConfidenceInterval:
    @pytest.mark.parametrize("mode", ["pred", "nopred"])
    def test_coverage(self, mode):
        # The paper's Section 3.2 guarantee, checked as coverage over Monte
        # Carlo trials: the 95% interval from the query state's sufficient
        # statistics covers the full-query truth in most trials, and is not
        # so wide that it covers it in (nearly) all of them.
        stream = generate("archie", n_records=100_000, seg_len=20_000, seed=0)
        f = stream.statistic
        pred = stream.pred if mode == "pred" else np.ones(stream.n_records, dtype=bool)
        truth = f[pred].mean()
        plan = inquest_plan(stream.proxy, seg_len=stream.seg_len)
        trials, hits = 200, 0
        for seed in range(trials):
            out = inquest_trial(
                f, pred, stream.proxy, seg_len=stream.seg_len,
                total_budget=500, seed=seed, plan=plan,
            )
            lo, hi = confidence_interval(out["state"].cells)
            hits += lo <= truth <= hi
        assert 0.85 <= hits / trials <= 0.99
