"""Pinned outputs of every trial kernel, and plan/no-plan equivalence.

``kernel_golden.json`` holds the exact ``seg_estimates``, ``full_estimate``
and ``oracle_calls`` of every ``ALGORITHMS`` entry, in both query modes,
at budgets from far below to far above the stream length, on a short
drifting stream whose last segment is shorter than the others.  Any
change to a kernel that is meant to be a pure refactor or speed-up must
leave these numbers bit-identical.  Regenerate (only when a change of
results is intended, and say so) with::

    PYTHONPATH=src python tests/test_kernel_golden.py

Every kernel returns ``trial_result`` of its cells, so the full-query
estimate, the spend and the interval all read the result's ``"cells"``;
a test checks that on the same stream.

The property tests check, over degenerate streams, that a kernel run
from a prebuilt plan is bit-identical to one that builds its own, and
that the live ``InQuestState`` (strata computed as segments arrive)
matches the offline kernel.  Behaviour on these inputs is pinned, not
judged: e.g. an all-false predicate still estimates ``0.0``.  Inputs no
kernel can answer, NaN proxy scores and empty streams, must raise
``ValueError``.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import confidence_interval, get_prediction
from repro.core.inquest import (
    InQuestConfig,
    InQuestState,
    inquest_plan,
    inquest_trial,
    segment_slices,
)
from repro.sparkops.trials import ALGORITHMS

GOLDEN = Path(__file__).with_name("kernel_golden.json")
N, SEG_LEN = 5_300, 1_200  # T = 5, the last segment 500 records
BUDGETS = (50, 500, 5_000, 40_000)
MODES = ("pred", "nopred")
SEEDS = (0, 7)


def golden_stream(n: int = N, seed: int = 2023):
    """A stream whose proxy distribution drifts, so dynamic strata move."""
    g = np.random.default_rng(seed)
    drift = np.linspace(-1.0, 1.0, n)
    latent = drift + np.cumsum(g.normal(0.0, 0.05, n)) + g.normal(0.0, 0.5, n)
    pred = g.random(n) < 1.0 / (1.0 + np.exp(-latent))
    f = np.where(pred, np.exp(0.3 * latent) + g.exponential(0.5, n), 0.0)
    proxy = 1.0 / (1.0 + np.exp(-(latent + g.normal(0.0, 0.7, n))))
    return f, pred, proxy


def _key(algo: str, mode: str, budget: int, seed: int) -> str:
    return f"{algo}/{mode}/{budget}/{seed}"


def compute() -> dict:
    f, pred, proxy = golden_stream()
    out = {}
    for algo in sorted(ALGORITHMS):
        for mode in MODES:
            p = pred if mode == "pred" else np.ones(N, dtype=bool)
            for budget in BUDGETS:
                for seed in SEEDS:
                    res = ALGORITHMS[algo](
                        f, p, proxy, seg_len=SEG_LEN, total_budget=budget, seed=seed
                    )
                    out[_key(algo, mode, budget, seed)] = {
                        "seg_estimates": [float(x) for x in res["seg_estimates"]],
                        "full_estimate": float(res["full_estimate"]),
                        "oracle_calls": int(res["oracle_calls"]),
                    }
    return out


@pytest.fixture(scope="module")
def outputs():
    return compute()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_registry(golden):
    assert set(golden) == {
        _key(a, m, b, s)
        for a in ALGORITHMS for m in MODES for b in BUDGETS for s in SEEDS
    }


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_kernel_outputs_bit_identical(algo, outputs, golden):
    for mode in MODES:
        for budget in BUDGETS:
            for seed in SEEDS:
                key = _key(algo, mode, budget, seed)
                # JSON floats round-trip exactly, so == is bit-identity.
                assert outputs[key] == golden[key], key


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_result_reads_its_cells(algo):
    f, pred, proxy = golden_stream()
    for mode in MODES:
        p = pred if mode == "pred" else np.ones(N, dtype=bool)
        for budget in BUDGETS:
            for seed in SEEDS:
                key = _key(algo, mode, budget, seed)
                out = ALGORITHMS[algo](
                    f, p, proxy, seg_len=SEG_LEN, total_budget=budget, seed=seed
                )
                assert out.keys() == {
                    "seg_estimates", "full_estimate", "oracle_calls", "cells"
                }, key
                cells = out["cells"]
                assert get_prediction(cells) == out["full_estimate"], key
                assert out["oracle_calls"] == cells.n.sum(), key
                if cells.n_pos.sum() > 0:
                    lo, hi = confidence_interval(cells)
                    assert lo <= out["full_estimate"] <= hi, key


@st.composite
def degenerate_streams(draw):
    """Short streams with constant or tied proxies, rare or absent
    predicate matches, ``seg_len >= n`` or ``n % seg_len != 0``."""
    n = draw(st.integers(1, 300))
    seg_len = draw(st.one_of(st.integers(1, n), st.integers(n, 2 * n)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    proxy = draw(
        st.sampled_from(
            [
                lambda: np.full(n, draw(st.sampled_from([0.0, 0.5, 1.0]))),
                lambda: g.random(n),
                lambda: np.round(g.random(n), 1),  # many ties
            ]
        )
    )()
    pred = draw(
        st.sampled_from(
            [
                lambda: np.zeros(n, dtype=bool),
                lambda: np.ones(n, dtype=bool),
                lambda: g.random(n) < draw(st.floats(0.0, 1.0)),
            ]
        )
    )()
    f = np.where(pred, g.exponential(1.0, n), 0.0)
    n_segments = -(-n // seg_len)
    # At least one oracle call per segment and per stratum: below that the
    # kernels spend one call per segment (ABae: per stratum) regardless.
    budget = draw(st.integers(max(n_segments, 5), 3 * n + 10))
    k = draw(st.integers(1, 5))
    return f, pred, proxy, seg_len, budget, k


def _same(a: dict, b: dict) -> bool:
    return (
        np.array_equal(a["seg_estimates"], b["seg_estimates"], equal_nan=True)
        and np.array_equal(a["full_estimate"], b["full_estimate"], equal_nan=True)
        and a["oracle_calls"] == b["oracle_calls"]
    )


class TestPlans:
    @given(
        degenerate_streams(),
        st.integers(0, 1000),
        st.floats(0.0, 1.0),
        st.sampled_from(sorted(ALGORITHMS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_prebuilt_plan_changes_nothing(self, stream, seed, alpha, algo):
        f, pred, proxy, seg_len, budget, k = stream
        spec = ALGORITHMS[algo]
        knobs = {"k": k} if spec.plan is not None else {}  # every plan takes k
        if "alpha" in spec.knobs:
            knobs["alpha"] = alpha
        common = dict(seg_len=seg_len, total_budget=budget, seed=seed, **knobs)
        own = spec(f, pred, proxy, **common)
        assert own["oracle_calls"] <= budget
        assert len(own["seg_estimates"]) == len(segment_slices(len(f), seg_len))
        if spec.plan is not None:
            plan = spec.plan(proxy, seg_len=seg_len, **knobs)
            assert _same(own, spec(f, pred, proxy, plan=plan, **common))

    @given(
        degenerate_streams(),
        st.integers(0, 1000),
        st.floats(0.0, 1.0),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_live_state_matches_plan(
        self, stream, seed, alpha, dyn_strata, dyn_alloc, fixed_budgets
    ):
        f, pred, proxy, seg_len, budget, k = stream
        slices = segment_slices(len(f), seg_len)
        cfg = InQuestConfig(
            n_per_segment=max(1, budget // len(slices)),
            k=k,
            alpha=alpha,
            dynamic_strata=dyn_strata,
            dynamic_alloc=dyn_alloc,
            fixed_budgets=fixed_budgets,
        )
        plan = inquest_plan(
            proxy, seg_len=seg_len, k=k, alpha=alpha, dynamic_strata=dyn_strata
        )
        live, planned = InQuestState(cfg, seed=seed), InQuestState(cfg, seed=seed)
        estimates = []
        for sl, strata in zip(slices, plan, strict=True):
            a = live.observe_segment(f[sl], pred[sl], proxy[sl])
            b = planned.observe_segment(f[sl], pred[sl], proxy[sl], strata)
            assert a.keys() == b.keys()
            for key in a:
                assert np.array_equal(a[key], b[key]), key
            estimates.append(a["estimate"])
        offline = inquest_trial(
            f, pred, proxy, seg_len=seg_len, total_budget=budget, seed=seed, k=k,
            alpha=alpha, dynamic_strata=dyn_strata, dynamic_alloc=dyn_alloc,
            fixed_budgets=fixed_budgets,
        )
        assert np.array_equal(estimates, offline["seg_estimates"])
        assert a["running_estimate"] == offline["full_estimate"]


class TestRejectedInputs:
    @given(degenerate_streams(), st.data(), st.sampled_from(sorted(ALGORITHMS)))
    @settings(max_examples=100, deadline=None)
    def test_nan_proxy_raises(self, stream, data, algo):
        f, pred, proxy, seg_len, budget, k = stream
        nan_at = data.draw(
            st.lists(st.integers(0, len(f) - 1), min_size=1, unique=True)
        )
        bad = proxy.copy()
        bad[nan_at] = np.nan
        spec = ALGORITHMS[algo]
        common = dict(seg_len=seg_len, total_budget=budget, seed=0)
        if spec.plan is None:
            # Uniform sampling reads no proxy score, so NaN ones change nothing.
            assert _same(spec(f, pred, bad, **common), spec(f, pred, proxy, **common))
            return
        # The count is of the first rejected proxy array: one segment's, or
        # the whole stream's for ABae's global strata.
        with pytest.raises(ValueError, match=r"[1-9]\d* of \d+ proxy scores are NaN"):
            spec(f, pred, bad, k=k, **common)
        with pytest.raises(ValueError, match="proxy scores are NaN"):
            spec.plan(bad, seg_len=seg_len, k=k)

    @given(degenerate_streams(), st.data(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_live_state_rejects_nan_segment_unchanged(self, stream, data, dyn_strata):
        # A rejected segment leaves the state as it was: the same segment
        # without NaNs then gives what a state that never saw it gives.
        f, pred, proxy, seg_len, budget, k = stream
        slices = segment_slices(len(f), seg_len)
        bad_t = data.draw(st.integers(0, len(slices) - 1))
        cfg = InQuestConfig(
            n_per_segment=max(1, budget // len(slices)), k=k, dynamic_strata=dyn_strata
        )
        rejected, clean = InQuestState(cfg, seed=1), InQuestState(cfg, seed=1)
        for t, sl in enumerate(slices):
            if t == bad_t:
                bad = proxy[sl].copy()
                bad[0] = np.nan
                with pytest.raises(ValueError, match="1 of .* proxy scores are NaN"):
                    rejected.observe_segment(f[sl], pred[sl], bad)
            a = rejected.observe_segment(f[sl], pred[sl], proxy[sl])
            b = clean.observe_segment(f[sl], pred[sl], proxy[sl])
            for key in a:
                assert np.array_equal(a[key], b[key]), key

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_empty_stream_raises(self, algo):
        empty = np.empty(0)
        spec = ALGORITHMS[algo]
        with pytest.raises(ValueError, match="empty stream"):
            spec(empty, empty.astype(bool), empty, seg_len=SEG_LEN, total_budget=500)
        if spec.plan is not None:
            with pytest.raises(ValueError, match="empty stream"):
                spec.plan(empty, seg_len=SEG_LEN)

    def test_live_state_rejects_empty_segment(self):
        state = InQuestState(InQuestConfig(n_per_segment=10))
        empty = np.empty(0)
        with pytest.raises(ValueError, match="empty segment"):
            state.observe_segment(empty, empty.astype(bool), empty)
        assert state.t == 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
