"""InQuest (Algorithms 1 and 2) as a segment-at-a-time state machine.

:class:`InQuestState` is the single implementation shared by the offline
Monte Carlo kernels (:func:`inquest_trial`) and the Structured Streaming
deployment (``repro.streaming.job``): each call to
:meth:`InQuestState.observe_segment` consumes one tumbling-window
segment of the stream — one micro-batch — and returns the real-time
query estimate.

Per segment ``t``:

1. stratify: :class:`Stratifier` (``GetStrata``) splits the segment at
   the EWMA of earlier segments' proxy quantiles (the pilot at its own).
   Strata read proxy scores only, so :func:`inquest_plan` computes them
   once per stream for all trials, and a live stream computes them as
   each segment arrives;
2. sample: segment 1 is the *pilot* (uniform draw of the full budget
   ``N``); later segments split ``N`` into ``N1`` defensive samples (even
   across strata) plus ``N2`` dynamically allocated samples, drawing
   without replacement within each stratum (= reservoir sampling's
   output law);
3. update: fold this segment's sample-based allocation estimate into the
   allocation EWMA (``GetAlloc``), ready for segment ``t + 1``.

The lesion-study variants of Figure 7 are the ``dynamic_strata`` /
``dynamic_alloc`` flags: both off reproduces "stratified sampling with a
pilot segment".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import estimated_allocation, mix_defensive
from .estimator import CellStats, cell_stats, get_prediction
from .sampling import cap_and_redistribute, draw_stratified, largest_remainder_round
from .stratify import (
    Ewma,
    SegmentStrata,
    assign_strata,
    fixed_boundaries,
    quantile_boundaries,
    stratify,
)

__all__ = [
    "InQuestConfig",
    "InQuestState",
    "Stratifier",
    "inquest_plan",
    "inquest_trial",
    "segment_slices",
]


@dataclass(frozen=True)
class InQuestConfig:
    """Free parameters of InQuest (paper defaults: K=3, alpha=0.8, N1=0.1N)."""

    n_per_segment: int
    k: int = 3
    alpha: float = 0.8
    defensive_frac: float = 0.1
    dynamic_strata: bool = True
    dynamic_alloc: bool = True

    @property
    def n1(self) -> float:
        """Defensive budget per segment."""
        return self.defensive_frac * self.n_per_segment

    @property
    def n2(self) -> float:
        """Dynamic budget per segment."""
        return self.n_per_segment - self.n1


class Stratifier:
    """``GetStrata`` (Algorithm 2): the strata each segment is sampled with.

    The pilot segment is split at its own proxy quantiles and every later
    segment at the EWMA of the earlier segments' quantiles; with
    ``dynamic=False`` every segment uses :func:`fixed_boundaries`.  Only
    proxy scores are read, so the strata are the same for every trial seed.
    """

    def __init__(self, k: int, alpha: float, *, dynamic: bool = True) -> None:
        self.k = k
        self.dynamic = dynamic
        self._ewma = Ewma(alpha)

    def next_strata(self, proxy: np.ndarray) -> SegmentStrata:
        """Strata of the next segment, whose proxy scores are ``proxy``."""
        if not self.dynamic:
            return stratify(proxy, fixed_boundaries(self.k))
        quantiles = quantile_boundaries(proxy, self.k)
        try:
            boundaries = np.asarray(self._ewma.value)
        except ValueError:  # the pilot: no earlier segment yet
            boundaries = quantiles
        self._ewma.update(quantiles)
        return stratify(proxy, boundaries)


class InQuestState:
    """Mutable InQuest query state; one instance per running query."""

    def __init__(self, config: InQuestConfig, *, seed: int = 0) -> None:
        self.cfg = config
        self.seed = int(seed)
        self.t = 0
        self._stratifier = Stratifier(
            config.k, config.alpha, dynamic=config.dynamic_strata
        )
        self._alloc_ewma = Ewma(config.alpha)
        # Every (segment, stratum) cell sampled so far, segment-major.
        self.cells: CellStats = cell_stats([], [], [], [])

    # -- sampling ----------------------------------------------------------
    def _segment_rng(self, t: int) -> np.random.Generator:
        # Seeded by (trial seed, segment index) so the offline kernel and
        # the Structured Streaming path draw identical samples.
        return np.random.default_rng([self.seed, t])

    def _alloc_fractions(self) -> np.ndarray:
        k = self.cfg.k
        if not self.cfg.dynamic_alloc:
            return np.full(k, 1.0 / k)
        try:
            dyn = np.asarray(self._alloc_ewma.value)
        except ValueError:  # no informative allocation observed yet
            dyn = np.full(k, 1.0 / k)
        return mix_defensive(dyn, n1=self.cfg.n1, n2=self.cfg.n2, k=k)

    def observe_segment(
        self,
        f: np.ndarray,
        pred: np.ndarray,
        proxy: np.ndarray,
        strata: SegmentStrata | None = None,
    ) -> dict:
        """Consume one segment; return its estimate and the running estimate.

        ``f``/``pred`` are the *oracle* outputs but are only read at the
        sampled indices (``oracle_calls`` counts them); ``proxy`` is read
        everywhere, matching the paper's cost model.  ``strata`` are
        the segment's strata from :func:`inquest_plan`; without them they
        are computed from ``proxy`` here, as on a live stream.
        """
        t = self.t + 1
        cfg = self.cfg
        rng = self._segment_rng(t)
        proxy = np.asarray(proxy, dtype=np.float64)
        if strata is None:
            strata = self._stratifier.next_strata(proxy)
        d_sizes = strata.sizes

        if t == 1:
            # Pilot: uniform sample of the whole per-segment budget, then
            # grouped under the pilot segment's strata.
            idx = rng.choice(len(f), size=min(cfg.n_per_segment, len(f)), replace=False)
            sample_strata = assign_strata(proxy[idx], strata.boundaries)
            budgets = np.bincount(sample_strata, minlength=cfg.k)
        else:
            budgets = cap_and_redistribute(
                largest_remainder_round(self._alloc_fractions(), cfg.n_per_segment),
                d_sizes,
            )
            idx, sample_strata = draw_stratified(rng, strata.members, budgets)

        cells_t = cell_stats(f[idx], pred[idx], sample_strata, d_sizes)

        # -- post-segment update (used from segment t + 1 on) --------------
        a_t = estimated_allocation(d_sizes, cells_t.p_hat, cells_t.sigma_hat)
        if a_t is not None:
            self._alloc_ewma.update(a_t)

        self.cells = CellStats.concat([self.cells, cells_t])
        self.t = t
        return {
            "segment": t,
            "estimate": get_prediction(cells_t),
            "running_estimate": get_prediction(self.cells),
            "oracle_calls": len(idx),
            "budgets": budgets,
            "boundaries": strata.boundaries,
        }


def segment_slices(n_records: int, seg_len: int) -> list[slice]:
    """Tumbling-window segment slices; the last may be shorter."""
    if seg_len <= 0:
        raise ValueError(f"seg_len must be positive, got {seg_len}")
    return [slice(lo, min(lo + seg_len, n_records)) for lo in range(0, n_records, seg_len)]


def inquest_plan(
    proxy: np.ndarray,
    *,
    seg_len: int,
    k: int = 3,
    alpha: float = 0.8,
    dynamic_strata: bool = True,
) -> list[SegmentStrata]:
    """Every segment's strata, as :class:`InQuestState` computes them live.

    Seed-independent: one plan serves every trial over the same stream.
    """
    proxy = np.asarray(proxy, dtype=np.float64)
    stratifier = Stratifier(k, alpha, dynamic=dynamic_strata)
    return [
        stratifier.next_strata(proxy[sl])
        for sl in segment_slices(len(proxy), seg_len)
    ]


def inquest_trial(
    f: np.ndarray,
    pred: np.ndarray,
    proxy: np.ndarray,
    *,
    seg_len: int,
    total_budget: int,
    seed: int = 0,
    k: int = 3,
    alpha: float = 0.8,
    defensive_frac: float = 0.1,
    dynamic_strata: bool = True,
    dynamic_alloc: bool = True,
    plan: list[SegmentStrata] | None = None,
) -> dict:
    """One InQuest trial over a materialised stream.

    ``total_budget`` is the query's total oracle budget ``NT``; the
    per-segment budget is ``NT / T`` as in the paper's sweeps.  ``plan``
    is :func:`inquest_plan` of the same stream and knobs, built here when
    not given.  Returns per-segment estimates, the final full-query
    estimate, and the number of oracle calls actually spent.
    """
    slices = segment_slices(len(f), seg_len)
    if plan is None:
        plan = inquest_plan(
            proxy, seg_len=seg_len, k=k, alpha=alpha, dynamic_strata=dynamic_strata
        )
    n_per_segment = max(1, total_budget // len(slices))
    state = InQuestState(
        InQuestConfig(
            n_per_segment=n_per_segment,
            k=k,
            alpha=alpha,
            defensive_frac=defensive_frac,
            dynamic_strata=dynamic_strata,
            dynamic_alloc=dynamic_alloc,
        ),
        seed=seed,
    )
    seg_estimates = [
        state.observe_segment(f[sl], pred[sl], proxy[sl], strata)["estimate"]
        for sl, strata in zip(slices, plan, strict=True)
    ]
    return {
        "seg_estimates": np.asarray(seg_estimates),
        "full_estimate": get_prediction(state.cells),
        "oracle_calls": int(state.cells.n.sum()),
        "state": state,
    }
