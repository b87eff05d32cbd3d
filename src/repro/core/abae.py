"""ABae (Kang et al., PVLDB 2021) — the batch-setting comparator.

ABae sees the *entire* dataset's proxy scores before sampling (its
batch-setting advantage): it stratifies globally by proxy quantiles,
spends a pilot fraction of the total budget evenly across strata to
estimate ``p_k`` and ``sigma_k``, then allocates the remaining budget by
the optimal ``|D_k| sqrt(p_k) sigma_k`` rule.  We run it as the paper
does (Section 5.1): ``K = 3``, 15% pilot, *sample reuse* (pilot samples
count toward the final estimate).

Per-segment estimates — needed for the median-segment-RMSE metric —
restrict ABae's global sample to each segment and reweight by
within-segment ``p_hat_tk |D_tk|``, exactly the procedure described in
Section 5.2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import estimated_allocation
from .estimator import cell_stats, trial_result
from .inquest import segment_slices
from .sampling import cap_and_redistribute, draw_stratified, largest_remainder_round
from .stratify import SegmentStrata, quantile_boundaries, stratify

__all__ = ["PILOT_FRAC", "AbaePlan", "abae_plan", "abae_trial"]

#: Share of the budget ABae spends on its pilot (Section 5.1: 15%).
PILOT_FRAC = 0.15


@dataclass(frozen=True)
class AbaePlan:
    """ABae's seed-independent strata over one stream.

    ``strata`` are the global proxy-quantile strata (members are record
    positions in the stream); ``seg_sizes[t, k]`` is how many of stratum
    ``k``'s records fall in segment ``t``.
    """

    strata: SegmentStrata
    seg_sizes: np.ndarray


def abae_plan(proxy: np.ndarray, *, seg_len: int, k: int = 3) -> AbaePlan:
    """Global strata and their per-segment sizes; the same for every trial."""
    proxy = np.asarray(proxy, dtype=np.float64)
    edges = [sl.start for sl in segment_slices(len(proxy), seg_len)] + [len(proxy)]
    strata = stratify(proxy, quantile_boundaries(proxy, k))
    seg_sizes = np.stack(
        [np.diff(np.searchsorted(m, edges)) for m in strata.members], axis=1
    )
    return AbaePlan(strata, seg_sizes)


def _draw_unused(
    rng: np.random.Generator, members: np.ndarray, used: np.ndarray, size: int
) -> np.ndarray:
    """Uniform draw of ``size`` members not in ``used`` (which ⊂ members).

    Draws ``j`` among the unused positions' ranks and maps each rank to
    its position in ``members``: the rank-``j`` unused position is ``j``
    plus the number of used positions ``r_i`` whose ``r_i - i <= j``.
    The same random numbers and result as ``Generator.choice`` over the
    explicit set difference, without building it.
    """
    if size <= 0:
        return members[:0].copy()
    r = np.sort(np.searchsorted(members, used))
    j = rng.choice(len(members) - len(r), size=size, replace=False)
    return members[j + np.searchsorted(r - np.arange(len(r)), j, side="right")]


def abae_trial(
    f: np.ndarray,
    pred: np.ndarray,
    proxy: np.ndarray,
    *,
    seg_len: int,
    total_budget: int,
    seed: int = 0,
    k: int = 3,
    plan: AbaePlan | None = None,
) -> dict:
    """One ABae trial over a materialised dataset.

    ``plan`` is :func:`abae_plan` of the same stream, built here when not
    given.
    """
    if plan is None:
        plan = abae_plan(proxy, seg_len=seg_len, k=k)
    members = plan.strata.members
    d_sizes = plan.strata.sizes
    rng = np.random.default_rng([seed, 0])

    # Stage 1 — pilot: even split of PILOT_FRAC * budget across strata.
    pilot_budget = max(k, int(round(PILOT_FRAC * total_budget)))
    pilot_each = largest_remainder_round(np.ones(k), pilot_budget)
    pilot_each = cap_and_redistribute(pilot_each, d_sizes)
    pilot_idx, pilot_strata = draw_stratified(rng, members, pilot_each)

    # Allocation estimate from the pilot (optimal |D_k| sqrt(p_k) sigma_k
    # rule); uniform fallback when the pilot is uninformative.
    pilot = cell_stats(f[pilot_idx], pred[pilot_idx], pilot_strata, d_sizes)
    alloc = estimated_allocation(d_sizes, pilot.p_hat, pilot.sigma_hat)
    if alloc is None:
        alloc = np.full(k, 1.0 / k)

    # Stage 2 — allocate the remainder, excluding already-drawn records.
    stage2_budget = max(0, total_budget - int(pilot_each.sum()))
    remaining = d_sizes - pilot_each
    stage2 = cap_and_redistribute(
        largest_remainder_round(alloc, stage2_budget), remaining
    )
    drawn = [
        _draw_unused(rng, members[k_], pilot_idx[pilot_strata == k_], stage2[k_])
        for k_ in range(k)
    ]
    # Sample reuse: the final estimator sees pilot + stage-2 samples (each
    # cell's pilot draws first, as cell_stats keeps draw order in a cell).
    idx = np.concatenate([pilot_idx, *drawn])
    strata = np.concatenate([pilot_strata, np.repeat(np.arange(k), stage2)])

    # Segments read their (segment, stratum) cells, the full query the strata.
    seg_labels = idx // seg_len * k + strata
    return trial_result(
        cell_stats(f[idx], pred[idx], seg_labels, plan.seg_sizes.ravel()),
        k,
        full=cell_stats(f[idx], pred[idx], strata, d_sizes),
    )
