"""The two streaming baselines of Section 5.1.

Both baselines consume the same stream representation as InQuest and
return the same trial-result dict, so the trial runner treats all
algorithms uniformly.

- :func:`uniform_trial` — the paper precomputes ``N`` uniformly random
  record positions between query submission and the end of the
  ``DURATION`` and calls the oracle on exactly those records; estimates
  average the statistic over (predicate-matching) samples.
- :func:`fixed_stratified_trial` — stratified sampling with the fixed
  stratification ``[0, 0.33], [0.33, 0.67], [0.67, 1.0]`` and a fixed
  ``N/K`` budget per (segment, stratum), reservoir-sampled within each
  cell, combined with the ``w_hat_tk = |D_tk| p_hat_tk / sum_j ...``
  weighted average of Equations 11-12.
"""
from __future__ import annotations

import numpy as np

from .estimator import cell_stats, get_prediction
from .inquest import segment_slices
from .sampling import draw_stratified
from .stratify import SegmentStrata, fixed_boundaries, stratify

__all__ = ["uniform_trial", "fixed_stratified_plan", "fixed_stratified_trial"]


def uniform_trial(
    f: np.ndarray,
    pred: np.ndarray,
    proxy: np.ndarray,
    *,
    seg_len: int,
    total_budget: int,
    seed: int = 0,
) -> dict:
    """Uniform-sampling baseline: ``NT`` precomputed positions over the query.

    ``proxy`` is accepted for interface uniformity but unused — uniform
    sampling is proxy-free, so it has no plan.
    """
    del proxy
    rng = np.random.default_rng([seed, 0])
    size = max(0, min(total_budget, len(f)))
    positions = rng.choice(len(f), size=size, replace=False)
    # One cell per segment, so a segment's estimate is the plain mean over
    # its predicate-matching samples.
    sizes = [sl.stop - sl.start for sl in segment_slices(len(f), seg_len)]
    cells = cell_stats(f[positions], pred[positions], positions // seg_len, sizes)
    return {
        "seg_estimates": np.array(
            [get_prediction(cells[t : t + 1]) for t in range(len(cells))]
        ),
        "full_estimate": get_prediction(cells),
        "oracle_calls": len(positions),
    }


def fixed_stratified_plan(
    proxy: np.ndarray, *, seg_len: int, k: int = 3
) -> list[SegmentStrata]:
    """Every segment's fixed strata; the same for every trial seed."""
    proxy = np.asarray(proxy, dtype=np.float64)
    boundaries = fixed_boundaries(k)
    slices = segment_slices(len(proxy), seg_len)
    return [stratify(proxy[sl], boundaries) for sl in slices]


def fixed_stratified_trial(
    f: np.ndarray,
    pred: np.ndarray,
    proxy: np.ndarray,
    *,
    seg_len: int,
    total_budget: int,
    seed: int = 0,
    k: int = 3,
    plan: list[SegmentStrata] | None = None,
) -> dict:
    """Fixed-strata / fixed-allocation stratified-sampling baseline.

    ``plan`` is :func:`fixed_stratified_plan` of the same stream, built
    here when not given.
    """
    slices = segment_slices(len(f), seg_len)
    if plan is None:
        plan = fixed_stratified_plan(proxy, seg_len=seg_len, k=k)
    n_per_segment = max(1, total_budget // len(slices))
    # Fixed even split; remainder goes to the first strata so the full
    # per-segment budget is spent.
    per_stratum = np.full(k, n_per_segment // k, dtype=np.int64)
    per_stratum[: n_per_segment % k] += 1

    positions, labels = [], []
    for t, (sl, strata) in enumerate(zip(slices, plan, strict=True)):
        rng = np.random.default_rng([seed, t + 1])
        idx, sample_strata = draw_stratified(rng, strata.members, per_stratum)
        positions.append(sl.start + idx)
        labels.append(t * k + sample_strata)
    positions = np.concatenate(positions)
    cells = cell_stats(
        f[positions],
        pred[positions],
        np.concatenate(labels),
        np.concatenate([strata.sizes for strata in plan]),
    )
    return {
        "seg_estimates": np.array(
            [get_prediction(cells[i : i + k]) for i in range(0, len(cells), k)]
        ),
        "full_estimate": get_prediction(cells),
        "oracle_calls": len(positions),
    }
