"""The two streaming baselines of Section 5.1.

Both baselines consume the same stream representation as InQuest and
return :func:`~repro.core.estimator.trial_result` of their cells, so the
trial runner treats all algorithms uniformly.

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

from .estimator import cell_stats, trial_result
from .inquest import inquest_plan, segment_slices
from .sampling import draw_stratified, largest_remainder_round
from .stratify import SegmentStrata

__all__ = ["uniform_trial", "fixed_stratified_trial"]


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
    sizes = [sl.stop - sl.start for sl in segment_slices(len(f), seg_len)]
    rng = np.random.default_rng([seed, 0])
    size = max(0, min(total_budget, len(f)))
    positions = rng.choice(len(f), size=size, replace=False)
    # One cell per segment, so a segment's estimate is the plain mean over
    # its predicate-matching samples.
    return trial_result(
        cell_stats(f[positions], pred[positions], positions // seg_len, sizes), 1
    )


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

    ``plan`` is the same stream's :func:`~repro.core.inquest.inquest_plan`
    without dynamic strata (Figure 7's fixed-strata lesion splits every
    segment at the same boundaries), built here when not given.
    """
    slices = segment_slices(len(f), seg_len)
    if plan is None:
        plan = inquest_plan(proxy, seg_len=seg_len, k=k, dynamic_strata=False)
    n_per_segment = max(1, total_budget // len(slices))
    per_stratum = largest_remainder_round(np.ones(k), n_per_segment)

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
    return trial_result(cells, k)
