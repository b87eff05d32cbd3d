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

from .estimator import StratumSample, get_prediction, segment_estimate
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
    f = np.asarray(f, dtype=np.float64)
    pred = np.asarray(pred, dtype=bool)
    rng = np.random.default_rng([seed, 0])
    size = max(0, min(total_budget, len(f)))
    positions = rng.choice(len(f), size=size, replace=False)
    slices = segment_slices(len(f), seg_len)
    cells = []
    for sl in slices:
        in_seg = positions[(positions >= sl.start) & (positions < sl.stop)]
        cells.append(
            StratumSample(f=f[in_seg], pred=pred[in_seg], d_size=sl.stop - sl.start)
        )
    return {
        # One cell per segment, so segment_estimate degenerates to the
        # plain mean over that segment's predicate-matching samples.
        "seg_estimates": np.array([segment_estimate([c]) for c in cells]),
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
    f = np.asarray(f, dtype=np.float64)
    pred = np.asarray(pred, dtype=bool)
    slices = segment_slices(len(f), seg_len)
    if plan is None:
        plan = fixed_stratified_plan(proxy, seg_len=seg_len, k=k)
    n_per_segment = max(1, total_budget // len(slices))
    # Fixed even split; remainder goes to the first strata so the full
    # per-segment budget is spent.
    per_stratum = np.full(k, n_per_segment // k, dtype=np.int64)
    per_stratum[: n_per_segment % k] += 1

    seg_estimates, cells, oracle_calls = [], [], 0
    for t, (sl, strata) in enumerate(zip(slices, plan, strict=True), start=1):
        rng = np.random.default_rng([seed, t])
        idx, sample_strata = draw_stratified(rng, strata.members, per_stratum)
        f_t, pred_t = f[sl][idx], pred[sl][idx]
        cells_t = [
            StratumSample(
                f=f_t[sample_strata == k_],
                pred=pred_t[sample_strata == k_],
                d_size=int(size),
            )
            for k_, size in enumerate(strata.sizes)
        ]
        oracle_calls += len(idx)
        seg_estimates.append(segment_estimate(cells_t))
        cells.extend(cells_t)
    return {
        "seg_estimates": np.asarray(seg_estimates),
        "full_estimate": get_prediction(cells),
        "oracle_calls": oracle_calls,
    }
