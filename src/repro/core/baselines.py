"""The uniform-sampling baseline of Section 5.1.

It consumes the same stream representation as InQuest and returns
:func:`~repro.core.estimator.trial_result` of its cells, so the trial
runner treats all algorithms uniformly.  The paper precomputes ``N``
uniformly random record positions between query submission and the end
of the ``DURATION`` and calls the oracle on exactly those records;
estimates average the statistic over (predicate-matching) samples.

Section 5.1's other baseline, fixed-strata stratified sampling, is
InQuest's state machine with its adaptive parts off: an
:class:`~repro.core.inquest.InQuestConfig` (``ALGORITHMS["stratified"]``
in ``repro.sparkops.trials``).
"""
from __future__ import annotations

import numpy as np

from .estimator import cell_stats, trial_result
from .inquest import segment_slices

__all__ = ["uniform_trial"]


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
