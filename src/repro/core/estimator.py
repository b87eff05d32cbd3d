"""Query estimators over per-cell sufficient statistics.

A *cell* is one (segment, stratum) of a kernel's sample, or one segment
for the uniform baseline.  ``GetPrediction`` and ``GetAlloc`` (Algorithm 2)
read five numbers per cell, so :func:`cell_stats` reduces the drawn
samples to a :class:`CellStats` of them and no oracle output is kept.
"""
from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "CellStats",
    "cell_stats",
    "get_prediction",
    "confidence_interval",
    "trial_result",
]


@dataclass(frozen=True)
class CellStats:
    """Sufficient statistics of sampled cells; one array entry per cell."""

    n: np.ndarray  # samples drawn
    n_pos: np.ndarray  # predicate-matching samples
    sum_f: np.ndarray  # sum of the statistic over the matches
    sum_f2: np.ndarray  # sum of its square over the matches
    d_size: np.ndarray  # stream records in the cell (the proxy scores all)

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, key: slice) -> CellStats:
        return CellStats(*(col[key] for col in vars(self).values()))

    @staticmethod
    def concat(parts: list[CellStats]) -> CellStats:
        """The cells of ``parts``, in order."""
        return CellStats(*map(np.concatenate, zip(*(vars(p).values() for p in parts))))

    @property
    def p_hat(self) -> np.ndarray:
        """Predicate positive rate estimate; 0 when the cell is unsampled."""
        return self.n_pos / np.maximum(self.n, 1)

    @property
    def mu_hat(self) -> np.ndarray:
        """Mean statistic over predicate-matching samples; 0 (``sum_f``) when none."""
        return self.sum_f / np.maximum(self.n_pos, 1)

    @property
    def sigma_hat(self) -> np.ndarray:
        """Sample std over predicate-matching samples; 0 when fewer than 2."""
        ss = np.maximum(self.sum_f2 - self.n_pos * self.mu_hat**2, 0.0)
        return np.sqrt(np.where(self.n_pos > 1, ss / np.maximum(self.n_pos - 1, 1), 0.0))


def cell_stats(
    f: np.ndarray, pred: np.ndarray, labels: np.ndarray, d_size: np.ndarray
) -> CellStats:
    """Reduce drawn samples to the statistics of ``len(d_size)`` cells.

    ``f``/``pred`` are the oracle outputs of the drawn records in draw
    order, ``labels[i]`` is the cell of draw ``i`` and ``d_size[c]`` the
    population of cell ``c``.
    """
    f = np.asarray(f, dtype=np.float64)
    pred = np.asarray(pred, dtype=bool)
    labels = np.asarray(labels, dtype=np.intp)
    d_size = np.asarray(d_size, dtype=np.int64)
    pos_labels = labels[pred]
    n_pos = np.bincount(pos_labels, minlength=len(d_size))
    # Each cell's matches as one contiguous run in draw order, summed by
    # numpy's pairwise ``sum``: the same bits as ``f[pred].sum()`` over the
    # cell's draws (bincount and add.reduceat sum sequentially and differ).
    # The smallest unsigned label type lets the stable sort be a radix sort.
    small = np.min_scalar_type(len(d_size))
    matched = f[pred][np.argsort(pos_labels.astype(small), kind="stable")]
    squared = matched**2
    ends = np.cumsum(n_pos).tolist()
    runs = [slice(a, b) for a, b in zip([0, *ends], ends)]
    return CellStats(
        n=np.bincount(labels, minlength=len(d_size)),
        n_pos=n_pos,
        sum_f=np.array([matched[run].sum() for run in runs], dtype=np.float64),
        sum_f2=np.array([squared[run].sum() for run in runs], dtype=np.float64),
        d_size=d_size,
    )


def get_prediction(cells: CellStats) -> float:
    """``GetPrediction`` (Algorithm 2): the estimate over ``cells``.

    ``mu_hat = sum_c mu_hat_c p_hat_c |D_c| / sum_j p_hat_j |D_j|`` over
    every cell given: all cells sampled so far for the full query, one
    segment's cells for that segment's estimate (the estimator the paper's
    segment-RMSE metric scores).  Returns 0 when no predicate-matching
    sample was drawn in any cell (no information).
    """
    weights = cells.p_hat * cells.d_size
    total = weights.sum()
    if total <= 0:
        return 0.0
    return float((weights / total) @ cells.mu_hat)


def confidence_interval(
    cells: CellStats, *, confidence: float = 0.95
) -> tuple[float, float]:
    """Normal-approximation interval for ``get_prediction(cells)``.

    ``get_prediction`` is the ratio estimator ``mu_hat = sum_c w_c Σf_c / X``
    with ``w_c = |D_c| / n_c`` and ``X = sum_c w_c n_pos_c``.  Linearised,
    its variance is ``sum_c |D_c|^2 s_c^2 / n_c / X^2``, where ``s_c^2`` is
    the within-cell sample variance of ``z = pred (f - mu_hat)``, computed
    from the cell's sufficient statistics; cells with ``n <= 1`` contribute
    0.  Without a predicate match in any cell the estimate carries no
    information and the interval is ``(nan, nan)``.
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    x = float((cells.p_hat * cells.d_size).sum())
    if x <= 0:
        return (float("nan"), float("nan"))
    mu = get_prediction(cells)
    n = np.maximum(cells.n, 1)
    sum_z = cells.sum_f - cells.n_pos * mu
    sum_z2 = cells.sum_f2 - 2.0 * mu * cells.sum_f + cells.n_pos * mu**2
    ss = np.maximum(sum_z2 - sum_z**2 / n, 0.0)
    s2 = np.where(cells.n > 1, ss / np.maximum(cells.n - 1, 1), 0.0)
    var = float((cells.d_size.astype(np.float64) ** 2 * s2 / n).sum()) / x**2
    half = NormalDist().inv_cdf(0.5 + confidence / 2) * float(np.sqrt(var))
    return (mu - half, mu + half)


def trial_result(cells: CellStats, k: int, full: CellStats | None = None) -> dict:
    """Every kernel's result, from its segment-major cells, ``k`` per segment.

    The full query reads ``full`` (ABae's global strata), or all of
    ``cells`` when not given; its spend and interval read ``"cells"``.
    """
    full = cells if full is None else full
    return {
        "seg_estimates": np.array(
            [get_prediction(cells[i : i + k]) for i in range(0, len(cells), k)]
        ),
        "full_estimate": get_prediction(full),
        "oracle_calls": int(full.n.sum()),
        "cells": full,
    }
