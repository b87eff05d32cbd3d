"""Sample-budget allocation across strata.

Implements Proposition 1's optimal allocation with perfect information,
the sample-based estimate used by ``GetAlloc`` (Algorithm 2), and the
defensive mixing of ``N1/K`` guaranteed samples per stratum with the
``N2``-weighted dynamic allocation.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "optimal_allocation",
    "optimal_expected_mse",
    "estimated_allocation",
    "mix_defensive",
]


def optimal_allocation(
    d_sizes: np.ndarray,
    p: np.ndarray,
    sigma: np.ndarray,
    *,
    n1: float,
    n2: float,
    k: int,
) -> np.ndarray:
    """Proposition 1: the fraction of ``N2`` to allocate per stratum.

    ``a*_tk = |D_tk| sqrt(p_tk) sigma_tk / ((N2/N) * sum_j |D_tj|
    sqrt(p_tj) sigma_tj) - N1 / (N2 K)``.  The result sums to 1 and can
    be negative when the defensive floor already over-serves a stratum.
    """
    d_sizes = np.asarray(d_sizes, dtype=np.float64)
    w = d_sizes * np.sqrt(np.asarray(p, dtype=np.float64)) * np.asarray(
        sigma, dtype=np.float64
    )
    n = n1 + n2
    if w.sum() <= 0:
        raise ValueError("optimal allocation undefined: all strata have zero weight")
    return w / ((n2 / n) * w.sum()) - n1 / (n2 * k)


def optimal_expected_mse(
    d_sizes: np.ndarray,
    p: np.ndarray,
    sigma: np.ndarray,
    *,
    n1: float,
    n2: float,
) -> float:
    """Proposition 2: expected MSE of the estimator under ``a*``.

    Evaluated in the closed form ``(1 / (N p_all^2)) * (sum_k |D_tk|
    sqrt(p_tk) sigma_tk)^2`` with ``p_all = sum_j |D_tj| p_tj``.
    """
    d_sizes = np.asarray(d_sizes, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    n = n1 + n2
    p_all = float((d_sizes * p).sum())
    if p_all <= 0:
        raise ValueError("expected MSE undefined: no stratum has positive rate")
    s = float((d_sizes * np.sqrt(p) * sigma).sum())
    return s * s / (n * p_all * p_all)


def estimated_allocation(
    d_sizes: np.ndarray, p_hat: np.ndarray, sigma_hat: np.ndarray
) -> np.ndarray | None:
    """Allocation estimate ``a_{t-1,k}`` from previous-segment samples.

    ``w_hat_k = sqrt(p_hat_k) |D_k| / |D|``; ``a_k = w_hat_k sigma_hat_k /
    sum_j w_hat_j sigma_hat_j`` (GetAlloc lines 11-13).  Returns ``None``
    when every stratum has zero weight (no matching samples anywhere, or
    all sample stds are 0) — the caller then keeps its previous EWMA
    state rather than folding in an uninformative observation.
    """
    d_sizes = np.asarray(d_sizes, dtype=np.float64)
    if d_sizes.sum() <= 0:
        return None
    w_hat = np.sqrt(np.asarray(p_hat, dtype=np.float64)) * d_sizes / d_sizes.sum()
    weight = w_hat * np.asarray(sigma_hat, dtype=np.float64)
    total = weight.sum()
    if total <= 0:
        return None
    return weight / total


def mix_defensive(alloc: np.ndarray, *, n1: float, n2: float, k: int) -> np.ndarray:
    """Final per-stratum budget fractions ``(N1/K + N2 a_k) / N``.

    Guarantees every stratum at least the defensive floor ``N1/(K N)``
    regardless of how extreme the dynamic allocation is; sums to 1.
    """
    n = n1 + n2
    return (n1 / k + n2 * np.asarray(alloc, dtype=np.float64)) / n
