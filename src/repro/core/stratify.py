"""Stratification by proxy score and the EWMA used to smooth it.

``GetStrata`` (Algorithm 2) stratifies the *previous* segment's proxy
scores by quantile so that 1/K of its records fall in each stratum, then
smooths the boundary history with an exponentially weighted moving
average whose aggressiveness is the paper's ``alpha`` (default 0.8).

The paper's theory sections set ``alpha = 0`` and describe the result as
the *unweighted history*, so our EWMA is parameterised to interpolate
between a plain running mean (``alpha = 0``) and last-segment-only
(``alpha = 1``): the weight on the segment ``j`` observation is
proportional to ``(1 - alpha) ** (age of j)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "quantile_boundaries",
    "assign_strata",
    "FIXED_BOUNDARIES",
    "fixed_boundaries",
    "SegmentStrata",
    "stratify",
    "Ewma",
]

#: The fixed stratification used by the stratified-sampling baseline
#: (Section 5.1): k1=[0,0.33], k2=[0.33,0.67], k3=[0.67,1.0].
FIXED_BOUNDARIES = np.array([1 / 3, 2 / 3])


def fixed_boundaries(k: int) -> np.ndarray:
    """Proxy-independent boundaries splitting ``[0, 1]`` into ``k`` strata."""
    return FIXED_BOUNDARIES if k == 3 else np.arange(1, k, dtype=np.float64) / k


def quantile_boundaries(proxy: np.ndarray, k: int) -> np.ndarray:
    """Interior boundaries (length ``k - 1``) of proxy-quantile strata.

    Splitting at these boundaries puts ~1/k of ``proxy``'s records in
    each stratum (``StratifyByQuantile`` in Algorithm 2).
    """
    if k < 1:
        raise ValueError(f"need k >= 1 strata, got {k}")
    qs = np.arange(1, k) / k
    return np.quantile(np.asarray(proxy, dtype=np.float64), qs)


def assign_strata(proxy: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Map each proxy score to its stratum id in ``[0, len(boundaries)]``.

    Boundary ownership: stratum ``k`` is ``(b_{k-1}, b_k]`` except the
    lowest, which is closed below — ``searchsorted(side='left')`` — so
    ties at a quantile boundary fall in the lower stratum.
    """
    return np.searchsorted(np.asarray(boundaries), np.asarray(proxy), side="left")


@dataclass(frozen=True)
class SegmentStrata:
    """One segment's strata: boundaries and each stratum's member positions.

    ``members[k]`` holds, in ascending order, the positions (within the
    segment) of the records whose proxy falls in stratum ``k``.  Nothing
    here depends on which records a trial samples, so it is computed once
    and shared by every trial over the same stream.
    """

    boundaries: np.ndarray
    members: tuple[np.ndarray, ...]

    @property
    def sizes(self) -> np.ndarray:
        """``|D_k|`` per stratum."""
        return np.array([len(m) for m in self.members], dtype=np.int64)


def stratify(proxy: np.ndarray, boundaries: np.ndarray) -> SegmentStrata:
    """Split ``proxy``'s positions into the strata ``boundaries`` define."""
    boundaries = np.array(boundaries, dtype=np.float64)
    strata = assign_strata(proxy, boundaries)
    return SegmentStrata(
        boundaries,
        tuple(np.flatnonzero(strata == k) for k in range(len(boundaries) + 1)),
    )


@dataclass
class Ewma:
    """Running EWMA over a sequence of (possibly vector) observations.

    ``value`` after observations ``s_1 .. s_m`` is
    ``sum_j lam**(m-j) * s_j / sum_j lam**(m-j)`` with ``lam = 1 - alpha``:
    a plain mean when ``alpha = 0`` (the theory sections' assumption) and
    the latest observation when ``alpha = 1`` (fully adaptive).
    """

    alpha: float
    _num: np.ndarray | float | None = field(default=None, init=False)
    _den: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    def update(self, obs: np.ndarray | float) -> None:
        obs = np.asarray(obs, dtype=np.float64)
        lam = 1.0 - self.alpha
        if self._num is None:
            self._num, self._den = obs.copy(), 1.0
        else:
            self._num = obs + lam * self._num
            self._den = 1.0 + lam * self._den

    @property
    def value(self) -> np.ndarray | float:
        if self._num is None:
            raise ValueError("EWMA has no observations yet")
        return self._num / self._den
