"""Section 5.6's adversarial streams with sudden parameter shifts.

Construction, following the paper: choose ``n_shifts`` indices uniformly
at random; draw initial per-substream parameters ``p_k in [0, 1]``,
``sigma_k in [0, 3]``, ``(mu_1, mu_2, mu_3) in ([0,3], [3,6], [6,9])``;
emit the stream by interleaving the K = 3 substreams (round-robin),
where substream ``k`` contributes records with statistic
``Bernoulli(p_k) * N(mu_k, sigma_k)``; at every shift index resample all
parameters.  Proxies use the Section 5.5 interpolation with
``beta = 0.75``.
"""
from __future__ import annotations

import numpy as np

from .streams import StreamData, interpolated_proxy

__all__ = ["generate_adversarial"]

_K = 3
_MU_RANGES = ((0.0, 3.0), (3.0, 6.0), (6.0, 9.0))


def _draw_params(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = rng.uniform(0.0, 1.0, _K)
    sigma = rng.uniform(0.0, 3.0, _K)
    mu = np.array([rng.uniform(lo, hi) for lo, hi in _MU_RANGES])
    return p, sigma, mu


def generate_adversarial(
    *,
    n_shifts: int,
    n_records: int = 500_000,
    seg_len: int = 100_000,
    seed: int = 0,
    beta: float = 0.75,
) -> StreamData:
    """One adversarial stream with ``n_shifts`` sudden parameter shifts."""
    if n_shifts < 0:
        raise ValueError(f"n_shifts must be non-negative, got {n_shifts}")
    rng = np.random.default_rng([97, n_shifts, seed])
    shift_at = np.sort(rng.integers(1, n_records, size=n_shifts))

    substream = np.arange(n_records) % _K  # round-robin interleave
    # Regime id for every record: 0 before the first shift, etc.
    regime = np.searchsorted(shift_at, np.arange(n_records), side="right")
    statistic = np.empty(n_records, dtype=np.float64)
    pred = np.empty(n_records, dtype=bool)
    for reg in range(n_shifts + 1):
        p, sigma, mu = _draw_params(rng)
        for k in range(_K):
            mask = (regime == reg) & (substream == k)
            m = int(mask.sum())
            if m == 0:
                continue
            match = rng.random(m) < p[k]
            value = rng.normal(mu[k], sigma[k], m)
            statistic[mask] = np.where(match, value, 0.0)
            pred[mask] = match

    peak = np.abs(statistic).max()
    g01 = statistic / peak if peak > 0 else statistic
    proxy = interpolated_proxy(np.random.default_rng([98, n_shifts, seed]), g01, beta)
    return StreamData(
        name=f"adversarial-n{n_shifts}-s{seed}",
        statistic=statistic,
        pred=pred,
        proxy=proxy,
        seg_len=seg_len,
    )

