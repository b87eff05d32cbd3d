"""The six evaluation streams, calibrated to the paper's Table 2.

Each stream is 500k records (T = 5 tumbling-window segments of 100k at
full scale; tests shrink both) carrying the per-record triple the
algorithms consume:

- ``statistic`` — the oracle statistic ``f(x)`` (car/boat count scaled by
  1/10 so segment means and RMSEs sit in the paper's 0.x / 0.0x ranges;
  tweet sentiment in (0, 1) for customer-support),
- ``pred``      — the oracle predicate ``O(x)`` (``statistic > 0`` for the
  video-style streams; an independent is-customer flag for the text one),
- ``proxy``     — bounded [0, 1] proxy score built with the paper's own
  Section 5.5 interpolation ``beta * g + (1 - beta) * U(0,1)``, with
  ``beta`` bisected so the Pearson correlation to the ground-truth
  statistic hits Table 2's published value.

Temporal structure mirrors what the paper attributes its streams'
behaviour to (Section 5.2: "proxy scores that are nearby in time have
similar values, which results in smaller sigma_tk"):

- every latent is a mix of a *slow* AR(1) (timescale ~n/2.5 — drifts
  across segments: rush hour vs. night) and a *fast* AR(1) (~n/24 —
  local texture), so per-segment ``p_tk`` and ``sigma_tk`` move between
  segments while staying locally coherent;
- the proxy additionally carries a slowly drifting multiplicative
  calibration gain (lighting / scene change): the proxy→statistic
  mapping is locally consistent but globally inconsistent, which is
  exactly what makes ``sigma_tk < sigma_k`` — per-segment strata are
  tight where global strata mix calibration regimes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ar1 import ar1

__all__ = [
    "StreamSpec",
    "StreamData",
    "SPECS",
    "DATASET_NAMES",
    "generate",
    "calibrate_beta",
    "interpolated_proxy",
    "segment_truths",
]


@dataclass(frozen=True)
class StreamSpec:
    """Published Table 2 targets plus generator shape parameters."""

    name: str
    p: float  # predicate positivity rate
    r: float  # proxy-statistic Pearson correlation
    kind: str  # "count" (video-style) or "sentiment" (text-style)
    mean_rate: float = 4.0  # Poisson intensity scale for count streams
    seed: int = 0


SPECS: dict[str, StreamSpec] = {
    s.name: s
    for s in [
        StreamSpec("archie", p=0.50, r=0.92, kind="count", seed=11),
        StreamSpec("customer-support", p=0.56, r=0.79, kind="sentiment", seed=12),
        StreamSpec("grand-canal", p=0.60, r=0.91, kind="count", seed=13),
        StreamSpec("night-street", p=0.37, r=0.92, kind="count", seed=14),
        StreamSpec("rialto", p=0.89, r=0.91, kind="count", seed=15),
        StreamSpec("taipei", p=0.63, r=0.87, kind="count", seed=16),
    ]
}

DATASET_NAMES: tuple[str, ...] = tuple(SPECS)

#: Statistic scale for count streams: raw counts (0..~15 objects) divided
#: by 10 so segment means sit near the paper's 0.1-0.6 range.
_COUNT_SCALE = 10.0
#: Logistic scale on the positivity latent: larger => wider per-segment
#: swings of p_t (the non-stationarity the predicate queries stress).
_PRED_SCALE = 3.5
#: Amplitude of the slow multiplicative proxy-calibration drift.
_PROXY_DRIFT = 0.35
#: Fast-component weight in the slow/fast latent mix.
_FAST_WEIGHT = 0.5


@dataclass
class StreamData:
    """A materialised stream plus its tumbling-window geometry."""

    name: str
    statistic: np.ndarray
    pred: np.ndarray
    proxy: np.ndarray
    seg_len: int

    @property
    def n_records(self) -> int:
        return len(self.statistic)

    @property
    def n_segments(self) -> int:
        return -(-self.n_records // self.seg_len)


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))``, into ``out`` (which may be ``x``)."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _calibrate_offset(z: np.ndarray, target: float) -> float:
    """Bisect the offset ``c`` so ``mean(sigmoid(z + c)) == target``."""
    buf = np.empty_like(z)
    lo, hi = -60.0, 60.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break  # lo, hi adjacent floats: later steps keep the result
        np.add(z, mid, out=buf)
        if float(_sigmoid(buf, buf).mean()) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def calibrate_beta(
    g: np.ndarray,
    gain: np.ndarray,
    u: np.ndarray,
    r: float,
    *,
    target: np.ndarray | None = None,
) -> float:
    """Bisect ``beta`` so ``corr(beta*g*gain + (1-beta)*u, target)`` hits ``r``.

    ``gain`` is the proxy's calibration drift (``1``: none, the plain
    :func:`interpolated_proxy`); ``target`` defaults to ``g`` (the
    correlation is measured against the signal the proxy is built from)
    and clamps at ``beta = 1`` when even the noiseless drifting proxy
    cannot reach the target correlation.
    """
    g = np.asarray(g, dtype=np.float64)
    # Row 0 holds each candidate proxy, row 1 the target: np.corrcoef of
    # the stack is np.corrcoef(raw, target) without restacking them.
    xy = np.empty((2, len(g)))
    xy[1] = g if target is None else target
    raw, noise = xy[0], np.empty(len(g))

    def corr(beta: float) -> float:
        np.multiply(beta, g, out=raw)
        np.multiply(raw, gain, out=raw)
        np.multiply(1.0 - beta, u, out=noise)
        np.add(raw, noise, out=raw)
        return float(np.corrcoef(xy)[0, 1])

    if corr(1.0) <= r:
        return 1.0
    lo, hi = 1e-3, 1.0
    for _ in range(50):
        mid = (lo + hi) / 2.0
        if corr(mid) < r:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def interpolated_proxy(
    rng: np.random.Generator, g: np.ndarray, beta: float
) -> np.ndarray:
    """Section 5.5's proxy: ``beta*g + (1-beta)*U(0,1)``, min-max [0,1]."""
    raw = beta * np.asarray(g, dtype=np.float64) + (1.0 - beta) * rng.random(len(g))
    span = raw.max() - raw.min()
    if span <= 0:
        return np.zeros_like(raw)
    return (raw - raw.min()) / span


def _latent_mix(
    n: int, *, seed_slow: list, seed_fast: list, slow_tau_const: float = 2.5
) -> np.ndarray:
    """Unit-variance mix of slow (tau~n/const) and fast (tau~n/24) AR(1)s."""
    mix = ar1(n, float(np.exp(-slow_tau_const / n)), seed=seed_slow)
    fast = ar1(n, float(np.exp(-24.0 / n)), seed=seed_fast)
    fast *= _FAST_WEIGHT
    mix += fast
    del fast
    mix /= np.sqrt(1.0 + _FAST_WEIGHT**2)
    return mix


def generate(
    name: str,
    *,
    n_records: int = 500_000,
    seg_len: int = 100_000,
    seed: int = 0,
) -> StreamData:
    """Materialise one named stream deterministically in ``(name, seed)``.

    Every full-length intermediate is built in place and dropped after
    its last use (DESIGN.md §2 lists the steps); the arithmetic and the
    random draws are the same, in the same order, as the plain
    expressions in the comments, so the bits are too.
    """
    spec = SPECS[name]
    rng = np.random.default_rng([spec.seed, seed])
    n = n_records

    # Predicate process: slow+fast latent -> time-varying Bernoulli rate
    # whose empirical mean is bisected onto the Table 2 target p.  The
    # positivity drift is slower (tau ~ n) than the magnitude/proxy
    # drift: real predicates (a car is present) change regime over hours
    # while magnitudes and proxy calibration wander faster.
    # pred = U(0,1) < sigmoid(_PRED_SCALE * z + c)
    z = _latent_mix(
        n,
        seed_slow=[spec.seed, seed, 1],
        seed_fast=[spec.seed, seed, 2],
        slow_tau_const=1.0,
    )
    z *= _PRED_SCALE
    z += _calibrate_offset(z, spec.p)
    pred = rng.random(n) < _sigmoid(z, z)
    del z

    y = _latent_mix(n, seed_slow=[spec.seed, seed, 3], seed_fast=[spec.seed, seed, 4])
    if spec.kind == "count":
        # Object count: 1 + Poisson with AR(1)-modulated intensity, masked
        # by the predicate (count == 0 <=> predicate false).
        # statistic = where(pred, (1 + Poisson(rate * log1p(exp(y)))) / 10, 0)
        np.exp(y, out=y)
        np.log1p(y, out=y)
        y *= spec.mean_rate
        counts = rng.poisson(y)
        statistic = np.add(counts, 1.0, out=y)
        del counts, y
        statistic /= _COUNT_SCALE
        np.copyto(statistic, 0.0, where=~pred)
        pred = statistic > 0
    elif spec.kind == "sentiment":
        # Sentiment in (0, 1); the is-customer predicate is the separate
        # Bernoulli process above.
        y *= 1.2
        statistic = _sigmoid(y, y)
        del y
    else:  # pragma: no cover - specs are a closed set
        raise ValueError(f"unknown stream kind {spec.kind!r}")

    # Proxy: Section 5.5 interpolation of the ground-truth signal under a
    # slow calibration-gain drift, with beta bisected onto Table 2's
    # correlation target (measured, as calibrated, against the
    # predicate-masked statistic).  For the count streams the masked
    # statistic IS the statistic; for the text stream the proxy
    # (fasttext "mentions candidate positively") carries both the
    # predicate and the sentiment, so its base signal keeps a sentiment
    # component on non-matching tweets too.
    # masked01 = masked / max(masked), masked = statistic * pred;
    # g01 likewise of base (= masked for the count streams).
    masked01 = _scale_to_max(statistic * pred)
    if spec.kind == "sentiment":
        g01 = 0.5 * pred
        g01 += 0.5
        g01 *= statistic
        g01 = _scale_to_max(g01)
    else:
        g01 = masked01
    drift_rho = float(np.exp(-2.5 / n))
    drift_seed = [spec.seed, seed, 5]
    # gain = exp(_PROXY_DRIFT * drift_latent)
    gain = ar1(n, drift_rho, seed=drift_seed)
    gain *= _PROXY_DRIFT
    np.exp(gain, out=gain)
    u = np.random.default_rng([spec.seed, seed, 6]).random(n)
    beta = calibrate_beta(g01, gain, u, spec.r, target=masked01)
    if beta >= 1.0:
        # Even the noiseless drifting proxy misses the correlation target
        # for this realisation: shrink the calibration drift until the
        # target is reachable, then keep beta = 1 (no additive noise).
        drift_latent = ar1(n, drift_rho, seed=drift_seed)
        lo, hi = 0.0, _PROXY_DRIFT
        for _ in range(40):
            mid = (lo + hi) / 2.0
            # corr(g01 * exp(mid * drift_latent), masked01)
            np.multiply(mid, drift_latent, out=gain)
            np.exp(gain, out=gain)
            gain *= g01
            if float(np.corrcoef(gain, masked01)[0, 1]) < spec.r:
                hi = mid
            else:
                lo = mid
        np.multiply(lo, drift_latent, out=gain)
        del drift_latent
        np.exp(gain, out=gain)
        beta = calibrate_beta(g01, gain, u, spec.r, target=masked01)
    # proxy = min-max normalised beta * g01 * gain + (1 - beta) * u
    proxy = np.multiply(beta, g01)
    del g01, masked01
    proxy *= gain
    del gain
    u *= 1.0 - beta
    proxy += u
    del u
    lo, hi = proxy.min(), proxy.max()
    proxy -= lo
    proxy /= hi - lo
    return StreamData(
        name=name,
        statistic=statistic.astype(np.float64, copy=False),
        pred=pred.astype(bool, copy=False),
        proxy=proxy,
        seg_len=seg_len,
    )


def _scale_to_max(x: np.ndarray) -> np.ndarray:
    """``x / x.max()`` in place, or ``x`` unchanged if its max is not > 0."""
    top = x.max()
    if top > 0:
        x /= top
    return x


def segment_truths(stream: StreamData, *, predicate: bool) -> np.ndarray:
    """Ground-truth per-segment means the RMSE metric scores against.

    Predicate mode: mean statistic over predicate-matching records of the
    segment (0 if none match); no-predicate mode: mean over all records.
    """
    out = []
    for t in range(stream.n_segments):
        sl = slice(t * stream.seg_len, min((t + 1) * stream.seg_len, stream.n_records))
        f, m = stream.statistic[sl], stream.pred[sl]
        if predicate:
            out.append(float(f[m].mean()) if m.any() else 0.0)
        else:
            out.append(float(f.mean()))
    return np.asarray(out)
