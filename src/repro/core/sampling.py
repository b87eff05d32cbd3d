"""Sampling primitives used by InQuest and the baselines.

The paper draws samples from each (segment, stratum) with *reservoir
sampling* so the oracle is applied uniformly in time without knowing the
stratum's size in advance.  For a fully materialised stratum the output
law of reservoir sampling is exactly a uniform draw without replacement,
so the kernels and the streaming state machine draw uniformly without
replacement; a true one-pass reservoir (:func:`reservoir_sample`) is
only the reference of the distribution-equality test.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "uniform_without_replacement",
    "draw_stratified",
    "reservoir_sample",
    "largest_remainder_round",
    "cap_and_redistribute",
]


def uniform_without_replacement(
    rng: np.random.Generator, population: np.ndarray, size: int
) -> np.ndarray:
    """Draw ``min(size, len(population))`` elements uniformly w/o replacement.

    Distributionally identical to the output of reservoir sampling over a
    stream consisting of ``population``'s elements.  Returns a copy.
    """
    size = int(min(size, len(population)))
    if size <= 0:
        return population[:0].copy()
    return rng.choice(population, size=size, replace=False)


def draw_stratified(
    rng: np.random.Generator, members: Sequence[np.ndarray], budgets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``budgets[k]`` of ``members[k]`` for each stratum ``k`` in turn.

    Each stratum's draw is :func:`uniform_without_replacement`, so its
    cost grows with the budget, not with the stratum.  Returns the drawn
    elements (stratum 0's first) and the stratum of each.
    """
    parts = [uniform_without_replacement(rng, m, b) for m, b in zip(members, budgets)]
    idx = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return idx, np.repeat(np.arange(len(parts)), [len(p) for p in parts])


def reservoir_sample(
    rng: np.random.Generator, stream: np.ndarray, capacity: int
) -> np.ndarray:
    """One-pass reservoir sampling (Algorithm R) over ``stream``.

    Keeps a uniform without-replacement sample of up to ``capacity``
    elements while observing each element exactly once — the property the
    paper relies on to apply the oracle uniformly in time on a live
    stream whose per-stratum record count is unknown a priori.
    """
    capacity = int(capacity)
    if capacity <= 0:
        return stream[:0].copy()
    reservoir = stream[:capacity].copy()
    n_seen = len(reservoir)
    for x in stream[capacity:]:
        n_seen += 1
        j = rng.integers(0, n_seen)
        if j < capacity:
            reservoir[j] = x
    return reservoir


def largest_remainder_round(fractions: np.ndarray, total: int) -> np.ndarray:
    """Integerise ``fractions * total`` so the result sums to ``total``.

    Largest-remainder (Hamilton) rounding: floor everything, then hand the
    leftover units to the entries with the largest fractional parts.  Used
    to turn InQuest's allocation fractions into per-stratum oracle budgets
    without losing or inventing oracle invocations.
    """
    total = int(total)
    fractions = np.asarray(fractions, dtype=np.float64)
    if total <= 0 or fractions.sum() <= 0:
        return np.zeros(len(fractions), dtype=np.int64)
    raw = fractions / fractions.sum() * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def cap_and_redistribute(budgets: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Cap per-stratum budgets at stratum sizes, recycling the excess.

    If an allocation assigns more samples to a stratum than it has
    records, the surplus is re-spread over the unsaturated strata in
    proportion to their remaining headroom, so the total oracle budget is
    preserved whenever the stream can absorb it.
    """
    budgets = np.asarray(budgets, dtype=np.int64).copy()
    capacities = np.asarray(capacities, dtype=np.int64)
    for _ in range(len(budgets)):
        over = np.maximum(budgets - capacities, 0)
        surplus = int(over.sum())
        if surplus == 0:
            break
        budgets = np.minimum(budgets, capacities)
        headroom = capacities - budgets
        if headroom.sum() == 0:
            break
        budgets += largest_remainder_round(
            headroom.astype(np.float64), min(surplus, int(headroom.sum()))
        )
    return np.minimum(budgets, capacities)
