"""Spark-distributed Monte Carlo over (dataset, algorithm, budget, trial).

The per-trial kernels are sequential (reservoir sampling with state
carried across segments) so they run as numpy inside Spark tasks:
``run_trials`` broadcasts the materialised streams once, fans the trial
grid out with ``applyInPandas`` — one group per (dataset, algorithm) cell,
which builds the algorithm's seed-independent plan once and runs every
trial of the cell from it — and returns a long-format DataFrame of
per-segment (and full-query) estimates next to their ground truths,
ready for the Spark SQL metric aggregations in ``repro.sparkops.metrics``.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.abae import abae_plan, abae_trial
from repro.core.baselines import (
    fixed_stratified_plan,
    fixed_stratified_trial,
    uniform_trial,
)
from repro.core.inquest import inquest_plan, inquest_trial
from repro.datasets.streams import StreamData, segment_truths

__all__ = ["ALGORITHMS", "Algorithm", "RESULT_SCHEMA", "run_trials"]


@dataclasses.dataclass(frozen=True)
class Algorithm:
    """A trial kernel, the builder of its seed-independent plan, and its knobs.

    ``plan(proxy, seg_len=..., **knobs)`` builds what every trial over one
    stream shares (``None``: nothing to share); the kernel accepts it as
    ``plan=``.  ``knobs`` are the ``run_trials`` params it accepts besides
    ``seg_len``, which every algorithm accepts.  Calling an ``Algorithm``
    calls its kernel, which builds its own plan when given none.
    """

    kernel: Callable[..., dict]
    plan: Callable[..., Any] | None = None
    knobs: frozenset[str] = frozenset()

    def __call__(self, *args, **kwargs) -> dict:
        return self.kernel(*args, **kwargs)


def _inquest(*, dynamic_strata: bool = True, dynamic_alloc: bool = True) -> Algorithm:
    return Algorithm(
        functools.partial(
            inquest_trial, dynamic_strata=dynamic_strata, dynamic_alloc=dynamic_alloc
        ),
        functools.partial(inquest_plan, dynamic_strata=dynamic_strata),
        frozenset({"k", "alpha"}),
    )


#: Algorithm registry: evaluation methods plus the Figure 7 lesion
#: variants of InQuest.
ALGORITHMS = {
    "inquest": _inquest(),
    "uniform": Algorithm(uniform_trial),
    "stratified": Algorithm(fixed_stratified_trial, fixed_stratified_plan),
    "abae": Algorithm(abae_trial, abae_plan),
    "inquest_fixed_alloc": _inquest(dynamic_alloc=False),
    "inquest_fixed_strata": _inquest(dynamic_strata=False),
    "stratified_pilot": _inquest(dynamic_strata=False, dynamic_alloc=False),
}

RESULT_SCHEMA = (
    "dataset string, algo string, mode string, budget int, trial int, "
    "segment int, estimate double, truth double"
)


def _full_truth(stream: StreamData, *, predicate: bool) -> float:
    f, m = stream.statistic, stream.pred
    if predicate:
        return float(f[m].mean()) if m.any() else 0.0
    return float(f.mean())


def run_trials(
    spark: SparkSession,
    streams: dict[str, StreamData],
    *,
    algorithms: list[str],
    budgets: list[int],
    n_trials: int,
    modes: tuple[str, ...] = ("pred", "nopred"),
    params: dict | None = None,
    base_seed: int = 0,
) -> DataFrame:
    """Run the full trial grid on the cluster, one group per (dataset, algorithm).

    ``params`` are knobs forwarded to every algorithm that accepts them:
    ``seg_len`` re-slices every stream into segments of that length (its
    ground truths included); ``k`` and ``alpha`` reach the InQuest
    variants only (e.g. ``{"alpha": 0.5}`` for the sensitivity sweep).
    Each group builds its algorithm's plan for its stream once, inside the
    executor, and runs every (mode, budget, trial) of its cell from it.
    Output rows carry ``segment`` in ``[0, T)`` for per-segment estimates
    and ``segment = -1`` for the full-query estimate, each next to its
    ground truth.
    """
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")
    params = dict(params or {})
    seg_len = params.pop("seg_len", None)
    accepted = set().union(*(ALGORITHMS[a].knobs for a in algorithms))
    if set(params) - accepted:
        raise ValueError(
            f"params {sorted(set(params) - accepted)} are accepted by none of "
            f"{sorted(algorithms)}"
        )
    payload = {}
    for name, s in streams.items():
        if seg_len is not None:
            s = dataclasses.replace(s, seg_len=seg_len)
        payload[name] = {
            "statistic": s.statistic,
            "pred": s.pred,
            "proxy": s.proxy,
            "seg_len": s.seg_len,
            "truth": {
                mode: segment_truths(s, predicate=(mode == "pred")) for mode in modes
            },
            "full_truth": {
                mode: _full_truth(s, predicate=(mode == "pred")) for mode in modes
            },
        }
    bc = spark.sparkContext.broadcast(payload)

    grid = pd.DataFrame(
        list(itertools.product(streams, algorithms, modes, budgets, range(n_trials))),
        columns=["dataset", "algo", "mode", "budget", "trial"],
    )

    def run_task(pdf: pd.DataFrame) -> pd.DataFrame:
        dataset, algo = pdf["dataset"].iat[0], pdf["algo"].iat[0]
        d = bc.value[dataset]
        spec = ALGORITHMS[algo]
        kwargs = {"seg_len": d["seg_len"]}
        kwargs.update((k, v) for k, v in params.items() if k in spec.knobs)
        if spec.plan is not None:
            kwargs["plan"] = spec.plan(d["proxy"], **kwargs)
        preds = {"pred": d["pred"], "nopred": np.ones(len(d["pred"]), dtype=bool)}
        out: list[tuple] = []
        for mode, budget, trial in zip(pdf["mode"], pdf["budget"], pdf["trial"]):
            res = spec.kernel(
                d["statistic"],
                preds[mode],
                d["proxy"],
                total_budget=int(budget),
                seed=int(base_seed + trial),
                **kwargs,
            )
            key = (dataset, algo, mode, int(budget), int(trial))
            truth = d["truth"][mode]
            for t, (est, tru) in enumerate(
                zip(res["seg_estimates"], truth, strict=True)
            ):
                out.append((*key, t, float(est), float(tru)))
            out.append((*key, -1, float(res["full_estimate"]), d["full_truth"][mode]))
        return pd.DataFrame(
            out,
            columns=[
                "dataset",
                "algo",
                "mode",
                "budget",
                "trial",
                "segment",
                "estimate",
                "truth",
            ],
        )

    # At most one partition per core: each Spark task costs a Python
    # worker round trip, which outweighs a whole cell's trials once they
    # run from a plan.  Hash partitioning on the grouping keys satisfies
    # the groupBy, so Spark adds no second shuffle.
    n_cells = len(streams) * len(algorithms)
    n_partitions = min(n_cells, spark.sparkContext.defaultParallelism)
    return (
        spark.createDataFrame(grid)
        .repartition(n_partitions, "dataset", "algo")
        .groupBy("dataset", "algo")
        .applyInPandas(run_task, schema=RESULT_SCHEMA)
    )
