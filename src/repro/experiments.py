"""Shared experiment drivers behind ``jobs/`` and ``benchmarks/``.

Each function reproduces one piece of the paper's evaluation section at
a configurable scale (full scale = 500k records, budgets 500..5000,
matching the paper; tests and benchmarks shrink records/trials) and
returns plain pandas frames ready to print or dump to
``results/*.json``.
"""
from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.adversarial import generate_adversarial
from repro.datasets.streams import DATASET_NAMES, SPECS, StreamData, generate
from repro.sparkops.metrics import (
    full_query_rmse,
    geomean_across_datasets,
    median_segment_rmse,
    summary_table,
)
from repro.sparkops.stream_df import (
    DATASET_CODE,
    streams_to_spark,
    table2_grouped_df,
)
from repro.sparkops.trials import run_trials

__all__ = [
    "FULL_BUDGETS",
    "load_streams",
    "table2",
    "table34",
    "lesion",
    "adversarial_shifts",
    "dump_results",
    "print_table",
]

#: The paper's oracle-budget sweep: 500..5000 step 500.
FULL_BUDGETS = tuple(range(500, 5001, 500))


@functools.lru_cache(maxsize=4)
def _cached_streams(n_records: int, seg_len: int, seed: int) -> dict[str, StreamData]:
    return {
        name: generate(name, n_records=n_records, seg_len=seg_len, seed=seed)
        for name in DATASET_NAMES
    }


def load_streams(
    *, n_records: int = 500_000, seg_len: int = 100_000, seed: int = 0
) -> dict[str, StreamData]:
    """The six evaluation streams (cached per process)."""
    return _cached_streams(n_records, seg_len, seed)


def table2(spark: SparkSession, streams: dict[str, StreamData]) -> pd.DataFrame:
    """Table 2: per-dataset predicate positivity p and proxy Pearson r.

    Computed with one Spark SQL aggregate over all the streams, grouped
    by dataset; rows come back in ``streams`` order and also carry the
    paper's published targets for diffing.
    """
    stats = (
        table2_grouped_df(streams_to_spark(spark, streams))
        .toPandas()
        .set_index(DATASET_CODE)
        .reindex(range(len(streams)))
    )
    names = list(streams)
    return pd.DataFrame(
        {
            "dataset": names,
            "p_paper": [SPECS[n].p for n in names],
            "p": stats["p"].to_numpy(),
            "r_paper": [SPECS[n].r for n in names],
            "r": stats["r"].to_numpy(),
        }
    )


def table34(
    spark: SparkSession,
    streams: dict[str, StreamData],
    *,
    mode: str,
    budgets: tuple[int, ...] = FULL_BUDGETS,
    n_trials: int = 200,
    highlight_budgets: tuple[int, ...] = (500, 2500, 5000),
) -> dict[str, pd.DataFrame]:
    """Tables 3 (mode='nopred') / 4 (mode='pred') plus backing detail.

    Returns the rendered summary table, the per-dataset median-segment
    RMSEs, and the full-query RMSEs (the paper's Figure 6 metric, kept
    as a table for the appendix of EXPERIMENTS.md).
    """
    results = run_trials(
        spark,
        streams,
        algorithms=["uniform", "stratified", "abae", "inquest"],
        budgets=list(budgets),
        n_trials=n_trials,
        modes=(mode,),
    ).cache()
    geo = geomean_across_datasets(results).toPandas()
    summary = summary_table(geo, mode=mode, highlight_budgets=highlight_budgets)
    per_dataset = median_segment_rmse(results).toPandas()
    full_query = full_query_rmse(results).toPandas()
    results.unpersist()
    return {"summary": summary, "per_dataset": per_dataset, "full_query": full_query}


def lesion(
    spark: SparkSession,
    streams: dict[str, StreamData],
    *,
    budgets: tuple[int, ...] = (500, 2500, 5000),
    n_trials: int = 200,
) -> pd.DataFrame:
    """Figure 7's lesion study as a table (no-predicate queries).

    Variants: full InQuest, dynamic strata only, dynamic allocation
    only, and neither (stratified sampling with a pilot segment).
    """
    results = run_trials(
        spark,
        streams,
        algorithms=[
            "inquest",
            "inquest_fixed_alloc",
            "inquest_fixed_strata",
            "stratified_pilot",
        ],
        budgets=list(budgets),
        n_trials=n_trials,
        modes=("nopred",),
    )
    geo = geomean_across_datasets(results).toPandas()
    return summary_table(geo, mode="nopred", highlight_budgets=budgets)


def adversarial_shifts(
    spark: SparkSession,
    *,
    n_records: int = 100_000,
    seg_len: int = 20_000,
    streams_per_n: int = 4,
    budget: int = 2500,
    n_trials: int = 100,
) -> pd.DataFrame:
    """Figure 11's experiment: RMSE vs number of sudden parameter shifts.

    Returns mean median-segment RMSE per (algorithm, n_shifts),
    aggregated over ``streams_per_n`` adversarial streams each.
    """
    streams, n_shifts = {}, {}
    for n, seed in itertools.product(range(1, 6), range(streams_per_n)):
        name = f"adv-n{n}-s{seed}"
        streams[name] = generate_adversarial(
            n_shifts=n, n_records=n_records, seg_len=seg_len, seed=seed
        )
        n_shifts[name] = n
    results = run_trials(
        spark,
        streams,
        algorithms=["uniform", "stratified", "abae", "inquest"],
        budgets=[budget],
        n_trials=n_trials,
        modes=("pred",),
    )
    med = median_segment_rmse(results).toPandas()
    med["n_shifts"] = med["dataset"].map(n_shifts)
    return med.groupby(["algo", "n_shifts"])["median_rmse"].mean().unstack("n_shifts")


def dump_results(obj: dict[str, pd.DataFrame] | pd.DataFrame, path: str | Path) -> None:
    """Persist experiment output as JSON under ``results/``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(obj, pd.DataFrame):
        payload = json.loads(obj.to_json(orient="split"))
    else:
        payload = {
            k: json.loads(v.to_json(orient="split")) for k, v in obj.items()
        }
    path.write_text(json.dumps(payload, indent=2, default=str))


def print_table(title: str, table: pd.DataFrame) -> None:
    """Human-readable table block for job stdout."""
    print(f"\n== {title} ==")
    with pd.option_context("display.width", 160, "display.float_format", "{:.4f}".format):
        print(table)
