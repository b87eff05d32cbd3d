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

from repro.core.cost import T4_COST_MODEL
from repro.datasets.adversarial import generate_adversarial
from repro.datasets.streams import DATASET_NAMES, SPECS, StreamData, generate
from repro.sparkops.metrics import (
    CELL,
    KEY,
    collect_metrics,
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
    "evaluate",
    "adversarial_shifts",
    "dump_results",
    "print_table",
]

#: The paper's oracle-budget sweep: 500..5000 step 500.
FULL_BUDGETS = tuple(range(500, 5001, 500))
#: Tables 3 and 4's algorithms.
TABLE34_ALGORITHMS = ("uniform", "stratified", "abae", "inquest")
#: Figure 7's InQuest variants; full InQuest is their reference.
LESION_VARIANTS = ("inquest_fixed_alloc", "inquest_fixed_strata", "stratified_pilot")
#: The budgets Tables 3 and 4 print, and the lesion study's sweep.
TABLE_BUDGETS = (500, 2500, 5000)


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
    highlight_budgets: tuple[int, ...] = TABLE_BUDGETS,
) -> dict[str, pd.DataFrame]:
    """Tables 3 (mode='nopred') / 4 (mode='pred') plus backing detail.

    Returns the rendered summary table, the per-dataset median-segment
    RMSEs, and the full-query RMSEs (the paper's Figure 6 metric, kept
    as a table for the appendix of EXPERIMENTS.md).
    """
    results = run_trials(
        spark,
        streams,
        algorithms=list(TABLE34_ALGORITHMS),
        budgets=list(budgets),
        n_trials=n_trials,
        modes=(mode,),
    )
    return _table34(collect_metrics(results), mode, highlight_budgets)


def lesion(
    spark: SparkSession,
    streams: dict[str, StreamData],
    *,
    budgets: tuple[int, ...] = TABLE_BUDGETS,
    n_trials: int = 200,
) -> pd.DataFrame:
    """Figure 7's lesion study as a table (no-predicate queries).

    Variants: full InQuest, dynamic strata only, dynamic allocation
    only, and neither (stratified sampling with a pilot segment).
    """
    results = run_trials(
        spark,
        streams,
        algorithms=["inquest", *LESION_VARIANTS],
        budgets=list(budgets),
        n_trials=n_trials,
        modes=("nopred",),
    )
    return _lesion(collect_metrics(results), budgets)


def evaluate(
    spark: SparkSession, streams: dict[str, StreamData], *, n_trials: int = 200
) -> dict:
    """Tables 3 and 4, the lesion table and archie's cost table from one run.

    The Table 3/4 algorithms run in both modes at ``FULL_BUDGETS``; the
    lesion variants only where a table reads them (no predicate,
    ``TABLE_BUDGETS``), and full InQuest's rows are Table 3's.  The
    metric plan over both trial sets is one Spark action, and every
    table is a slice of its frame.
    """
    run = functools.partial(run_trials, spark, streams, n_trials=n_trials)
    table34_trials = run(
        algorithms=list(TABLE34_ALGORITHMS), budgets=list(FULL_BUDGETS), modes=("nopred", "pred")
    )
    lesion_trials = run(
        algorithms=list(LESION_VARIANTS), budgets=list(TABLE_BUDGETS), modes=("nopred",)
    )
    # Each side is one partition: coalescing the union needs no shuffle,
    # and the metric plan above it no Exchange.
    frame = collect_metrics(table34_trials.unionByName(lesion_trials).coalesce(1))
    return {
        "table3": _table34(frame, "nopred", TABLE_BUDGETS),
        "table4": _table34(frame, "pred", TABLE_BUDGETS),
        "lesion": _lesion(frame, TABLE_BUDGETS),
        "cost": _cost(frame, streams["archie"].n_records),
    }


def _table34(frame: pd.DataFrame, mode: str, highlight_budgets) -> dict[str, pd.DataFrame]:
    rows = frame.query("mode == @mode and algo in @TABLE34_ALGORITHMS")
    return {
        "summary": summary_table(
            rows.drop_duplicates(CELL), mode=mode, highlight_budgets=highlight_budgets
        ),
        "per_dataset": rows[[*KEY, "median_rmse"]].reset_index(drop=True),
        "full_query": rows[[*KEY, "full_query_rmse"]]
        .rename(columns={"full_query_rmse": "rmse"})
        .reset_index(drop=True),
    }


def _lesion(frame: pd.DataFrame, budgets) -> pd.DataFrame:
    # Only the lesion budgets: "All" is the geometric mean over them.
    algos = ["inquest", *LESION_VARIANTS]
    rows = frame.query("mode == 'nopred' and algo in @algos and budget in @budgets")
    return summary_table(rows.drop_duplicates(CELL), mode="nopred", highlight_budgets=budgets)


def _cost(frame: pd.DataFrame, n_records: int) -> pd.DataFrame:
    """Figure 9's T4 cost model next to Table 3's archie rows.

    Proxy-based methods pay the proxy on every record plus the oracle on
    the sampled records; uniform sampling pays only the oracle.
    """
    rows = frame.query(
        "dataset == 'archie' and mode == 'nopred' and algo in @TABLE34_ALGORITHMS"
    )[["algo", "budget", "median_rmse"]].reset_index(drop=True)
    calls = [
        {"oracle_calls": b, "proxy_calls": 0 if a == "uniform" else n_records}
        for a, b in zip(rows["algo"], rows["budget"])
    ]
    return rows.assign(
        gpu_seconds=[T4_COST_MODEL.query_seconds(**c) for c in calls],
        dollars=[T4_COST_MODEL.query_dollars(**c) for c in calls],
    )


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
        algorithms=list(TABLE34_ALGORITHMS),
        budgets=[budget],
        n_trials=n_trials,
        modes=("pred",),
    )
    med = median_segment_rmse(results).toPandas()
    med["n_shifts"] = med["dataset"].map(n_shifts)
    return med.groupby(["algo", "n_shifts"])["median_rmse"].mean().unstack("n_shifts")


def dump_results(
    obj: dict[str, pd.DataFrame] | pd.DataFrame, path: str | Path, title: str = ""
) -> None:
    """Persist experiment output as JSON under ``results/``; with a ``title``,
    print it and write what is printed beside it as ``.log``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(obj, pd.DataFrame):
        payload = json.loads(obj.to_json(orient="split"))
    else:
        payload = {
            k: json.loads(v.to_json(orient="split")) for k, v in obj.items()
        }
    path.write_text(json.dumps(payload, indent=2, default=str))
    if title:
        path.with_suffix(".log").write_text(print_table(title, obj))


def print_table(title: str, table: pd.DataFrame | str) -> str:
    """Print a human-readable table block for job stdout; return its text."""
    with pd.option_context("display.width", 160, "display.float_format", "{:.4f}".format):
        text = f"\n== {title} ==\n{table}\n"
    print(text, end="")
    return text
