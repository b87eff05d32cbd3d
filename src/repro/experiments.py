"""Shared experiment drivers behind ``jobs/evaluate.py`` and ``benchmarks/``.

Each function reproduces one piece of the paper's evaluation section at
a configurable scale (full scale = 500k records, budgets 500..5000,
matching the paper; tests and benchmarks shrink records/trials) and
returns plain pandas frames ready to print or dump to
``results/*.json``.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.cost import T4_COST_MODEL
from repro.datasets.adversarial import generate_adversarial
from repro.datasets.streams import DATASET_NAMES, SPECS, StreamData, generate, interpolated_proxy
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
    "sensitivity",
    "proxy_quality",
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
#: Figure 8's oracle budget.
SENSITIVITY_BUDGET = 5000
#: Figure 10's oracle budget.
PROXY_QUALITY_BUDGET = 2500
#: Figure 11's streams: this many for each number of shifts in 1..5, each
#: of 100k records in 20k-record segments, queried at NT = 2500.
ADVERSARIAL_STREAMS_PER_N = 20
ADVERSARIAL_RECORDS = 100_000
ADVERSARIAL_SEG_LEN = 20_000
ADVERSARIAL_BUDGET = 2500


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


def sensitivity(spark: SparkSession, stream: StreamData, *, n_trials: int) -> pd.DataFrame:
    """Figure 8's sensitivity analysis (alpha, window length) as one table.

    InQuest runs on ``stream`` (archie in the paper) with no predicate at
    ``SENSITIVITY_BUDGET``: alpha in [0.5, 0.9] with the stream cut into
    T = 5 segments, and the default alpha with it cut into T in [4, 8].
    Uniform ignores alpha, but its per-segment budget and segment size
    follow T, so it runs at every T and gives one ``uniform-ref`` row per
    T; the alpha sweep compares with the T = 5 one.
    """
    # One copy of the stream per T, cut into T segments (the last one
    # may be shorter); the copies share their arrays.
    by_t = {}
    for t_segments in (4, 5, 6, 7, 8):
        resliced = dataclasses.replace(stream, seg_len=-(-stream.n_records // t_segments))
        if resliced.n_segments != t_segments:
            raise ValueError(f"{stream.n_records} records do not make {t_segments} segments")
        by_t[f"{stream.name}-T{t_segments}"] = resliced
    run = functools.partial(
        run_trials, spark, budgets=[SENSITIVITY_BUDGET], n_trials=n_trials, modes=("nopred",)
    )
    t5 = {stream.name: by_t[f"{stream.name}-T5"]}
    rows = []
    for alpha in (0.5, 0.6, 0.7, 0.8, 0.9):
        res = run(t5, algorithms=["inquest"], params={"alpha": alpha})
        med = median_segment_rmse(res).toPandas()
        rows.append({"sweep": "alpha", "value": alpha, "rmse": float(med["median_rmse"].iloc[0])})
    res = run(by_t, algorithms=["inquest", "uniform"])
    med = median_segment_rmse(res).toPandas().set_index(["algo", "dataset"])["median_rmse"]
    for sweep, algo in (("T", "inquest"), ("uniform-ref", "uniform")):
        for name, resliced in by_t.items():
            rows.append({"sweep": sweep, "value": resliced.n_segments,
                         "rmse": float(med[algo, name])})
    return pd.DataFrame(rows)


def proxy_quality(spark: SparkSession, stream: StreamData, *, n_trials: int) -> pd.DataFrame:
    """Figure 10's proxy-quality sweep as a table (rialto in the paper).

    Rebuilds ``stream``'s proxy with the Section 5.5 interpolation
    ``proxy = beta*g + (1-beta)*U(0,1)`` for beta in {0, .25, .5, .75, 1}
    (beta=1 is the perfect proxy, beta=0 pure noise) and reports InQuest's
    and uniform's median-segment RMSE at each beta, with no predicate at
    ``PROXY_QUALITY_BUDGET``.
    """
    masked = stream.statistic * stream.pred
    g01 = masked / masked.max()
    streams = {
        f"{stream.name}-beta{beta}": dataclasses.replace(
            stream,
            proxy=interpolated_proxy(np.random.default_rng([55, int(beta * 100)]), g01, beta),
        )
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0)
    }
    res = run_trials(
        spark,
        streams,
        algorithms=["inquest", "uniform"],
        budgets=[PROXY_QUALITY_BUDGET],
        n_trials=n_trials,
        modes=("nopred",),
    )
    med = median_segment_rmse(res).toPandas()
    return med.pivot_table(index="dataset", columns="algo", values="median_rmse").reset_index()


def adversarial_shifts(
    spark: SparkSession,
    *,
    n_trials: int,
    n_records: int = ADVERSARIAL_RECORDS,
    seg_len: int = ADVERSARIAL_SEG_LEN,
    streams_per_n: int = ADVERSARIAL_STREAMS_PER_N,
    budget: int = ADVERSARIAL_BUDGET,
) -> pd.DataFrame:
    """Figure 11's experiment: RMSE vs number of sudden parameter shifts.

    Returns mean median-segment RMSE per (algorithm, n_shifts),
    aggregated over ``streams_per_n`` adversarial streams each, with the
    predicate.
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


def print_table(title: str, table: pd.DataFrame | str) -> str:
    """Print a human-readable table block for job stdout; return its text."""
    with pd.option_context("display.width", 160, "display.float_format", "{:.4f}".format):
        text = f"\n== {title} ==\n{table}\n"
    print(text, end="")
    return text
