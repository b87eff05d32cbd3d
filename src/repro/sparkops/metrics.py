"""Spark SQL aggregation of trial results into the paper's metrics.

Implements the exact metric pipeline of Section 5.1-5.2 as one plan,
:func:`metrics`:

1. per (dataset, algo, mode, budget, segment): RMSE over trials,
2. per (dataset, algo, mode, budget): *median* of the per-segment RMSEs
   (exact ``percentile``, not the approximate sketch — T is tiny) and
   the RMSE of the full-query estimate (``segment = -1``),
3. per (algo, mode, budget): *geometric mean* of the per-dataset scores
   (``exp(avg(ln(x)))``), as a window column next to them,
4. Table 3/4 layout: one row per algorithm with the NT = 500 / 2500 /
   5000 cells, the all-budgets geometric mean, and the improvement
   ratios (baseline / InQuest) the paper prints beneath.

``median_segment_rmse``, ``full_query_rmse`` and
``geomean_across_datasets`` are projections of the one plan over the
rows they read; Catalyst prunes the aggregates and the window they do
not select, so a caller of one metric pays for that one only.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

__all__ = [
    "KEY",
    "CELL",
    "rmse_by_segment",
    "metrics",
    "collect_metrics",
    "median_segment_rmse",
    "geomean_across_datasets",
    "full_query_rmse",
    "summary_table",
]

#: One row of :func:`metrics`: a dataset's score for one Table 3/4 cell.
KEY = ["dataset", "algo", "mode", "budget"]
#: One Table 3/4 cell: the geometric mean across datasets.
CELL = ["algo", "mode", "budget"]


def _rmse():
    return F.sqrt(F.avg(F.pow(F.col("estimate") - F.col("truth"), 2)))


def _geomean(window: Window | None = None):
    # Over ``window``, a window aggregate instead of a grouped one.
    mean_log = F.avg(F.log("median_rmse"))
    return F.exp(mean_log if window is None else mean_log.over(window))


def rmse_by_segment(results: DataFrame) -> DataFrame:
    """RMSE over trials for every per-segment estimate."""
    return (
        results.filter(F.col("segment") >= 0)
        .groupBy(*KEY, "segment")
        .agg(_rmse().alias("rmse"))
    )


def metrics(results: DataFrame) -> DataFrame:
    """Every metric of the paper in one plan, one row per ``KEY``.

    Columns: ``median_rmse`` (median over segments ``>= 0`` of the
    per-segment RMSE), ``full_query_rmse`` (RMSE of ``segment = -1``)
    and ``geomean_rmse`` (geometric mean of ``median_rmse`` over the
    datasets of the row's (algo, mode, budget)).  Over ``run_trials``'
    single partition, both groupings and the window plan no Exchange.
    """
    rmse, segment = F.col("rmse"), F.col("segment")
    return (
        results.groupBy(*KEY, "segment")
        .agg(_rmse().alias("rmse"))
        .groupBy(*KEY)
        .agg(
            F.percentile(F.when(segment >= 0, rmse), F.lit(0.5)).alias("median_rmse"),
            F.max(F.when(segment == -1, rmse)).alias("full_query_rmse"),
        )
        .withColumn("geomean_rmse", _geomean(Window.partitionBy(*CELL)))
    )


def collect_metrics(results: DataFrame) -> pd.DataFrame:
    """:func:`metrics` collected in one action, sorted by ``KEY``."""
    return metrics(results).toPandas().sort_values(KEY, ignore_index=True)


def median_segment_rmse(results: DataFrame) -> DataFrame:
    """The paper's per-dataset score: median across segments of the RMSE."""
    return metrics(results.filter(F.col("segment") >= 0)).select(*KEY, "median_rmse")


def geomean_across_datasets(results: DataFrame) -> DataFrame:
    """Tables 3/4's cell value: geometric mean across datasets."""
    return (
        median_segment_rmse(results)
        .groupBy(*CELL)
        .agg(_geomean().alias("geomean_rmse"))
    )


def full_query_rmse(results: DataFrame) -> DataFrame:
    """RMSE of the final full-query estimate (the Figure 6 metric)."""
    return metrics(results.filter(F.col("segment") == -1)).select(
        *KEY, F.col("full_query_rmse").alias("rmse")
    )


def summary_table(
    geomeans: pd.DataFrame,
    *,
    mode: str,
    highlight_budgets: tuple[int, ...] = (500, 2500, 5000),
    reference: str = "inquest",
) -> pd.DataFrame:
    """Render one mode's Table 3/4: algorithms x (budgets..., All).

    ``geomeans`` holds one ``geomean_rmse`` per (algo, mode, budget), as
    :func:`geomean_across_datasets` or the distinct cells of
    :func:`metrics` give it; "All" is the geometric mean of an
    algorithm's cells over every swept budget (the paper aggregates its
    full 500..5000 sweep the same way).  Improvement rows divide each
    baseline's cells by the reference algorithm's.
    """
    sub = geomeans[geomeans["mode"] == mode]
    if sub.empty:
        raise ValueError(f"no rows for mode {mode!r}")
    pivot = sub.pivot_table(index="algo", columns="budget", values="geomean_rmse")
    cols = [b for b in highlight_budgets if b in pivot.columns]
    table = pivot[cols].copy()
    table.columns = [f"NT = {b}" for b in cols]
    # Geometric mean over the full sweep, not just highlighted budgets.
    table["All"] = np.exp(np.log(pivot).mean(axis=1))
    if reference in table.index:
        for algo in table.index:
            if algo == reference:
                continue
            table.loc[f"improvement_{algo}"] = (
                table.loc[algo] / table.loc[reference]
            )
    return table
