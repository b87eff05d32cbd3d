"""Spark SQL metric aggregations, verified against DuckDB and numpy."""
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.sparkops.metrics import (
    full_query_rmse,
    geomean_across_datasets,
    median_segment_rmse,
    metrics,
    rmse_by_segment,
    summary_table,
)


@pytest.fixture(scope="module")
def results_pdf():
    """Synthetic trial results with known errors."""
    g = np.random.default_rng(0)
    rows = []
    for dataset in ("a", "b"):
        for algo in ("inquest", "uniform"):
            for mode in ("pred", "nopred"):
                for budget in (100, 200):
                    for trial in range(20):
                        for segment in (-1, 0, 1, 2):
                            truth = 1.0 + (segment if segment >= 0 else 0)
                            noise = 0.1 if algo == "inquest" else 0.3
                            rows.append(
                                {
                                    "dataset": dataset,
                                    "algo": algo,
                                    "mode": mode,
                                    "budget": budget,
                                    "trial": trial,
                                    "segment": segment,
                                    "estimate": truth + g.normal(0, noise),
                                    "truth": truth,
                                }
                            )
    return pd.DataFrame(rows)


@pytest.fixture(scope="module")
def results_df(spark, results_pdf):
    return spark.createDataFrame(results_pdf).cache()


class TestRmseBySegment:
    def test_against_duckdb(self, results_df, results_pdf):
        assert_equivalent(
            rmse_by_segment(results_df),
            """
            SELECT dataset, algo, mode, budget, segment,
                   sqrt(avg(pow(estimate - truth, 2))) AS rmse
            FROM results WHERE segment >= 0
            GROUP BY dataset, algo, mode, budget, segment
            """,
            results=results_pdf,
        )

    def test_excludes_full_query_rows(self, results_df):
        assert rmse_by_segment(results_df).filter("segment = -1").count() == 0

    def test_recovers_known_noise_scale(self, results_df):
        pdf = rmse_by_segment(results_df).toPandas()
        iq = pdf[pdf.algo == "inquest"]["rmse"]
        un = pdf[pdf.algo == "uniform"]["rmse"]
        assert 0.05 < iq.mean() < 0.15 and 0.2 < un.mean() < 0.4


class TestMedianSegmentRmse:
    def test_against_duckdb(self, results_df, results_pdf):
        assert_equivalent(
            median_segment_rmse(results_df),
            """
            WITH seg AS (
              SELECT dataset, algo, mode, budget, segment,
                     sqrt(avg(pow(estimate - truth, 2))) AS rmse
              FROM results WHERE segment >= 0
              GROUP BY dataset, algo, mode, budget, segment
            )
            SELECT dataset, algo, mode, budget,
                   median(rmse) AS median_rmse
            FROM seg GROUP BY dataset, algo, mode, budget
            """,
            results=results_pdf,
        )

    def test_median_is_exact_not_approx(self, spark):
        # 3 segments with RMSE 1, 2, 100 -> exact median must be 2.
        pdf = pd.DataFrame(
            {
                "dataset": ["d"] * 3,
                "algo": ["x"] * 3,
                "mode": ["pred"] * 3,
                "budget": [1] * 3,
                "trial": [0] * 3,
                "segment": [0, 1, 2],
                "estimate": [1.0, 2.0, 100.0],
                "truth": [0.0, 0.0, 0.0],
            }
        )
        out = median_segment_rmse(spark.createDataFrame(pdf)).collect()[0]
        assert out["median_rmse"] == 2.0


class TestGeomeanAcrossDatasets:
    def test_against_duckdb(self, results_df, results_pdf):
        assert_equivalent(
            geomean_across_datasets(results_df),
            """
            WITH seg AS (
              SELECT dataset, algo, mode, budget, segment,
                     sqrt(avg(pow(estimate - truth, 2))) AS rmse
              FROM results WHERE segment >= 0
              GROUP BY dataset, algo, mode, budget, segment
            ), med AS (
              SELECT dataset, algo, mode, budget, median(rmse) AS median_rmse
              FROM seg GROUP BY dataset, algo, mode, budget
            )
            SELECT algo, mode, budget, exp(avg(ln(median_rmse))) AS geomean_rmse
            FROM med GROUP BY algo, mode, budget
            """,
            results=results_pdf,
        )

    def test_geomean_of_equal_values_is_value(self, spark):
        pdf = pd.DataFrame(
            {
                "dataset": ["d1", "d2"],
                "algo": ["x"] * 2,
                "mode": ["pred"] * 2,
                "budget": [1] * 2,
                "trial": [0] * 2,
                "segment": [0, 0],
                "estimate": [3.0, 3.0],
                "truth": [0.0, 0.0],
            }
        )
        out = geomean_across_datasets(spark.createDataFrame(pdf)).collect()[0]
        assert np.isclose(out["geomean_rmse"], 3.0)


class TestFullQueryRmse:
    def test_against_duckdb(self, results_df, results_pdf):
        assert_equivalent(
            full_query_rmse(results_df),
            """
            SELECT dataset, algo, mode, budget,
                   sqrt(avg(pow(estimate - truth, 2))) AS rmse
            FROM results WHERE segment = -1
            GROUP BY dataset, algo, mode, budget
            """,
            results=results_pdf,
        )


class TestMetrics:
    def test_against_duckdb(self, results_df, results_pdf):
        # Every column of the one plan, the windowed geometric mean
        # included, against the three metrics written as separate SQL.
        assert_equivalent(
            metrics(results_df),
            """
            WITH seg AS (
              SELECT dataset, algo, mode, budget, segment,
                     sqrt(avg(pow(estimate - truth, 2))) AS rmse
              FROM results WHERE segment >= 0
              GROUP BY dataset, algo, mode, budget, segment
            ), med AS (
              SELECT dataset, algo, mode, budget, median(rmse) AS median_rmse
              FROM seg GROUP BY dataset, algo, mode, budget
            ), full_query AS (
              SELECT dataset, algo, mode, budget,
                     sqrt(avg(pow(estimate - truth, 2))) AS full_query_rmse
              FROM results WHERE segment = -1
              GROUP BY dataset, algo, mode, budget
            ), geo AS (
              SELECT algo, mode, budget, exp(avg(ln(median_rmse))) AS geomean_rmse
              FROM med GROUP BY algo, mode, budget
            )
            SELECT * FROM med
            JOIN full_query USING (dataset, algo, mode, budget)
            JOIN geo USING (algo, mode, budget)
            """,
            results=results_pdf,
        )

    @pytest.mark.parametrize(
        "metric, other_aggregate",
        [
            (median_segment_rmse, "max("),
            (geomean_across_datasets, "max("),
            (full_query_rmse, "percentile("),
        ],
        ids=["median_segment_rmse", "geomean_across_datasets", "full_query_rmse"],
    )
    def test_projections_prune_what_they_do_not_read(
        self, results_df, metric, other_aggregate
    ):
        # A caller of one metric pays for that one: Catalyst drops the
        # window and the other aggregate of the one plan.
        plan = metric(results_df)._jdf.queryExecution().optimizedPlan().toString()
        assert "Window" not in plan and other_aggregate not in plan, plan

    def test_one_plan_holds_every_metric(self, results_df):
        plan = metrics(results_df)._jdf.queryExecution().optimizedPlan().toString()
        assert all(op in plan for op in ("Window", "max(", "percentile(")), plan


class TestSummaryTable:
    @pytest.fixture(scope="class")
    def geo(self, results_df):
        return geomean_across_datasets(results_df).toPandas()

    def test_layout(self, geo):
        table = summary_table(geo, mode="pred", highlight_budgets=(100, 200))
        assert list(table.columns) == ["NT = 100", "NT = 200", "All"]
        assert "inquest" in table.index and "improvement_uniform" in table.index

    def test_improvement_ratio(self, geo):
        table = summary_table(geo, mode="pred", highlight_budgets=(100, 200))
        assert np.isclose(
            table.loc["improvement_uniform", "NT = 100"],
            table.loc["uniform", "NT = 100"] / table.loc["inquest", "NT = 100"],
        )
        # Known noise scales: uniform/inquest ~ 3x.
        assert 2.0 < table.loc["improvement_uniform", "All"] < 4.5

    def test_all_column_is_geomean_of_budgets(self, geo):
        table = summary_table(geo, mode="nopred", highlight_budgets=(100,))
        sub = geo[(geo["mode"] == "nopred") & (geo["algo"] == "inquest")]
        expected = np.exp(np.log(sub["geomean_rmse"]).mean())
        assert np.isclose(table.loc["inquest", "All"], expected)

    def test_missing_mode_raises(self, geo):
        with pytest.raises(ValueError):
            summary_table(geo, mode="nope")
