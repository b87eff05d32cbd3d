"""Spark tests for the distributed Monte Carlo trial runner."""
import dataclasses

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.core.inquest import inquest_trial
from repro.datasets.streams import generate, segment_truths
from repro.oracle import assert_equivalent
from repro.sparkops.metrics import (
    full_query_rmse,
    geomean_across_datasets,
    median_segment_rmse,
    metrics,
)
from repro.sparkops.stream_df import DATASET_CODE, stream_to_arrow
from repro.sparkops.trials import ALGORITHMS, run_trials

_N, _SEG = 10_000, 2_000


@pytest.fixture(scope="module")
def streams():
    return {n: generate(n, n_records=_N, seg_len=_SEG) for n in ["archie", "rialto"]}


@pytest.fixture(scope="module")
def results(spark, streams):
    return run_trials(
        spark,
        streams,
        algorithms=["inquest", "uniform"],
        budgets=[250, 500],
        n_trials=5,
        modes=("pred", "nopred"),
    ).cache()


class TestRunTrials:
    def test_schema(self, results):
        assert dict(results.dtypes) == {
            "dataset": "string",
            "algo": "string",
            "mode": "string",
            "budget": "int",
            "trial": "int",
            "segment": "int",
            "estimate": "double",
            "truth": "double",
        }

    def test_row_count(self, results):
        # 2 datasets x 2 algos x 2 modes x 2 budgets x 5 trials x
        # (5 segments + 1 full-query row).
        assert results.count() == 2 * 2 * 2 * 2 * 5 * 6

    def test_full_query_rows_present(self, results):
        assert results.filter("segment = -1").count() == 2 * 2 * 2 * 2 * 5

    def test_truth_matches_generator(self, results, streams):
        pdf = results.filter(
            "dataset = 'archie' AND mode = 'pred' AND segment >= 0"
        ).toPandas()
        expected = segment_truths(streams["archie"], predicate=True)
        for seg, grp in pdf.groupby("segment"):
            assert np.allclose(grp["truth"], expected[seg])

    def test_truths_against_duckdb(self, results, streams):
        # Every segment's truth and the full query's (segment = -1), in
        # both modes, against DuckDB SQL over the streams' Arrow table.
        names = pd.DataFrame({DATASET_CODE: range(len(streams)), "dataset": [*streams]})
        truth = {
            "pred": "coalesce(avg(CASE WHEN pred THEN statistic END), 0.0)",
            "nopred": "avg(statistic)",
        }
        sql = " UNION ALL ".join(
            f"SELECT dataset, '{mode}' AS mode, {segment} AS segment, {expr} AS truth "
            f"FROM stream JOIN names USING ({DATASET_CODE}) GROUP BY {group}"
            for mode, expr in truth.items()
            for segment, group in (("segment", "dataset, segment"), ("-1", "dataset"))
        )
        stream = pa.concat_tables(
            stream_to_arrow(s).append_column(
                DATASET_CODE, pa.array(np.full(s.n_records, code, dtype=np.int32))
            )
            for code, s in enumerate(streams.values())
        )
        assert_equivalent(
            results.select("dataset", "mode", "segment", "truth").distinct(),
            sql,
            stream=stream,
            names=names,
        )

    def test_matches_local_kernel(self, results, streams):
        # The distributed run must reproduce a local kernel invocation
        # exactly (same seeds, same stream arrays).
        pdf = results.filter(
            "dataset = 'rialto' AND algo = 'inquest' AND mode = 'pred' "
            "AND budget = 500 AND trial = 3 AND segment >= 0"
        ).toPandas().sort_values("segment")
        s = streams["rialto"]
        local = inquest_trial(
            s.statistic, s.pred, s.proxy, seg_len=_SEG, total_budget=500, seed=3
        )
        assert np.allclose(pdf["estimate"].to_numpy(), local["seg_estimates"])

    def test_nopred_ignores_predicate(self, results, streams):
        pdf = results.filter(
            "dataset = 'archie' AND mode = 'nopred' AND segment >= 0"
        ).toPandas()
        expected = segment_truths(streams["archie"], predicate=False)
        for seg, grp in pdf.groupby("segment"):
            assert np.allclose(grp["truth"], expected[seg])

    def test_results_in_one_partition(self, results):
        assert results.rdd.getNumPartitions() == 1

    @pytest.mark.parametrize(
        "metric",
        [median_segment_rmse, geomean_across_datasets, full_query_rmse, metrics],
        ids=lambda f: f.__name__,
    )
    def test_metric_plans_shuffle_nothing(self, results, metric):
        # One result partition satisfies every groupBy and the window of
        # the metric plans, so what runs above the cached results has no
        # Exchange.
        df = metric(results)
        df.collect()
        plan = df._jdf.queryExecution().executedPlan().toString()
        above_cache, scan, _ = plan.partition("InMemoryTableScan")
        assert scan and "Exchange" not in above_cache, plan

    def test_unknown_algorithm_raises(self, spark, streams):
        with pytest.raises(ValueError, match="unknown algorithms"):
            run_trials(
                spark, streams, algorithms=["nope"], budgets=[100], n_trials=1
            )

    def test_registry_covers_lesion_variants(self):
        assert {
            "inquest",
            "uniform",
            "stratified",
            "abae",
            "inquest_fixed_alloc",
            "inquest_fixed_strata",
            "stratified_pilot",
        } <= set(ALGORITHMS)

    def test_params_forwarded_to_inquest(self, spark, streams):
        # alpha=0 vs alpha=0.9 must change InQuest's estimates.
        outs = []
        for alpha in (0.0, 0.9):
            res = run_trials(
                spark,
                {"archie": streams["archie"]},
                algorithms=["inquest"],
                budgets=[400],
                n_trials=2,
                modes=("pred",),
                params={"alpha": alpha},
            ).toPandas()
            outs.append(res.sort_values(["trial", "segment"])["estimate"].to_numpy())
        assert not np.allclose(outs[0], outs[1])

    @pytest.fixture(scope="class")
    def seg_len_override(self, spark, streams):
        return run_trials(
            spark,
            {"archie": dataclasses.replace(streams["archie"], seg_len=2500)},
            algorithms=["inquest", "uniform", "stratified", "abae"],
            budgets=[400],
            n_trials=1,
            modes=("pred", "nopred"),
        ).toPandas()

    def test_seg_len_override(self, seg_len_override):
        # Every algorithm cuts the stream at its own seg_len, not only InQuest.
        last = seg_len_override[seg_len_override.segment >= 0].groupby("algo")[
            "segment"
        ].max()
        assert last.to_dict() == {
            a: _N // 2500 - 1 for a in ("inquest", "uniform", "stratified", "abae")
        }

    def test_seg_len_override_truths(self, seg_len_override, streams):
        # Truths are those of the stream re-sliced at the override length.
        resliced = dataclasses.replace(streams["archie"], seg_len=2500)
        for mode, grp in seg_len_override[seg_len_override.segment >= 0].groupby(
            "mode"
        ):
            expected = segment_truths(resliced, predicate=(mode == "pred"))
            assert np.array_equal(grp["truth"], expected[grp["segment"]])

    def test_seg_len_override_matches_local_kernels(self, seg_len_override, streams):
        s = streams["archie"]
        for algo, grp in seg_len_override[seg_len_override["mode"] == "pred"].groupby(
            "algo"
        ):
            local = ALGORITHMS[algo](
                s.statistic, s.pred, s.proxy, seg_len=2500, total_budget=400, seed=0
            )
            grp = grp.sort_values("segment")
            got = grp["estimate"].to_numpy()
            assert np.array_equal(got[1:], local["seg_estimates"]), algo
            assert got[0] == local["full_estimate"], algo

    def test_params_accepted_by_no_algorithm_raise(self, spark, streams):
        # A segment length belongs to the stream, so no algorithm takes one.
        for params in ({"alpha": 0.5}, {"seg_len": 2500}):
            with pytest.raises(ValueError, match="accepted by none"):
                run_trials(
                    spark,
                    streams,
                    algorithms=["uniform", "stratified", "abae"],
                    budgets=[100],
                    n_trials=1,
                    params=params,
                )

    def test_only_exchange_gathers_the_results(self, spark, streams):
        # Each task runs whole (dataset, algorithm) cells of a local
        # relation: the one Exchange moves the results into one partition.
        df = run_trials(
            spark,
            streams,
            algorithms=["inquest", "uniform"],
            budgets=[100],
            n_trials=1,
            modes=("pred",),
        )
        df.collect()
        plan = df._jdf.queryExecution().executedPlan().toString()
        exchanges = [line for line in plan.splitlines() if "Exchange" in line]
        assert exchanges, plan
        assert all("Exchange SinglePartition" in line for line in exchanges), plan

    def test_one_call_equals_one_call_per_stream(self, spark, streams):
        # Two of the streams share their arrays and differ only in seg_len.
        archie = streams["archie"]
        several = {
            "archie": archie,
            "archie-2500": dataclasses.replace(archie, seg_len=2500),
            "rialto": streams["rialto"],
        }
        keys = ["dataset", "algo", "mode", "budget", "trial", "segment"]

        def rows(subset):
            return run_trials(
                spark,
                subset,
                algorithms=["inquest", "uniform", "stratified", "abae"],
                budgets=[300],
                n_trials=2,
                modes=("pred", "nopred"),
            ).toPandas()

        together = rows(several).sort_values(keys, ignore_index=True)
        alone = pd.concat(
            [rows({name: s}) for name, s in several.items()]
        ).sort_values(keys, ignore_index=True)
        assert together.equals(alone)
