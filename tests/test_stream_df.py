"""Spark tests for repro.sparkops.stream_df, verified against DuckDB."""
import dataclasses

import numpy as np
import pytest

from repro.datasets.streams import DATASET_NAMES, generate
from repro.oracle import assert_equivalent
from repro.experiments import table2
from repro.sparkops.stream_df import (
    DATASET_CODE,
    TABLE2_ARROW_SCHEMA,
    stream_to_arrow,
    stream_to_spark,
    streams_to_arrow,
    streams_to_spark,
    table2_grouped_df,
    table2_stats_df,
)

_N, _SEG = 20_000, 4_000


@pytest.fixture(scope="module")
def stream():
    return generate("archie", n_records=_N, seg_len=_SEG)


@pytest.fixture(scope="module")
def stream_df(spark, stream):
    return stream_to_spark(spark, stream).cache()


class TestStreamToArrow:
    def test_nan_proxy_rejected(self, stream):
        proxy = stream.proxy.copy()
        proxy[[5, 6_000, 19_999]] = np.nan
        nan_stream = dataclasses.replace(stream, proxy=proxy)
        with pytest.raises(ValueError, match=f"3 of {_N} proxy scores are NaN"):
            stream_to_arrow(nan_stream)


class TestStreamToSpark:
    def test_schema(self, stream_df):
        assert dict(stream_df.dtypes) == {
            "record_idx": "bigint",
            "segment": "int",
            "statistic": "double",
            "pred": "boolean",
            "proxy": "double",
        }

    def test_row_count(self, stream_df):
        assert stream_df.count() == _N

    def test_segment_assignment(self, stream_df):
        seg_sizes = (
            stream_df.groupBy("segment").count().orderBy("segment").toPandas()
        )
        assert list(seg_sizes["count"]) == [_SEG] * (_N // _SEG)

    def test_pandas_spark_roundtrip(self, stream, stream_df):
        back = stream_df.orderBy("record_idx").toPandas()
        assert np.allclose(back["statistic"].to_numpy(), stream.statistic)
        assert np.array_equal(back["pred"].to_numpy(), stream.pred)


class TestTable2StatsDf:
    def test_against_duckdb(self, stream, stream_df):
        assert_equivalent(
            table2_stats_df(stream_df, "archie"),
            """
            SELECT 'archie' AS dataset,
                   avg(CAST(pred AS DOUBLE)) AS p,
                   corr(proxy, CASE WHEN pred THEN statistic ELSE 0.0 END) AS r
            FROM stream
            """,
            stream=stream_to_arrow(stream),
        )

    def test_matches_numpy_correlation(self, stream, stream_df):
        row = table2_stats_df(stream_df, "archie").collect()[0]
        r_np = np.corrcoef(stream.proxy, stream.statistic * stream.pred)[0, 1]
        assert abs(row["r"] - r_np) < 1e-9
        assert abs(row["p"] - stream.pred.mean()) < 1e-9

    @pytest.mark.parametrize("name", DATASET_NAMES[:3])
    def test_multiple_datasets(self, spark, name):
        s = generate(name, n_records=5_000, seg_len=1_000)
        row = table2_stats_df(stream_to_spark(spark, s), name).collect()[0]
        assert row["dataset"] == name and 0 <= row["p"] <= 1


class TestTable2Grouped:
    """All streams in one DataFrame, one grouped aggregate."""

    @pytest.fixture(scope="class")
    def streams(self):
        # Not DATASET_NAMES order, so order is checked, not assumed.
        names = list(reversed(DATASET_NAMES))
        return {n: generate(n, n_records=6_000, seg_len=1_500) for n in names}

    @pytest.fixture(scope="class")
    def table(self, spark, streams):
        return table2(spark, streams)

    def test_rows_in_streams_order(self, streams, table):
        assert list(table["dataset"]) == list(streams)

    def test_paper_targets_carried(self, table):
        assert list(table.columns) == ["dataset", "p_paper", "p", "r_paper", "r"]

    def test_matches_per_stream_and_numpy(self, spark, streams, table):
        for row, (name, s) in zip(table.itertuples(), streams.items()):
            single = table2_stats_df(stream_to_spark(spark, s), name).collect()[0]
            r_np = np.corrcoef(s.proxy, np.where(s.pred, s.statistic, 0.0))[0, 1]
            assert abs(row.p - single["p"]) < 1e-9 and abs(row.r - single["r"]) < 1e-9
            assert abs(row.p - s.pred.mean()) < 1e-9 and abs(row.r - r_np) < 1e-9

    def test_against_duckdb(self, spark, streams):
        assert_equivalent(
            table2_grouped_df(streams_to_spark(spark, streams)),
            f"""
            SELECT {DATASET_CODE},
                   avg(CAST(pred AS DOUBLE)) AS p,
                   corr(proxy, CASE WHEN pred THEN statistic ELSE 0.0 END) AS r
            FROM streams GROUP BY {DATASET_CODE}
            """,
            streams=streams_to_arrow(streams),
        )

    def test_one_partition_per_core(self, spark, streams):
        # Above the local-relation threshold the table crosses as one
        # partition per Arrow batch: 36 here, forced by small confs.
        # streams_to_spark merges them to at most one per core, and Table 2
        # stays equal to numpy.
        confs = {
            "spark.sql.execution.arrow.localRelationThreshold": "0",
            "spark.sql.execution.arrow.maxRecordsPerBatch": "1000",
        }
        saved = {key: spark.conf.get(key) for key in confs}
        try:
            for key, value in confs.items():
                spark.conf.set(key, value)
            df = streams_to_spark(spark, streams)
            assert df.rdd.getNumPartitions() == min(
                36, spark.sparkContext.defaultParallelism
            )
            table = table2(spark, streams)
        finally:
            for key, value in saved.items():
                spark.conf.set(key, value)
        for row, s in zip(table.itertuples(), streams.values()):
            r_np = np.corrcoef(s.proxy, np.where(s.pred, s.statistic, 0.0))[0, 1]
            assert abs(row.p - s.pred.mean()) < 1e-9 and abs(row.r - r_np) < 1e-9

    def test_codes_mark_each_stream(self, streams):
        # Only the columns Table 2 reads cross into Spark: no record index
        # or segment.
        t = streams_to_arrow(streams)
        assert t.schema == TABLE2_ARROW_SCHEMA
        codes = t.column(DATASET_CODE).to_numpy()
        sizes = [s.n_records for s in streams.values()]
        assert np.array_equal(codes, np.repeat(np.arange(len(streams)), sizes))
        for name in ("statistic", "pred", "proxy"):
            assert np.array_equal(
                t.column(name).to_numpy(),
                np.concatenate([getattr(s, name) for s in streams.values()]),
            )

    def test_nan_proxy_rejected(self, streams):
        name, s = next(iter(streams.items()))
        proxy = s.proxy.copy()
        proxy[0] = np.nan
        bad = {**streams, name: dataclasses.replace(s, proxy=proxy)}
        with pytest.raises(ValueError, match="proxy scores are NaN"):
            streams_to_arrow(bad)

    def test_spark_jobs_do_not_grow_with_streams(self, spark, streams):
        # One grouped query over six streams costs the Spark jobs of one
        # single-stream query (a shuffle-map job and a result job under
        # adaptive execution), not six times as many.
        sc = spark.sparkContext

        def jobs(group, fn):
            sc.setJobGroup(group, group)
            try:
                fn()
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            return len(sc.statusTracker().getJobIdsForGroup(group))

        name, s = next(iter(streams.items()))
        one = jobs("table2-one", lambda: table2(spark, {name: s}))
        six = jobs("table2-six", lambda: table2(spark, streams))
        single = jobs(
            "table2-single",
            lambda: table2_stats_df(stream_to_spark(spark, s), name).toPandas(),
        )
        assert six == one == single

