"""Stream <-> Spark DataFrame bridge and Table 2's Spark SQL statistics.

The canonical stream schema (:data:`STREAM_ARROW_SCHEMA`) is one row per
record:

    record_idx BIGINT, segment INT, statistic DOUBLE, pred BOOLEAN,
    proxy DOUBLE

Streams cross into Spark as Arrow tables built straight from the numpy
arrays.  Several streams cross as one concatenated table with an integer
dataset code column, so one ``createDataFrame`` and one grouped aggregate
serve all of them: one Arrow payload that Spark's executors deserialise
in parallel, instead of one driver-side local relation per stream.  That
table (:data:`TABLE2_ARROW_SCHEMA`) carries only the columns Table 2
aggregates, not the record index and segment.

Table 2's predicate positivity rates and proxy correlations are
DataFrame aggregations here, which the DuckDB oracle verifies.  The
ground truths the evaluation scores against are numpy
(``repro.datasets.streams.segment_truths``); the test suite checks
``run_trials``' truth column against DuckDB SQL over these tables.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import from_arrow_schema

from repro.core.stratify import check_proxy
from repro.datasets.streams import StreamData

__all__ = [
    "STREAM_ARROW_SCHEMA",
    "STREAM_SCHEMA",
    "DATASET_CODE",
    "TABLE2_ARROW_SCHEMA",
    "stream_to_arrow",
    "stream_to_spark",
    "streams_to_arrow",
    "streams_to_spark",
    "table2_stats_df",
    "table2_grouped_df",
]

#: The canonical record-per-row stream schema.
STREAM_ARROW_SCHEMA = pa.schema(
    [
        ("record_idx", pa.int64()),
        ("segment", pa.int32()),
        ("statistic", pa.float64()),
        ("pred", pa.bool_()),
        ("proxy", pa.float64()),
    ]
)

#: :data:`STREAM_ARROW_SCHEMA` as a Spark schema (the streaming source's).
STREAM_SCHEMA = from_arrow_schema(STREAM_ARROW_SCHEMA)

#: Column :func:`streams_to_spark` adds: the stream's position in its input.
#: An integer, not the name: a string column would be cast to one Spark
#: string per record on the way in, for a handful of distinct values.
DATASET_CODE = "dataset_code"

#: :func:`streams_to_arrow`'s schema: the columns Table 2 reads.
TABLE2_ARROW_SCHEMA = pa.schema(
    [
        (DATASET_CODE, pa.int32()),
        STREAM_ARROW_SCHEMA.field("statistic"),
        STREAM_ARROW_SCHEMA.field("pred"),
        STREAM_ARROW_SCHEMA.field("proxy"),
    ]
)


def stream_to_arrow(stream: StreamData) -> pa.Table:
    """Flatten a stream into the canonical record-per-row Arrow table.

    Raises ``ValueError`` on NaN proxy scores (:func:`check_proxy`).
    """
    check_proxy(stream.proxy)
    idx = np.arange(stream.n_records, dtype=np.int64)
    return pa.Table.from_arrays(
        [
            idx,
            (idx // stream.seg_len).astype(np.int32),
            stream.statistic,
            stream.pred,
            stream.proxy,
        ],
        schema=STREAM_ARROW_SCHEMA,
    )


def stream_to_spark(spark: SparkSession, stream: StreamData) -> DataFrame:
    """Create the canonical stream DataFrame from its Arrow table."""
    return spark.createDataFrame(stream_to_arrow(stream))


def streams_to_arrow(streams: dict[str, StreamData]) -> pa.Table:
    """All streams in one :data:`TABLE2_ARROW_SCHEMA` table;
    :data:`DATASET_CODE` ``i`` marks the rows of the ``i``-th stream of
    ``streams``.

    Raises ``ValueError`` on NaN proxy scores (:func:`check_proxy`).
    """
    tables = []
    for code, stream in enumerate(streams.values()):
        check_proxy(stream.proxy)
        codes = np.full(stream.n_records, code, dtype=np.int32)
        tables.append(
            pa.Table.from_arrays(
                [codes, stream.statistic, stream.pred, stream.proxy],
                schema=TABLE2_ARROW_SCHEMA,
            )
        )
    return pa.concat_tables(tables)


def streams_to_spark(
    spark: SparkSession, streams: dict[str, StreamData]
) -> DataFrame:
    """:func:`streams_to_arrow` as one Spark DataFrame, at most one
    partition per core.

    Above ``spark.sql.execution.arrow.localRelationThreshold`` the table
    crosses as one partition per Arrow batch (300 for six 500k-record
    streams), and each partition would cost a Spark task.  ``coalesce``
    merges them without a shuffle.  A smaller table is a local relation,
    which already has at most one partition per core.
    """
    df = spark.createDataFrame(streams_to_arrow(streams))
    return df.coalesce(spark.sparkContext.defaultParallelism)


def _table2_aggs() -> list[Column]:
    """Positivity rate ``p`` and proxy Pearson ``r``.

    ``r`` is the correlation between the proxy and the predicate-masked
    ground-truth statistic, the quantity the generators calibrate.
    """
    masked = F.when(F.col("pred"), F.col("statistic")).otherwise(F.lit(0.0))
    return [
        F.avg(F.col("pred").cast("double")).alias("p"),
        F.corr(F.col("proxy"), masked).alias("r"),
    ]


def table2_stats_df(stream_df: DataFrame, name: str) -> DataFrame:
    """One Table 2 row: dataset name, positivity rate p, proxy Pearson r."""
    return stream_df.agg(F.lit(name).alias("dataset"), *_table2_aggs())


def table2_grouped_df(streams_df: DataFrame) -> DataFrame:
    """Table 2's p and r per :data:`DATASET_CODE` of a
    :func:`streams_to_spark` frame, in one grouped aggregate."""
    return streams_df.groupBy(DATASET_CODE).agg(*_table2_aggs())
