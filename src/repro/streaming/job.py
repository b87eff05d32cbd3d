"""Run InQuest as a Structured Streaming query over a file-source stream.

The repro-band guidance for this paper maps segments to micro-batches:
the proxy is scored on every record of the batch, the oracle columns are
read only at the sampled indices, and the running query estimate is
emitted after each batch.  :func:`write_segment_files` materialises a
stream as one parquet file per segment with strictly increasing mtimes
(Spark's file source orders batches by modification time), and
:func:`run_streaming_inquest` executes the query with
``maxFilesPerTrigger = 1`` + ``Trigger.AvailableNow`` so each micro-batch
is exactly one segment, in order.

Spark decides each batch's files, its order, offsets, commits and restart
point; ``foreachBatch`` then reads the batch's files on the driver
(:func:`read_batch`) instead of collecting the batch DataFrame, which
would run a one-task Spark scan job per batch (DESIGN.md section 7).
"""
from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession

from repro.core.inquest import InQuestConfig, InQuestState
from repro.datasets.streams import StreamData
from repro.sparkops.stream_df import (
    STREAM_ARROW_SCHEMA,
    STREAM_SCHEMA,
    stream_to_arrow,
)

__all__ = [
    "STREAM_SCHEMA",
    "write_segment_files",
    "read_batch",
    "run_streaming_inquest",
]

#: Spark's default checkpoint manager for ``file://`` paths goes through
#: Hadoop's ``FileContext``, which, without the native Hadoop library, forks
#: an external command (``chmod`` and the like) for each permission call it
#: makes on create and rename; a micro-batch makes three metadata-log writes.
#: The ``FileSystem``-based manager makes fewer such calls and still writes
#: a temp file, renames it (atomic on a local disk) and writes ``.crc``
#: checksums.  See DESIGN.md section 7.
CHECKPOINT_FILE_MANAGER_KEY = "spark.sql.streaming.checkpointFileManagerClass"
CHECKPOINT_FILE_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing."
    "FileSystemBasedCheckpointFileManager"
)


def write_segment_files(stream: StreamData, directory: str | Path) -> list[Path]:
    """One parquet file per segment, mtimes forcing arrival order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table = stream_to_arrow(stream)
    base = time.time() - stream.n_segments * 10
    paths = []
    for t in range(stream.n_segments):
        path = directory / f"segment-{t:05d}.parquet"
        pq.write_table(table.slice(t * stream.seg_len, stream.seg_len), path)
        os.utime(path, (base + t * 10, base + t * 10))
        paths.append(path)
    return paths


def _batch_files(batch_df: DataFrame) -> list[str]:
    """URIs of the files Spark planned for one ``foreachBatch`` micro-batch.

    The batch's logical plan is a ``LogicalRDD`` over the executed plan's
    RDD; its lineage ends in the ``FileScanRDD`` whose partitions name the
    batch's files.  Walking it is a few Py4J calls and runs no Spark job.
    (``DataFrame.inputFiles()`` is empty inside ``foreachBatch``.)  Raises
    ``RuntimeError`` when the lineage holds no file scan.
    """
    uris: set[str] = set()
    stack = [batch_df._jdf.queryExecution().logical().rdd()]
    while stack:
        rdd = stack.pop()
        if rdd.getClass().getSimpleName() == "FileScanRDD":
            partitions = rdd.filePartitions()
            for i in range(partitions.size()):
                uris.update(f.urlEncodedPath() for f in partitions.apply(i).files())
            continue
        deps = rdd.dependencies().iterator()
        while deps.hasNext():
            stack.append(deps.next().rdd())
    if not uris:
        raise RuntimeError("the micro-batch's lineage holds no FileScanRDD")
    return sorted(uris)


def read_batch(batch_df: DataFrame) -> pa.Table:
    """A micro-batch's rows, read on the driver from its files.

    A file-stream batch holds whole files (byte ranges only split Spark's
    own scan), so each of :func:`_batch_files` is read whole, cast to
    :data:`STREAM_ARROW_SCHEMA`, and the rows are sorted by ``record_idx``:
    the table ``batch_df.toArrow()`` would give, sorted, without the Spark
    job that scan runs.
    """
    tables = []
    for uri in _batch_files(batch_df):
        with pq.ParquetFile(uri) as f:
            tables.append(f.read(columns=STREAM_ARROW_SCHEMA.names))
    table = pa.concat_tables(tables).cast(STREAM_ARROW_SCHEMA)
    return table.sort_by("record_idx")


def run_streaming_inquest(
    spark: SparkSession,
    source_dir: str | Path,
    *,
    config: InQuestConfig,
    seed: int = 0,
    timeout_s: float = 300.0,
) -> list[dict]:
    """Execute InQuest over the file stream; return per-batch results.

    Each returned dict is ``InQuestState.observe_segment``'s output plus
    the batch's ``source_segment`` id and ``records``, the rows read.
    Raises if any micro-batch spans more than one segment (would mean
    file/trigger misconfiguration), re-raises the query's own failure, and
    raises ``TimeoutError`` when the backlog is not drained within
    ``timeout_s``: partial results are never returned.

    Each batch is read on the driver by :func:`read_batch`, so Spark scans
    no rows: the query's progress events report ``numInputRows`` = 0, and
    ``records`` is where the rows read are counted.

    The query's checkpoint lives in ``source_dir/_checkpoint``, so a second
    call on the same directory resumes after the last committed batch.  It
    is written through :data:`CHECKPOINT_FILE_MANAGER` unless the session
    already names a manager; the session's conf is left as it was found.
    """
    state = InQuestState(config, seed=seed)
    results: list[dict] = []

    def process_batch(batch_df, batch_id: int) -> None:
        table = read_batch(batch_df)
        if table.num_rows == 0:
            return
        segments = np.unique(table["segment"].to_numpy())
        if len(segments) != 1:
            raise RuntimeError(
                f"micro-batch {batch_id} spans segments {segments.tolist()}; "
                "expected exactly one tumbling-window segment per batch"
            )
        out = state.observe_segment(
            table["statistic"].to_numpy(),
            table["pred"].to_numpy(),
            table["proxy"].to_numpy(),
        )
        out["source_segment"] = int(segments[0])
        out["records"] = table.num_rows
        results.append(out)

    # A manager the session already names is left in place.  Ours stays set
    # until the query has terminated: the stream thread creates the file
    # source's metadata log after start() returns.
    set_manager = spark.conf.get(CHECKPOINT_FILE_MANAGER_KEY, None) is None
    if set_manager:
        spark.conf.set(CHECKPOINT_FILE_MANAGER_KEY, CHECKPOINT_FILE_MANAGER)
    try:
        query = (
            spark.readStream.schema(STREAM_SCHEMA)
            .option("maxFilesPerTrigger", 1)
            .parquet(str(source_dir))
            .writeStream.foreachBatch(process_batch)
            .trigger(availableNow=True)
            .option(
                "checkpointLocation",
                str(Path(source_dir) / "_checkpoint"),
            )
            .start()
        )
        try:
            finished = query.awaitTermination(timeout_s)
        finally:
            query.stop()
    finally:
        if set_manager:
            spark.conf.unset(CHECKPOINT_FILE_MANAGER_KEY)
    error = query.exception()
    if error is not None:
        raise error
    if not finished:
        done = [r["source_segment"] for r in results]
        raise TimeoutError(
            f"streaming query over {source_dir} did not finish within "
            f"{timeout_s} s; segments processed: {done}"
        )
    return results
