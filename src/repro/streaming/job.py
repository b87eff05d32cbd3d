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
"""
from __future__ import annotations

import os
import time
from pathlib import Path

import pyarrow.parquet as pq
from pyspark.sql import SparkSession

from repro.core.inquest import InQuestConfig, InQuestState
from repro.datasets.streams import StreamData
from repro.sparkops.stream_df import STREAM_SCHEMA, stream_to_arrow

__all__ = ["STREAM_SCHEMA", "write_segment_files", "run_streaming_inquest"]

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
    the observed ``segment`` ids of the batch.  Raises if any micro-batch
    spans more than one segment (would mean file/trigger misconfiguration),
    re-raises the query's own failure, and raises ``TimeoutError`` when
    the backlog is not drained within ``timeout_s``: partial results are
    never returned.

    The query's checkpoint lives in ``source_dir/_checkpoint``, so a second
    call on the same directory resumes after the last committed batch.  It
    is written through :data:`CHECKPOINT_FILE_MANAGER` unless the session
    already names a manager; the session's conf is left as it was found.
    """
    state = InQuestState(config, seed=seed)
    results: list[dict] = []

    def process_batch(batch_df, batch_id: int) -> None:
        pdf = batch_df.toPandas().sort_values("record_idx")
        if pdf.empty:
            return
        segments = pdf["segment"].unique()
        if len(segments) != 1:
            raise RuntimeError(
                f"micro-batch {batch_id} spans segments {sorted(segments)}; "
                "expected exactly one tumbling-window segment per batch"
            )
        out = state.observe_segment(
            pdf["statistic"].to_numpy(),
            pdf["pred"].to_numpy(),
            pdf["proxy"].to_numpy(),
        )
        out["source_segment"] = int(segments[0])
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
