"""Structured Streaming deployment tests: one micro-batch per segment."""
import time

import numpy as np
import pyarrow.parquet as pq
import pytest
from py4j.protocol import Py4JJavaError
from pyspark.errors import StreamingQueryException
from pyspark.sql.streaming import StreamingQueryListener

from repro.core.inquest import (
    InQuestConfig,
    InQuestState,
    inquest_trial,
    segment_slices,
)
from repro.datasets.streams import generate
from repro.sparkops.stream_df import (
    STREAM_ARROW_SCHEMA,
    stream_to_arrow,
    stream_to_spark,
)
from repro.streaming import job
from repro.streaming.job import (
    CHECKPOINT_FILE_MANAGER_KEY,
    STREAM_SCHEMA,
    run_streaming_inquest,
    write_segment_files,
)

_N, _SEG = 8_000, 2_000
_CONFIG = InQuestConfig(n_per_segment=100)
#: Spark's default manager for ``file://`` checkpoints.
_FILE_CONTEXT_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing."
    "FileContextBasedCheckpointFileManager"
)


class _RunIds(StreamingQueryListener):
    """Keeps the run id of every query started while it is registered."""

    def __init__(self) -> None:
        self.run_ids: list[str] = []

    def onQueryStarted(self, event) -> None:
        self.run_ids.append(str(event.runId))

    def onQueryProgress(self, event) -> None:
        pass

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        pass


def _drain(spark, source_dir) -> list[dict]:
    """Drain ``source_dir``; the session's conf must come back untouched."""
    out = run_streaming_inquest(spark, source_dir, config=_CONFIG, seed=11)
    assert spark.conf.get(CHECKPOINT_FILE_MANAGER_KEY, None) is None
    return out


@pytest.fixture(scope="module")
def stream():
    return generate("grand-canal", n_records=_N, seg_len=_SEG)


@pytest.fixture(scope="module")
def source_dir(tmp_path_factory, stream):
    d = tmp_path_factory.mktemp("segments")
    write_segment_files(stream, d)
    return d


@pytest.fixture(scope="module")
def outputs(spark, source_dir):
    return _drain(spark, source_dir)


class TestWriteSegmentFiles:
    def test_one_file_per_segment(self, source_dir, stream):
        files = sorted(source_dir.glob("segment-*.parquet"))
        assert len(files) == stream.n_segments

    def test_mtimes_strictly_increasing(self, source_dir):
        files = sorted(source_dir.glob("segment-*.parquet"))
        mtimes = [f.stat().st_mtime for f in files]
        assert all(a < b for a, b in zip(mtimes, mtimes[1:]))

    def test_files_partition_the_stream(self, source_dir, stream):
        total = sum(
            pq.read_table(f).num_rows for f in source_dir.glob("segment-*.parquet")
        )
        assert total == stream.n_records

    def test_schema_fields(self):
        assert [f.name for f in STREAM_SCHEMA.fields] == [
            "record_idx",
            "segment",
            "statistic",
            "pred",
            "proxy",
        ]

    def test_one_schema_everywhere(self, spark, source_dir, stream):
        # The Arrow table, the Spark DataFrame, the staged files and the
        # streaming source's schema are one schema.
        assert stream_to_arrow(stream).schema == STREAM_ARROW_SCHEMA
        assert stream_to_spark(spark, stream).schema == STREAM_SCHEMA
        for f in source_dir.glob("segment-*.parquet"):
            assert pq.read_schema(f).remove_metadata() == STREAM_ARROW_SCHEMA
        assert spark.read.parquet(str(source_dir)).schema == STREAM_SCHEMA

    def test_segment_files_hold_their_segment(self, source_dir, stream):
        whole = stream_to_arrow(stream)
        for t, f in enumerate(sorted(source_dir.glob("segment-*.parquet"))):
            assert pq.read_table(f).equals(whole.slice(t * _SEG, _SEG))


class TestRunStreamingInquest:
    def test_one_batch_per_segment_in_order(self, outputs, stream):
        assert [r["source_segment"] for r in outputs] == list(
            range(stream.n_segments)
        )

    def test_bit_identical_to_offline_kernel(self, outputs, stream):
        # Same seed, same per-segment RNG -> identical outputs: the
        # streaming deployment IS the offline algorithm.
        state = InQuestState(_CONFIG, seed=11)
        slices = segment_slices(stream.n_records, _SEG)
        assert len(outputs) == len(slices)
        for got, sl in zip(outputs, slices):
            want = state.observe_segment(
                stream.statistic[sl], stream.pred[sl], stream.proxy[sl]
            )
            assert got["estimate"] == want["estimate"]
            assert got["running_estimate"] == want["running_estimate"]
            assert got["oracle_calls"] == want["oracle_calls"]
            assert np.array_equal(got["budgets"], want["budgets"])
            assert np.array_equal(got["boundaries"], want["boundaries"])
        offline = inquest_trial(
            stream.statistic,
            stream.pred,
            stream.proxy,
            seg_len=_SEG,
            total_budget=100 * stream.n_segments,
            seed=11,
        )
        assert [r["estimate"] for r in outputs] == list(offline["seg_estimates"])

    def test_running_estimate_monotone_information(self, outputs, stream):
        # The running estimate must end near the full-query truth.
        truth = stream.statistic[stream.pred].mean()
        assert abs(outputs[-1]["running_estimate"] - truth) < 0.1

    def test_oracle_calls_respect_budget(self, outputs):
        assert all(r["oracle_calls"] == 100 for r in outputs)

    def test_records_read_per_batch(self, outputs, stream):
        assert [r["records"] for r in outputs] == [_SEG] * stream.n_segments

    def test_no_spark_job_per_batch(self, spark, tmp_path, stream):
        # The batch is read on the driver: the stream thread, whose jobs
        # carry the query's run id as their group, starts no Spark job.
        listener = _RunIds()
        spark.streams.addListener(listener)
        try:
            write_segment_files(stream, tmp_path)
            assert len(_drain(spark, tmp_path)) == stream.n_segments
            deadline = time.monotonic() + 10
            while not listener.run_ids and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            spark.streams.removeListener(listener)
        (run_id,) = listener.run_ids
        tracker = spark.sparkContext.statusTracker()
        assert tracker.getJobIdsForGroup(run_id) == []

    def test_batch_spanning_segments_raises(self, spark, tmp_path, stream):
        pq.write_table(
            stream_to_arrow(stream).slice(0, 2 * _SEG),
            tmp_path / "segment-00000.parquet",
        )
        with pytest.raises(StreamingQueryException, match="spans segments"):
            run_streaming_inquest(spark, tmp_path, config=_CONFIG, seed=11)
        assert not spark.streams.active
        assert spark.conf.get(CHECKPOINT_FILE_MANAGER_KEY, None) is None

    def test_timeout_raises_instead_of_partial_results(
        self, spark, tmp_path, stream
    ):
        write_segment_files(stream, tmp_path)
        with pytest.raises(TimeoutError, match="segments processed"):
            run_streaming_inquest(
                spark, tmp_path, config=_CONFIG, seed=11, timeout_s=0.05
            )
        assert not spark.streams.active
        assert spark.conf.get(CHECKPOINT_FILE_MANAGER_KEY, None) is None


class TestCheckpoint:
    def test_every_log_file_has_a_checksum(self, outputs, source_dir):
        # The checkpoint manager still writes Hadoop's .crc files.
        for log in ("offsets", "commits", "sources/0"):
            files = [
                f
                for f in (source_dir / "_checkpoint" / log).iterdir()
                if not f.name.startswith(".")
            ]
            assert files
            for f in files:
                assert (f.parent / f".{f.name}.crc").is_file()

    def test_restart_resumes_from_offsets(self, spark, tmp_path, stream):
        staged, source = tmp_path / "staged", tmp_path / "source"
        files = write_segment_files(stream, staged)
        source.mkdir()
        for f in files[:2]:
            f.rename(source / f.name)  # a rename keeps the later mtimes
        assert [r["source_segment"] for r in _drain(spark, source)] == [0, 1]
        for f in files[2:4]:
            f.rename(source / f.name)
        assert [r["source_segment"] for r in _drain(spark, source)] == [2, 3]
        assert _drain(spark, source) == []

    def test_read_batch_matches_spark_read(
        self, spark, tmp_path, stream, monkeypatch
    ):
        # Both drains of the restart scenario above: the driver-side read
        # gives the table Spark's own scan of the batch gives, sorted.
        read = job.read_batch
        checked = []

        def read_and_compare(batch_df):
            got = read(batch_df)
            checked.append(got.equals(batch_df.toArrow().sort_by("record_idx")))
            return got

        monkeypatch.setattr(job, "read_batch", read_and_compare)
        staged, source = tmp_path / "staged", tmp_path / "source"
        files = write_segment_files(stream, staged)
        source.mkdir()
        for f in files[:2]:
            f.rename(source / f.name)
        assert len(_drain(spark, source)) == 2
        for f in files[2:4]:
            f.rename(source / f.name)
        assert len(_drain(spark, source)) == 2
        assert checked == [True] * 4

    def test_manager_the_session_names_is_kept(
        self, spark, tmp_path, stream, outputs
    ):
        write_segment_files(stream, tmp_path)
        spark.conf.set(CHECKPOINT_FILE_MANAGER_KEY, _FILE_CONTEXT_MANAGER)
        try:
            got = run_streaming_inquest(spark, tmp_path, config=_CONFIG, seed=11)
            assert spark.conf.get(CHECKPOINT_FILE_MANAGER_KEY) == (
                _FILE_CONTEXT_MANAGER
            )
        finally:
            spark.conf.unset(CHECKPOINT_FILE_MANAGER_KEY)
        assert [r["estimate"] for r in got] == [r["estimate"] for r in outputs]

    def test_conf_restored_when_start_raises(self, spark, tmp_path):
        # A regular file where the checkpoint directory must go.
        source = tmp_path / "not-a-directory"
        source.write_text("")
        with pytest.raises(Py4JJavaError, match="ParentNotDirectoryException"):
            run_streaming_inquest(spark, source, config=_CONFIG, seed=11)
        assert not spark.streams.active
        assert spark.conf.get(CHECKPOINT_FILE_MANAGER_KEY, None) is None
