"""Structured Streaming deployment tests: one micro-batch per segment."""
import numpy as np
import pyarrow.parquet as pq
import pytest

from repro.core.inquest import InQuestConfig, inquest_trial
from repro.datasets.streams import generate
from repro.sparkops.stream_df import (
    STREAM_ARROW_SCHEMA,
    stream_to_arrow,
    stream_to_spark,
)
from repro.streaming.job import (
    STREAM_SCHEMA,
    run_streaming_inquest,
    write_segment_files,
)

_N, _SEG = 8_000, 2_000


@pytest.fixture(scope="module")
def stream():
    return generate("grand-canal", n_records=_N, seg_len=_SEG)


@pytest.fixture(scope="module")
def source_dir(tmp_path_factory, stream):
    d = tmp_path_factory.mktemp("segments")
    write_segment_files(stream, d)
    return d


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
    @pytest.fixture(scope="class")
    def outputs(self, spark, source_dir):
        return run_streaming_inquest(
            spark, source_dir, config=InQuestConfig(n_per_segment=100), seed=11
        )

    def test_one_batch_per_segment_in_order(self, outputs, stream):
        assert [r["source_segment"] for r in outputs] == list(
            range(stream.n_segments)
        )

    def test_bit_identical_to_offline_kernel(self, outputs, stream):
        # Same seed, same per-segment RNG -> identical estimates: the
        # streaming deployment IS the offline algorithm.
        offline = inquest_trial(
            stream.statistic,
            stream.pred,
            stream.proxy,
            seg_len=_SEG,
            total_budget=100 * stream.n_segments,
            seed=11,
        )
        got = np.array([r["estimate"] for r in outputs])
        assert np.allclose(got, offline["seg_estimates"], atol=0, rtol=0)

    def test_running_estimate_monotone_information(self, outputs, stream):
        # The running estimate must end near the full-query truth.
        truth = stream.statistic[stream.pred].mean()
        assert abs(outputs[-1]["running_estimate"] - truth) < 0.1

    def test_oracle_calls_respect_budget(self, outputs):
        assert all(r["oracle_calls"] == 100 for r in outputs)

    def test_timeout_raises_instead_of_partial_results(
        self, spark, tmp_path, stream
    ):
        write_segment_files(stream, tmp_path)
        with pytest.raises(TimeoutError, match="segments processed"):
            run_streaming_inquest(
                spark,
                tmp_path,
                config=InQuestConfig(n_per_segment=100),
                seed=11,
                timeout_s=0.05,
            )
        assert not spark.streams.active
