"""Streaming workload: drain a staged backlog with ``run_streaming_inquest``.

One predicate stream is staged by ``write_segment_files`` as one parquet
file per segment, in a fresh directory for every drain (the query's
checkpoint lives inside the source directory, so a reused one would
resume).  The drain is closed-loop: ``run_streaming_inquest`` hard-codes
``Trigger.AvailableNow``, so the query takes the whole backlog, one
segment per micro-batch, as fast as it can.  A benchmark-side
``StreamingQueryListener`` records every micro-batch's progress event.
"""
from __future__ import annotations

import datetime as dt
import shutil
import tempfile
import threading
import time
import uuid

import numpy as np
from pyspark.sql.streaming import StreamingQueryListener

from common import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    Outcome,
    median,
    peak_rss_mb,
    pct,
    timed_observe,
    with_units,
)
from repro.core.inquest import InQuestConfig, InQuestState, segment_slices
from repro.datasets.streams import generate, segment_truths
from repro.streaming.job import run_streaming_inquest, write_segment_files
from spans import Tracer

DATASET = "archie"
SEG_LEN = 10_000
#: 101 segments: p90 of the micro-batch latency has 10 samples above it,
#: and NT // T = 24 calls per segment leave 76 of NT unspent (a known
#: defect the benchmark shows on purpose).
N_RECORDS = 101 * SEG_LEN
BUDGET = 2500
#: Drains per run.  Run-to-run spread of one drain's time was 12-13% of
#: its median over ten seeds on 4 cores; the median of two drains, 7-8%.
DRAINS = 2
DRAIN_TIMEOUT_S = 120.0
#: Longest wait for the listener's progress events after the drain ends.
LISTENER_WAIT_S = 10.0


class ProgressListener(StreamingQueryListener):
    """Keeps each micro-batch's progress: batch id, rows, timings."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._lock = threading.Lock()

    def onQueryStarted(self, event) -> None:
        pass

    def onQueryProgress(self, event) -> None:
        p = event.progress
        start = dt.datetime.fromisoformat(p.timestamp.replace("Z", "+00:00")).timestamp()
        with self._lock:
            self.events.append({"batch": p.batchId, "rows": p.numInputRows,
                                "start_epoch": start, "duration_ms": dict(p.durationMs)})

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        pass

    def wait_for(self, n: int, timeout_s: float) -> list[dict]:
        """The first ``n`` batches' events, waiting at most ``timeout_s``."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if len({e["batch"] for e in self.events}) >= n:
                    break
            time.sleep(0.02)
        with self._lock:
            return sorted(self.events, key=lambda e: e["batch"])


def _drain(ctx, stream, config: InQuestConfig, tracer: Tracer) -> dict:
    """Stage the stream in a fresh directory and drain it once."""
    stage_root = ctx.work_dir / "stage"
    stage_root.mkdir(parents=True, exist_ok=True)
    source = tempfile.mkdtemp(prefix="drain-", dir=stage_root)
    try:
        t0 = time.perf_counter()
        with tracer.span("streaming.write_segment_files"):
            write_segment_files(stream, source)
        stage_s = time.perf_counter() - t0
        listener = ProgressListener()
        ctx.spark.streams.addListener(listener)
        observe_ms: list[float] = []
        try:
            with tracer.span("job"), timed_observe(tracer, observe_ms):
                with tracer.span("streaming.run") as run_span:
                    tracer.fallback_parent = run_span.get("id")
                    t1 = time.perf_counter()
                    results = run_streaming_inquest(
                        ctx.spark, source, config=config, seed=ctx.seed,
                        timeout_s=DRAIN_TIMEOUT_S,
                    )
                    drain_s = time.perf_counter() - t1
            tracer.fallback_parent = None
            events = listener.wait_for(stream.n_segments, LISTENER_WAIT_S)
        finally:
            ctx.spark.streams.removeListener(listener)
    finally:
        shutil.rmtree(source, ignore_errors=True)
    return {"stage_s": stage_s, "drain_s": drain_s, "results": results,
            "events": events, "observe_ms": observe_ms, "run_span": run_span}


def _same(a: dict, b: dict) -> bool:
    return (
        a["segment"] == b["segment"]
        and a["estimate"] == b["estimate"]
        and a["running_estimate"] == b["running_estimate"]
        and a["oracle_calls"] == b["oracle_calls"]
        and np.array_equal(a["budgets"], b["budgets"])
        and np.array_equal(a["boundaries"], b["boundaries"])
    )


def _failed_segments(drain: dict, offline: list[dict]) -> set[int]:
    """Segments dropped, mismatched, or without a progress event.

    ``run_streaming_inquest`` returns whatever it has on timeout, so the
    count is against the stream's segments, not the returned list.
    """
    by_segment = _by_segment(drain["results"])
    batches = {e["batch"] for e in drain["events"]}
    return {t for t, expect in enumerate(offline)
            if t not in by_segment or not _same(by_segment[t], expect) or t not in batches}


def _by_segment(results: list[dict]) -> dict[int, dict]:
    """Streamed results keyed by the segment id the batch carried."""
    return {r["source_segment"]: r for r in results}


def _batch_spans(tracer: Tracer, drain: dict) -> None:
    """Turn progress events into spans under the drain; re-parent observes."""
    offset = time.time() - time.perf_counter()
    parent = drain["run_span"]["id"]
    batches = []
    for e in drain["events"]:
        start = e["start_epoch"] - offset
        batches.append(tracer.add("streaming.batch", start,
                                  start + e["duration_ms"].get("triggerExecution", 0) / 1e3,
                                  parent, batch=e["batch"]))
    for s in tracer.named("core.inquest.observe_segment"):
        mid = (s["start"] + s["end"]) / 2
        for b in batches:
            if b["start"] <= mid <= b["end"]:
                s["parent"] = b["id"]
                break


def run(ctx) -> Outcome:
    seed = ctx.seed
    t0 = time.perf_counter()
    stream = generate(DATASET, n_records=N_RECORDS, seg_len=SEG_LEN, seed=seed)
    generate_s = time.perf_counter() - t0
    n_segments = stream.n_segments
    # The per-segment budget follows inquest_trial: NT // T.
    config = InQuestConfig(n_per_segment=max(1, BUDGET // n_segments))

    tracer = Tracer(uuid.uuid4().hex[:8], enabled=ctx.trace, sc=ctx.spark.sparkContext)
    drains = ctx.timed(lambda: _drain(ctx, stream, config, tracer), min_runs=DRAINS)
    rss_mb = peak_rss_mb()
    overhead_s = tracer.overhead_s

    # Offline reference: the same state machine over the same segments.
    state = InQuestState(config, seed=seed)
    w0, c0 = time.perf_counter(), time.process_time()
    offline = [state.observe_segment(stream.statistic[sl], stream.pred[sl], stream.proxy[sl])
               for sl in segment_slices(stream.n_records, SEG_LEN)]
    replay_ms = (time.perf_counter() - w0) * 1e3
    replay_cpu_s = time.process_time() - c0

    failed = set()
    one_batch_per_segment = True
    for i, d in enumerate(drains):
        failed |= {(i, t) for t in _failed_segments(d, offline)}
        one_batch_per_segment &= (len(d["results"]) == n_segments
                                  and [e["batch"] for e in d["events"]] == list(range(n_segments)))
    checks = {
        "batches_equal_offline_state": not failed,
        "one_batch_per_segment": one_batch_per_segment,
    }

    # Accuracy of the streamed segment estimates against the truth.
    truth = segment_truths(stream, predicate=True)
    last = drains[-1]["results"]
    streamed = _by_segment(last)
    seen = sorted(t for t in streamed if 0 <= t < n_segments)
    est = np.array([streamed[t]["estimate"] for t in seen])
    segment_rmse = float(np.sqrt(np.mean((est - truth[seen]) ** 2)))

    oracle = sum(r["oracle_calls"] for r in last) / BUDGET
    drain_s = median([d["drain_s"] for d in drains])
    stage_s = median([d["stage_s"] for d in drains])
    setup_s = ctx.session_start_s + ctx.warmup_s + generate_s + stage_s
    ops_per_s = median([n_segments / d["drain_s"] for d in drains])
    latency = [e["duration_ms"].get("triggerExecution", 0.0) for d in drains for e in d["events"]]
    rows = sum(e["rows"] for d in drains for e in d["events"])
    end_to_end = with_units({
        "setup_s": setup_s,
        "job_s": drain_s,
        "ops_per_s": ops_per_s,
        "driver_peak_rss_mb": rss_mb,
        "oracle_budget_spent": oracle,
    }, END_TO_END_UNITS)
    report = {
        "setup_s": (setup_s, "s"),
        "drain_s": (drain_s, "s"),
        "segments_per_s": (ops_per_s, "1/s"),
        "segment_latency_p50_ms": (pct(latency, 50), "ms"),
        "segment_latency_p90_ms": (pct(latency, 90), "ms"),
        "stream_records_per_s": (rows / sum(d["drain_s"] for d in drains), "1/s"),
        "segment_rmse": (segment_rmse, "abs"),
        "oracle_budget_spent": (oracle, "ratio"),
        "driver_peak_rss_mb": (rss_mb, "MB"),
        "segments": n_segments,
        "per_segment_budget": config.n_per_segment,
    }
    samples = {"drain_s": len(drains), "segment_latency_p50_ms": len(latency),
               "segment_latency_p90_ms": len(latency), "segment_rmse": len(est)}

    per_layer = {}
    if ctx.trace:
        for d in drains:
            _batch_spans(tracer, d)
        events = [e for d in drains for e in d["events"]]
        observe_ms = [x for d in drains for x in d["observe_ms"]]
        dur = [e["duration_ms"] for e in events]
        gaps = [(b["start_epoch"] - a["start_epoch"]) * 1e3
                - a["duration_ms"].get("triggerExecution", 0.0)
                for d in drains for a, b in zip(d["events"], d["events"][1:])]
        traced_s = tracer.total("job")
        per_layer = {
            "spark.session_start_s": ctx.session_start_s,
            "spark.warmup_s": ctx.warmup_s,
            "datasets.generate_s": generate_s,
            "core.inquest.trial_ms_p50": replay_ms,
            "core.inquest.trial_ms_p90": replay_ms,
            "core.inquest.budget_spent": oracle,
            "core.kernels.cpu_s": replay_cpu_s,
            "core.inquest.observe_segment_ms_p50": pct(observe_ms, 50),
            "core.inquest.observe_segment_ms_p90": pct(observe_ms, 90),
            "streaming.write_segment_files_s": stage_s,
            "streaming.batches": len(events),
            "streaming.add_batch_ms_p50": pct([d.get("addBatch", 0.0) for d in dur], 50),
            "streaming.latest_offset_ms_p50": pct([d.get("latestOffset", 0.0) for d in dur], 50),
            "streaming.wal_commit_ms_p50": pct([d.get("walCommit", 0.0) for d in dur], 50),
            "streaming.between_batches_ms": pct(gaps, 50),
            "streaming.observe_share": sum(observe_ms) / sum(latency),
            "trace.job_s": drain_s,
            "trace.overhead_share": overhead_s / traced_s,
            "trace.uncovered_s": tracer.self_times().get("job", 0.0),
        }
        samples.update({"core.inquest.observe_segment_ms": len(observe_ms),
                        "core.inquest.trial_ms": 1,
                        "streaming.between_batches_ms": len(gaps)})
        report["self_s_by_layer"] = {k: round(v, 4)
                                     for k, v in sorted(tracer.self_times().items())}
    return Outcome(
        end_to_end=end_to_end,
        per_layer=with_units(per_layer, PER_LAYER_UNITS),
        report=report,
        attempted=n_segments * len(drains),
        failed=len(failed),
        checks=checks,
        spans=tracer,
        samples=samples,
    )
