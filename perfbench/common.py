"""Pieces shared by the workloads: run context, outcome, metric sets."""
from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: End-to-end metrics every workload prints with ``--trace 0``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "ops_per_s": "1/s",
    "driver_peak_rss_mb": "MB",
    "oracle_budget_spent": "ratio",
}

ALGOS = ("uniform", "stratified", "abae", "inquest")

#: Per-layer metrics every workload prints with ``--trace 1``.  A layer
#: the workload never calls reads 0 (no calls, no time).
PER_LAYER_UNITS = {
    "spark.session_start_s": "s",
    "spark.warmup_s": "s",
    "datasets.generate_s": "s",
    **{f"core.{a}.trial_ms_{q}": "ms" for a in ALGOS for q in ("p50", "p90")},
    "core.kernels.cpu_s": "s",
    "core.inquest.observe_segment_ms_p50": "ms",
    "core.inquest.observe_segment_ms_p90": "ms",
    **{f"core.{a}.budget_spent": "ratio" for a in ALGOS},
    "trials.run_s": "s",
    "trials.spark_jobs": "count",
    "trials.tasks": "count",
    "trials.grid_rows": "count",
    "trials.result_rows": "count",
    "trials.broadcast_bytes": "bytes",
    "trials.parallel_efficiency": "ratio",
    "metrics.collect_s": "s",
    "metrics.rows_in": "count",
    "metrics.spark_jobs": "count",
    "stream_df.to_spark_s": "s",
    "stream_df.stats_collect_s": "s",
    "stream_df.spark_jobs": "count",
    "streaming.write_segment_files_s": "s",
    "streaming.batches": "count",
    "streaming.add_batch_ms_p50": "ms",
    "streaming.latest_offset_ms_p50": "ms",
    "streaming.wal_commit_ms_p50": "ms",
    "streaming.between_batches_ms": "ms",
    "streaming.observe_share": "ratio",
    "trace.job_s": "s",
    "trace.overhead_share": "ratio",
    "trace.uncovered_s": "s",
}


@dataclass
class Context:
    """What a workload needs from the harness."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    cores: int
    work_dir: Path
    spark: object = None
    session_start_s: float = 0.0
    warmup_s: float = 0.0

    def timed(self, job, *, min_runs: int = 1):
        """Repeat ``job`` for about ``seconds``, and at least ``min_runs`` times.

        Past ``min_runs``, another repetition starts only if it would end
        no more than half a repetition after the deadline.  Returns each
        repetition's result.
        """
        results, t0 = [], time.perf_counter()
        while True:
            t = time.perf_counter()
            results.append(job())
            last = time.perf_counter() - t
            if (len(results) >= min_runs
                    and time.perf_counter() - t0 + last / 2 >= self.seconds):
                return results


@dataclass
class Outcome:
    """A workload's measurements and check results."""

    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    report: dict[str, object]
    attempted: int
    failed: int
    checks: dict[str, bool]
    spans: object = None
    samples: dict[str, int] = field(default_factory=dict)


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    """Attach units; names missing from ``values`` read 0."""
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics without a declared unit: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in units.items()}


def peak_rss_mb() -> float:
    """Peak resident set size of this (the Spark driver's Python) process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def geomean(values) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=float)))))


@contextmanager
def timed_observe(tracer, samples_ms: list):
    """Time every ``InQuestState.observe_segment`` call made meanwhile.

    Wraps the class attribute, so calls from Spark's foreachBatch
    callback thread are timed too; restores it on exit.  Does nothing
    when the tracer is off, so untraced runs execute the program as is.
    """
    if not tracer.enabled:
        yield
        return
    # Imported here: this module loads before the program's source is on
    # sys.path.
    from repro.core.inquest import InQuestState

    original = InQuestState.observe_segment

    def observe_segment(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = original(self, *args, **kwargs)
        t1 = time.perf_counter()
        samples_ms.append((t1 - t0) * 1e3)
        tracer.add("core.inquest.observe_segment", t0, t1, tracer.current())
        tracer.overhead_s += time.perf_counter() - t1
        return out

    InQuestState.observe_segment = observe_segment
    try:
        yield
    finally:
        InQuestState.observe_segment = original
