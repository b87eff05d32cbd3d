"""Streaming micro-batch latency by Spark phase, per checkpoint file manager.

    PYTHONPATH=src python benchmarks/bench_streaming.py [--seed 0] \
        [--out BENCH_streaming_checkpoint.json] [--label TEXT]

Stages 101 segments of 10k ``archie`` records (one parquet file each, by
``write_segment_files``) and drains them with ``run_streaming_inquest``,
each drain from a fresh directory, with two checkpoint managers: the one
the function names, and ``FileContextBasedCheckpointFileManager`` named by
the session (Spark's default for ``file://`` checkpoints, which the
function used before it named its own).  After one untimed warm-up drain,
the managers run in the order A B B A.  For each manager it records the
two wall times, p50 and p90 over the 202 micro-batches of each
``StreamingQueryProgress.durationMs`` phase, and the process ids allocated
per micro-batch (the ``/proc/loadavg`` counter; it counts forked commands;
``None`` when the counter went backwards during a drain).
Every drain must give the same outputs, or the run fails.  With ``--out``
the run is appended, with the machine and commit it ran on, to that JSON
file's ``runs``.
"""
from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
from bench_kernels import append_run
from pyspark.sql.streaming import StreamingQueryListener

from repro.core.inquest import InQuestConfig
from repro.datasets.streams import generate
from repro.session import get_spark
from repro.streaming.job import (
    CHECKPOINT_FILE_MANAGER,
    CHECKPOINT_FILE_MANAGER_KEY,
    run_streaming_inquest,
    write_segment_files,
)

SEG_LEN = 10_000
N_SEGMENTS = 101
BUDGET = 2500
PHASES = ("latestOffset", "walCommit", "commitOffsets", "addBatch", "getBatch",
          "queryPlanning", "triggerExecution")
#: Spark's default manager for ``file://`` checkpoints: the "before" path.
FILE_CONTEXT_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing."
    "FileContextBasedCheckpointFileManager"
)
LISTENER_WAIT_S = 10.0


class ProgressListener(StreamingQueryListener):
    """Keeps each micro-batch's ``durationMs``, by batch id."""

    def __init__(self) -> None:
        self.durations: dict[int, dict] = {}
        self._lock = threading.Lock()

    def onQueryStarted(self, event) -> None:
        pass

    def onQueryProgress(self, event) -> None:
        with self._lock:
            self.durations[event.progress.batchId] = dict(event.progress.durationMs)

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        pass

    def wait_for(self, n: int) -> list[dict]:
        """Batches ``0..n-1``'s durations; raises if they do not all arrive."""
        deadline = time.monotonic() + LISTENER_WAIT_S
        while True:
            with self._lock:
                if all(b in self.durations for b in range(n)):
                    return [self.durations[b] for b in range(n)]
            if time.monotonic() > deadline:
                raise RuntimeError(f"progress events for {n} batches did not arrive")
            time.sleep(0.02)


def _last_pid() -> int | None:
    """The kernel's last allocated process id, or None off Linux."""
    try:
        return int(Path("/proc/loadavg").read_text().split()[-1])
    except (OSError, ValueError, IndexError):
        return None


def drain(spark, stream, config: InQuestConfig, work: Path, manager: str | None) -> dict:
    """Stage ``stream`` in a fresh directory and drain it once."""
    source = Path(tempfile.mkdtemp(prefix="drain-", dir=work))
    listener = ProgressListener()
    spark.streams.addListener(listener)
    if manager is not None:
        spark.conf.set(CHECKPOINT_FILE_MANAGER_KEY, manager)
    try:
        write_segment_files(stream, source)
        pid0, t0 = _last_pid(), time.perf_counter()
        outputs = run_streaming_inquest(spark, source, config=config)
        drain_s, pid1 = time.perf_counter() - t0, _last_pid()
        durations = listener.wait_for(stream.n_segments)
    finally:
        if manager is not None:
            spark.conf.unset(CHECKPOINT_FILE_MANAGER_KEY)
        spark.streams.removeListener(listener)
        shutil.rmtree(source, ignore_errors=True)
    # The counter wraps at pid_max and the kernel may reuse lower ids, so
    # a counter that went backwards says nothing about the forks.
    pids = None if pid0 is None or pid1 is None or pid1 < pid0 else pid1 - pid0
    return {"drain_s": drain_s, "pids": pids, "durations": durations, "outputs": outputs}


def summarise(drains: list[dict]) -> dict:
    """Wall times, and p50/p90 of each phase over all the drains' batches."""
    durations = [d for r in drains for d in r["durations"]]
    phases = {}
    for key in PHASES:
        ms = [d.get(key, 0.0) for d in durations]
        phases[key] = {"p50": float(np.percentile(ms, 50)),
                       "p90": float(np.percentile(ms, 90))}
    pids = [r["pids"] for r in drains]
    return {"drain_s": [r["drain_s"] for r in drains], "batches": len(durations),
            "pids_per_batch": None if None in pids else sum(pids) / len(durations),
            "duration_ms": phases}


def _same(a: list[dict], b: list[dict]) -> bool:
    keys = ("source_segment", "estimate", "running_estimate", "oracle_calls")
    return len(a) == len(b) and all(
        all(x[k] == y[k] for k in keys)
        and np.array_equal(x["budgets"], y["budgets"])
        and np.array_equal(x["boundaries"], y["boundaries"])
        for x, y in zip(a, b)
    )


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)

    stream = generate("archie", n_records=N_SEGMENTS * SEG_LEN, seg_len=SEG_LEN,
                      seed=args.seed)
    config = InQuestConfig(n_per_segment=BUDGET // N_SEGMENTS)
    os.environ.setdefault("SPARK_DRIVER_MEM", "2g")
    spark = get_spark("bench-streaming")
    spark.sparkContext.setLogLevel("ERROR")
    work = Path(tempfile.mkdtemp(prefix="bench-streaming-"))
    # The manager each drain runs with -> what the session names (None: the
    # function picks its own).  A B B A, so neither runs on a warmer JVM.
    session_names = {CHECKPOINT_FILE_MANAGER: None, FILE_CONTEXT_MANAGER: FILE_CONTEXT_MANAGER}
    drains: dict[str, list[dict]] = {m: [] for m in session_names}
    try:
        drain(spark, stream, config, work, None)  # warms up the JVM; untimed
        for manager in [*session_names, *reversed(session_names)]:
            drains[manager].append(
                drain(spark, stream, config, work, session_names[manager]))
    finally:
        spark.stop()
        shutil.rmtree(work, ignore_errors=True)
    outputs = [r["outputs"] for rs in drains.values() for r in rs]
    if not all(_same(outputs[0], o) for o in outputs[1:]):
        raise AssertionError("the checkpoint managers gave different outputs")
    runs = {m.rsplit(".", 1)[1]: summarise(rs) for m, rs in drains.items()}

    print(f"{'':<32}" + "".join(f"{name.replace('CheckpointFileManager', ''):>18}"
                                 for name in runs))
    for key in PHASES:
        cells = (f"{r['duration_ms'][key]['p50']:.1f} / {r['duration_ms'][key]['p90']:.1f}"
                 for r in runs.values())
        print(f"{key + ' p50 / p90 (ms)':<32}" + "".join(f"{c:>18}" for c in cells))
    walls = (" / ".join(f"{x:.2f}" for x in r["drain_s"]) for r in runs.values())
    print(f"{'drain_s':<32}" + "".join(f"{w:>18}" for w in walls))
    pids = ("-" if r["pids_per_batch"] is None else f"{r['pids_per_batch']:.1f}"
            for r in runs.values())
    print(f"{'pids_per_batch':<32}" + "".join(f"{p:>18}" for p in pids))
    if args.out:
        append_run(args.out, args.label, {
            "seed": args.seed, "segments": N_SEGMENTS, "seg_len": SEG_LEN,
            "budget": BUDGET, "results": [{"manager": name, **r} for name, r in runs.items()],
        })


if __name__ == "__main__":
    main()
