#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the InQuest reproduction.

    python3 perfbench/run.py --workload mc-paper --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Workloads: ``mc-paper``,
``mc-short-segments`` (Tables 2-4 through ``repro.experiments``) and
``stream-drain`` (``repro.streaming.job``).  The seed makes the inputs;
``--seconds`` is how long the timed phase repeats the workload's job
(always at least once).  The command prints a report, then as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  ``perfbench/README.md`` explains the
workloads and metrics.

Everything the run writes goes under ``$CARGO_TARGET_DIR/perfbench``
(default ``.bench_build/perfbench``) inside the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import Context, Outcome

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-paper", "mc-short-segments", "stream-drain")
#: Spark's local master uses at most this many cores (and never more than
#: the process may run on), so runs on different machines stay comparable.
MAX_CORES = 4
DRIVER_MEMORY = "2g"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def configure_environment(work_dir: Path) -> int:
    """Point Spark, its JVM and its Python workers at the checkout.

    Must run before pyspark is imported: the JVM reads these at launch.
    """
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    tmp = work_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work_dir / "spark-local")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        # -XX:-UsePerfData: the JVM would otherwise write /tmp/hsperfdata_*.
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.sql.warehouse.dir={work_dir / 'warehouse'} "
        "pyspark-shell"
    )
    sys.path.insert(0, src)
    return cores


def start_spark(ctx: Context) -> None:
    """Start the session, then warm up Python workers and Arrow."""
    import pandas as pd
    from pyspark.sql import SparkSession

    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName(f"perfbench-{ctx.workload}")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    ctx.spark = spark
    spark.sparkContext.setLogLevel("ERROR")
    t1 = time.perf_counter()
    warm = spark.createDataFrame(pd.DataFrame({"k": [0, 1], "v": [0.0, 1.0]}))
    warm.groupBy("k").applyInPandas(lambda pdf: pdf, schema="k long, v double").collect()
    ctx.session_start_s = t1 - t0
    ctx.warmup_s = time.perf_counter() - t1


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        # The gateway JVM exits when its stdin closes.
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def source_digest() -> str:
    """SHA-256 over the program's source tree (the checkout has no git)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(ctx: Context) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    with open("/proc/meminfo") as fh:
        mem_kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
    jvm = ctx.spark.sparkContext._jvm
    return {
        "cores_used": ctx.cores,
        "cores_online": os.cpu_count(),
        "ram_gb": round(mem_kb / 2**20, 1),
        "jdk": jvm.System.getProperty("java.version"),
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "commit": commit,
        "src_sha256": source_digest(),
    }


def print_report(ctx: Context, outcome: Outcome, machine: dict, trace_path) -> None:
    print(f"perfbench {ctx.workload} seed={ctx.seed} seconds={ctx.seconds:g} "
          f"trace={int(ctx.trace)}")
    print("  machine: " + json.dumps(machine))
    print("  checks: " + json.dumps(outcome.checks))
    print(f"  operations: attempted={outcome.attempted} failed={outcome.failed} "
          f"failed_share={outcome.failed / max(outcome.attempted, 1):.6g}")
    for name, value in outcome.report.items():
        n = outcome.samples.get(name)
        shown = json.dumps(value) if not isinstance(value, tuple) else (
            f"{value[0]:.6g} {value[1]}")
        print(f"  {name} = {shown}" + (f"  (n={n})" if n is not None else ""))
    if trace_path:
        print(f"  spans written to {trace_path}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    # Scratch space of this run (Spark's directories, staged files),
    # removed once the JVM has exited.
    work_dir = out_dir / f"run-{os.getpid()}"
    ctx = Context(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), cores=configure_environment(work_dir),
                  work_dir=work_dir)
    if args.workload == "stream-drain":
        import drain as workload
    else:
        import mc as workload

    try:
        start_spark(ctx)
        outcome = workload.run(ctx)
        machine = stamp(ctx)
    finally:
        if ctx.spark is not None:
            stop_spark(ctx.spark)
        shutil.rmtree(work_dir, ignore_errors=True)

    trace_path = None
    if ctx.trace and outcome.spans is not None:
        trace_path = out_dir / f"spans-{ctx.workload}-seed{ctx.seed}.jsonl"
        outcome.spans.write(trace_path)
    print_report(ctx, outcome, machine, trace_path)
    metrics = outcome.per_layer if ctx.trace else outcome.end_to_end
    correct = all(outcome.checks.values()) and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
