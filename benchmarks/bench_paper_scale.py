"""Wall time, Spark jobs and Spark tasks of Tables 2-4 at the paper's scale.

    PYTHONPATH=src python benchmarks/bench_paper_scale.py [--trials 200] \
        [--out BENCH_spark_stages.json] [--label TEXT]

Run it as a fresh process: it generates the six seed-0 streams of 500k
records (T = 5), starts Spark, then runs in turn ``table2`` twice (the
first call is the cold one, the session's first Spark job) and
``table34`` without and with a predicate at the paper's budgets
(``FULL_BUDGETS``, 500..5000) with ``--trials`` trials each; the
no-predicate call at 200 trials is the full-scale Table 3.  Each phase
runs in its own Spark job group and records its wall time, the Spark jobs
and tasks of the group, and the task count of its widest stage.  Table 2
must equal numpy to 1e-9, or the run fails.  With ``--out`` the run is
appended, with the machine and commit it ran on, to that JSON file's
``runs``.
"""
from __future__ import annotations

import argparse
import os
import time
from functools import partial
from pathlib import Path

import numpy as np
from bench_kernels import append_run

from repro.experiments import FULL_BUDGETS, load_streams, table2, table34
from repro.session import get_spark

MODES = ("nopred", "pred")
#: How long to wait for a finished group's jobs to leave RUNNING.
JOB_STATUS_WAIT_S = 5.0


def spark_counts(sc, group: str) -> dict:
    """Jobs, tasks and the widest stage's tasks of job group ``group``."""
    tracker = sc.statusTracker()
    deadline = time.monotonic() + JOB_STATUS_WAIT_S
    while True:
        infos = [tracker.getJobInfo(j) for j in tracker.getJobIdsForGroup(group)]
        if all(i is not None and i.status != "RUNNING" for i in infos):
            break
        if time.monotonic() > deadline:
            raise RuntimeError(f"jobs of {group} did not finish")
        time.sleep(0.01)
    stages = [tracker.getStageInfo(s) for i in infos for s in i.stageIds]
    tasks = [s.numCompletedTasks for s in stages if s is not None]
    return {"spark_jobs": len(infos), "tasks": sum(tasks),
            "max_stage_tasks": max(tasks, default=0)}


def phase(sc, name: str, fn) -> tuple[dict, object]:
    """Run ``fn`` in job group ``name``; its wall time and Spark counts."""
    sc.setJobGroup(name, name)
    try:
        t0 = time.perf_counter()
        out = fn()
        wall_s = time.perf_counter() - t0
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return {"phase": name, "wall_s": wall_s, **spark_counts(sc, name)}, out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    streams = load_streams()
    generate_s = time.perf_counter() - t0
    os.environ.setdefault("SPARK_DRIVER_MEM", "2g")
    t0 = time.perf_counter()
    spark = get_spark("bench-paper-scale")
    session_start_s = time.perf_counter() - t0
    spark.sparkContext.setLogLevel("ERROR")
    sc = spark.sparkContext
    steps = [("table2.cold", partial(table2, spark, streams)),
             ("table2.warm", partial(table2, spark, streams))]
    steps += [(f"table34.{mode}", partial(table34, spark, streams, mode=mode,
                                          budgets=FULL_BUDGETS, n_trials=args.trials))
              for mode in MODES]
    phases, outputs = [], {}
    try:
        for name, fn in steps:
            record, outputs[name] = phase(sc, name, fn)
            phases.append(record)
        parallelism = sc.defaultParallelism
    finally:
        spark.stop()

    t2 = outputs["table2.warm"]
    for row, s in zip(t2.itertuples(), streams.values()):
        r = np.corrcoef(s.proxy, np.where(s.pred, s.statistic, 0.0))[0, 1]
        if abs(row.p - s.pred.mean()) > 1e-9 or abs(row.r - r) > 1e-9:
            raise AssertionError(f"Table 2 differs from numpy for {row.dataset}")
    summaries = {
        mode: outputs[f"table34.{mode}"]["summary"]["All"].to_dict() for mode in MODES
    }

    print(f"default parallelism {parallelism}; generate {generate_s:.2f} s, "
          f"session start {session_start_s:.2f} s")
    print(f"{'phase':<16}{'wall s':>8}{'jobs':>6}{'tasks':>7}{'widest stage':>14}")
    for p in phases:
        print(f"{p['phase']:<16}{p['wall_s']:>8.2f}{p['spark_jobs']:>6}{p['tasks']:>7}"
              f"{p['max_stage_tasks']:>14}")
    if args.out:
        append_run(args.out, args.label, {
            "records": next(iter(streams.values())).n_records,
            "streams": len(streams),
            "budgets": list(FULL_BUDGETS),
            "trials": args.trials,
            "default_parallelism": parallelism,
            "generate_s": generate_s,
            "session_start_s": session_start_s,
            "phases": phases,
            "all_budgets_geomean_rmse": summaries,
        })


if __name__ == "__main__":
    main()
