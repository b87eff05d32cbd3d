"""Per-trial kernel time with a prebuilt plan, and plan build time.

    PYTHONPATH=src python benchmarks/bench_kernels.py [--trials 20] \
        [--out BENCH_strata_plans.json] [--label TEXT]

For each algorithm x {100k, 500k} records (T = 5) x NT {500, 5000} on the
``archie`` stream with its predicate, it times building the algorithm's
seed-independent plan, then ``--trials`` trials run from that plan, then
the same kernel building its own plan (what a trial cost before plans
were shared).  Every planned trial must equal the unplanned one bit for
bit, or the run fails.  No Spark.  With ``--out`` the run is appended,
with the machine and commit it ran on, to that JSON file's ``runs``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.datasets.streams import generate
from repro.sparkops.trials import ALGORITHMS

ALGOS = ("uniform", "stratified", "abae", "inquest")
SIZES = (100_000, 500_000)
BUDGETS = (500, 5000)


def _ms(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return (time.perf_counter() - t0) * 1e3, out


def _same(a: dict, b: dict) -> bool:
    return (
        np.array_equal(a["seg_estimates"], b["seg_estimates"])
        and a["full_estimate"] == b["full_estimate"]
        and a["oracle_calls"] == b["oracle_calls"]
    )


def measure(n_records: int, n_trials: int) -> list[dict]:
    s = generate("archie", n_records=n_records, seg_len=n_records // 5, seed=0)
    rows = []
    for algo in ALGOS:
        spec = ALGORITHMS[algo]
        build_ms, plan = [], None
        if spec.plan is not None:
            for _ in range(3):
                ms, plan = _ms(lambda: spec.plan(s.proxy, seg_len=s.seg_len))
                build_ms.append(ms)
        planned = {} if plan is None else {"plan": plan}
        for budget in BUDGETS:
            with_plan, own_plan = [], []
            for seed in range(n_trials):
                args = (s.statistic, s.pred, s.proxy)
                kw = dict(seg_len=s.seg_len, total_budget=budget, seed=seed)
                ms_a, a = _ms(lambda: spec(*args, **kw, **planned))
                ms_b, b = _ms(lambda: spec(*args, **kw))
                if not _same(a, b):
                    raise AssertionError(
                        f"{algo} n={n_records} NT={budget} seed={seed}: "
                        "planned trial differs from unplanned"
                    )
                with_plan.append(ms_a)
                own_plan.append(ms_b)
            rows.append({
                "algo": algo,
                "n_records": n_records,
                "budget": budget,
                "plan_build_ms_p50": float(np.median(build_ms)) if build_ms else None,
                "trial_ms_p50": float(np.median(with_plan)),
                "trial_ms_p90": float(np.percentile(with_plan, 90)),
                "trial_own_plan_ms_p50": float(np.median(own_plan)),
            })
    return rows


def machine() -> dict:
    import pyspark

    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "cores": len(os.sched_getaffinity(0)),
        "ram_gb": round(ram / 2**30, 1),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "spark": pyspark.__version__,
    }


def append_run(path: Path, label: str, fields: dict) -> None:
    """Append a run, stamped with the commit and machine, to ``path``'s ``runs``."""
    commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                            capture_output=True, text=True).stdout.strip() or None
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append({"label": label, "commit": commit, "machine": machine(), **fields})
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)

    rows = [r for n in SIZES for r in measure(n, args.trials)]
    print(f"{'algo':<11}{'records':>9}{'NT':>6}{'plan ms':>9}{'trial p50':>11}"
          f"{'trial p90':>11}{'own plan':>10}")
    for r in rows:
        build = r["plan_build_ms_p50"]
        build = "-" if build is None else f"{build:.1f}"
        print(f"{r['algo']:<11}{r['n_records']:>9}{r['budget']:>6}{build:>9}"
              f"{r['trial_ms_p50']:>11.2f}{r['trial_ms_p90']:>11.2f}"
              f"{r['trial_own_plan_ms_p50']:>10.2f}")
    if args.out:
        append_run(args.out, args.label, {"trials": args.trials, "results": rows})


if __name__ == "__main__":
    main()
