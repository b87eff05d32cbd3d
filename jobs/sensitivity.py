"""Figure 8's sensitivity analysis (alpha, window length) as tables.

Sweeps the smoothing parameter alpha in [0.5, 0.9] and the tumbling
window length so the query spans T in [4, 8] segments, on the archie
dataset with no predicate, comparing against uniform sampling (which is
invariant to both parameters).

Usage: python jobs/sensitivity.py [--records N] [--trials T]
"""
from __future__ import annotations

import argparse

import pandas as pd

from repro.datasets.streams import generate
from repro.experiments import dump_results, print_table
from repro.session import get_spark
from repro.sparkops.metrics import median_segment_rmse
from repro.sparkops.trials import run_trials


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", type=int, default=500_000)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--budget", type=int, default=5000)
    ap.add_argument("--out", default="results/sensitivity.json")
    args = ap.parse_args()

    spark = get_spark("sensitivity")
    default_seg = args.records // 5
    stream = generate("archie", n_records=args.records, seg_len=default_seg)
    streams = {"archie": stream}

    rows = []
    for alpha in (0.5, 0.6, 0.7, 0.8, 0.9):
        res = run_trials(
            spark,
            streams,
            algorithms=["inquest"],
            budgets=[args.budget],
            n_trials=args.trials,
            modes=("nopred",),
            params={"alpha": alpha},
        )
        med = median_segment_rmse(res).toPandas()
        rows.append({"sweep": "alpha", "value": alpha, "rmse": float(med["median_rmse"].iloc[0])})
    for t_segments in (4, 5, 6, 7, 8):
        res = run_trials(
            spark,
            streams,
            algorithms=["inquest"],
            budgets=[args.budget],
            n_trials=args.trials,
            modes=("nopred",),
            params={"seg_len": args.records // t_segments},
        )
        med = median_segment_rmse(res).toPandas()
        rows.append({"sweep": "T", "value": t_segments, "rmse": float(med["median_rmse"].iloc[0])})
    res = run_trials(
        spark, streams, algorithms=["uniform"], budgets=[args.budget],
        n_trials=args.trials, modes=("nopred",),
    )
    med = median_segment_rmse(res).toPandas()
    rows.append({"sweep": "uniform-ref", "value": float("nan"), "rmse": float(med["median_rmse"].iloc[0])})

    table = pd.DataFrame(rows)
    print_table("Sensitivity (archie, no predicate, NT=%d)" % args.budget, table)
    dump_results(table, args.out)
    spark.stop()


if __name__ == "__main__":
    main()
