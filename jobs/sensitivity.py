"""Figure 8's sensitivity analysis (alpha, window length) as tables.

Sweeps the smoothing parameter alpha in [0.5, 0.9] and the tumbling
window length so the query spans T in [4, 8] segments, on the archie
dataset with no predicate, comparing against uniform sampling.  Uniform
ignores alpha, but its per-segment budget and segment size follow T, so
it runs at every T and gives one ``uniform-ref`` row per T; the alpha
sweep, at T = 5, compares with the T = 5 one.

Usage: python jobs/sensitivity.py [--records N] [--trials T]
"""
from __future__ import annotations

import argparse
import dataclasses

import pandas as pd

from repro.datasets.streams import generate
from repro.experiments import dump_results
from repro.session import get_spark
from repro.sparkops.metrics import median_segment_rmse
from repro.sparkops.trials import run_trials


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", type=int, default=500_000)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--budget", type=int, default=5000)
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
    # One copy of the stream per T, cut into T segments (the last one
    # may be shorter); the copies share their arrays.
    by_t = {}
    for t_segments in (4, 5, 6, 7, 8):
        resliced = dataclasses.replace(stream, seg_len=-(-args.records // t_segments))
        if resliced.n_segments != t_segments:
            raise ValueError(f"{args.records} records do not make {t_segments} segments")
        by_t[f"archie-T{t_segments}"] = resliced
    res = run_trials(
        spark,
        by_t,
        algorithms=["inquest", "uniform"],
        budgets=[args.budget],
        n_trials=args.trials,
        modes=("nopred",),
    )
    med = median_segment_rmse(res).toPandas().set_index(["algo", "dataset"])["median_rmse"]
    for sweep, algo in (("T", "inquest"), ("uniform-ref", "uniform")):
        for name, resliced in by_t.items():
            rows.append({"sweep": sweep, "value": resliced.n_segments,
                         "rmse": float(med[algo, name])})

    spark.stop()
    title = "Sensitivity (archie, no predicate, NT=%d)" % args.budget
    dump_results(pd.DataFrame(rows), "results/sensitivity.json", title)


if __name__ == "__main__":
    main()
