"""Figure 10's proxy-quality sweep as a table (rialto dataset).

Rebuilds rialto's proxy with the Section 5.5 interpolation
``proxy = beta*g + (1-beta)*U(0,1)`` for beta in {0, .25, .5, .75, 1}
(beta=1 is the perfect proxy, beta=0 pure noise) and reports InQuest's
median-segment RMSE at each beta.

Usage: python jobs/proxy_quality.py [--records N] [--trials T]
"""
from __future__ import annotations

import argparse
import dataclasses

import numpy as np
import pandas as pd

from repro.datasets.streams import generate, interpolated_proxy
from repro.experiments import dump_results
from repro.session import get_spark
from repro.sparkops.metrics import median_segment_rmse
from repro.sparkops.trials import run_trials


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", type=int, default=500_000)
    ap.add_argument("--seg-len", type=int, default=100_000)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--budget", type=int, default=2500)
    args = ap.parse_args()

    spark = get_spark("proxy-quality")
    base = generate("rialto", n_records=args.records, seg_len=args.seg_len)
    masked = base.statistic * base.pred
    g01 = masked / masked.max()

    streams = {}
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        proxy = interpolated_proxy(np.random.default_rng([55, int(beta * 100)]), g01, beta)
        streams[f"rialto-beta{beta}"] = dataclasses.replace(base, proxy=proxy)
    res = run_trials(
        spark,
        streams,
        algorithms=["inquest", "uniform"],
        budgets=[args.budget],
        n_trials=args.trials,
        modes=("nopred",),
    )
    med = median_segment_rmse(res).toPandas()
    spark.stop()
    table = med.pivot_table(index="dataset", columns="algo", values="median_rmse")
    title = "Proxy quality sweep (rialto, no predicate)"
    dump_results(table.reset_index(), "results/proxy_quality.json", title)


if __name__ == "__main__":
    main()
