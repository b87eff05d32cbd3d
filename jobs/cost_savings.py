"""Figure 9's time/dollar cost model as a table (archie dataset).

For each algorithm and oracle budget, reports the median-segment RMSE
next to the T4 GPU time and on-demand dollars to run the query's model
invocations: proxy-based methods pay the proxy on every record plus the
oracle on the sampled records; uniform sampling pays only the oracle.

Usage: python jobs/cost_savings.py [--records N] [--trials T]
"""
from __future__ import annotations

import argparse

from repro.core.cost import T4_COST_MODEL
from repro.datasets.streams import generate
from repro.experiments import dump_results, print_table
from repro.session import get_spark
from repro.sparkops.metrics import median_segment_rmse
from repro.sparkops.trials import run_trials


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", type=int, default=500_000)
    ap.add_argument("--seg-len", type=int, default=100_000)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--out", default="results/cost_savings.json")
    args = ap.parse_args()

    spark = get_spark("cost")
    streams = {"archie": generate("archie", n_records=args.records, seg_len=args.seg_len)}
    budgets = list(range(500, 5001, 500))
    res = run_trials(
        spark,
        streams,
        algorithms=["inquest", "uniform", "stratified", "abae"],
        budgets=budgets,
        n_trials=args.trials,
        modes=("nopred",),
    )
    med = median_segment_rmse(res).toPandas()
    med["proxy_calls"] = med["algo"].map(
        lambda a: 0 if a == "uniform" else args.records
    )
    med["gpu_seconds"] = [
        T4_COST_MODEL.query_seconds(oracle_calls=b, proxy_calls=p)
        for b, p in zip(med["budget"], med["proxy_calls"])
    ]
    med["dollars"] = [
        T4_COST_MODEL.query_dollars(oracle_calls=b, proxy_calls=p)
        for b, p in zip(med["budget"], med["proxy_calls"])
    ]
    table = med[["algo", "budget", "median_rmse", "gpu_seconds", "dollars"]].sort_values(
        ["algo", "budget"]
    )
    print_table("Cost model (archie, no predicate)", table)
    dump_results(table, args.out)
    spark.stop()


if __name__ == "__main__":
    main()
