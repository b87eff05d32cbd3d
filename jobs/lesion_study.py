"""Figure 7's lesion study rendered as a table (appendix of EXPERIMENTS.md).

Usage: python jobs/lesion_study.py [--records N] [--trials T]
"""
from __future__ import annotations

import argparse

from repro.experiments import dump_results, lesion, load_streams, print_table
from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", type=int, default=500_000)
    ap.add_argument("--seg-len", type=int, default=100_000)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--out", default="results/lesion.json")
    args = ap.parse_args()

    spark = get_spark("lesion")
    streams = load_streams(n_records=args.records, seg_len=args.seg_len)
    table = lesion(spark, streams, n_trials=args.trials)
    print_table("Lesion study (no predicate): geomean median-segment RMSE", table)
    dump_results(table, args.out)
    spark.stop()


if __name__ == "__main__":
    main()
