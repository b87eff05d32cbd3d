"""Reproduce Table 4: geomean median-segment RMSE, queries WITH a predicate.

Usage: python jobs/table4_predicate.py [--records N] [--trials T]
"""
from __future__ import annotations

import argparse

from repro.experiments import (
    FULL_BUDGETS,
    dump_results,
    load_streams,
    print_table,
    table34,
)
from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", type=int, default=500_000)
    ap.add_argument("--seg-len", type=int, default=100_000)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--out", default="results/table4.json")
    args = ap.parse_args()

    spark = get_spark("table4")
    streams = load_streams(n_records=args.records, seg_len=args.seg_len)
    out = table34(
        spark, streams, mode="pred", budgets=FULL_BUDGETS, n_trials=args.trials
    )
    print_table("Table 4 (predicate): geomean median-segment RMSE", out["summary"])
    dump_results(out, args.out)
    spark.stop()


if __name__ == "__main__":
    main()
