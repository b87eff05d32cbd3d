"""Reproduce Table 2: dataset predicates, positivity rates p, proxy correlation r.

Usage: python jobs/table2_datasets.py [--records N] [--seg-len L]
"""
from __future__ import annotations

import argparse

from repro.experiments import dump_results, load_streams, table2
from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", type=int, default=500_000)
    ap.add_argument("--seg-len", type=int, default=100_000)
    args = ap.parse_args()

    spark = get_spark("table2")
    streams = load_streams(n_records=args.records, seg_len=args.seg_len)
    table = table2(spark, streams)
    spark.stop()
    dump_results(table, "results/table2.json", "Table 2 (paper targets vs measured)")


if __name__ == "__main__":
    main()
