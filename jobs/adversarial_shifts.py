"""Figure 11's adversarial-shift experiment rendered as a table.

Usage: python jobs/adversarial_shifts.py [--streams-per-n K] [--trials T]
"""
from __future__ import annotations

import argparse

from repro.experiments import adversarial_shifts, dump_results
from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", type=int, default=100_000)
    ap.add_argument("--seg-len", type=int, default=20_000)
    ap.add_argument("--streams-per-n", type=int, default=4)
    ap.add_argument("--budget", type=int, default=2500)
    ap.add_argument("--trials", type=int, default=100)
    args = ap.parse_args()

    spark = get_spark("adversarial")
    table = adversarial_shifts(
        spark,
        n_records=args.records,
        seg_len=args.seg_len,
        streams_per_n=args.streams_per_n,
        budget=args.budget,
        n_trials=args.trials,
    )
    spark.stop()
    title = "Adversarial shifts: mean median-segment RMSE by n_shifts"
    dump_results(table, "results/adversarial.json", title)


if __name__ == "__main__":
    main()
