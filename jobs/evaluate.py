"""Reproduce every results file of the evaluation section from one run.

Tables 2-4, the lesion study (Fig. 7), sensitivity (Fig. 8), cost (Fig. 9),
proxy quality (Fig. 10) and adversarial shifts (Fig. 11, on streams of
their own fixed size) share one SparkSession, the six streams and
``--trials``.  Writes each file of ``OUTPUTS`` under ``results/`` in the
working directory; a log holds its table.

Usage: python jobs/evaluate.py [--records N] [--seg-len L] [--trials T]
"""
from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments import (
    SENSITIVITY_BUDGET,
    adversarial_shifts,
    dump_results,
    evaluate,
    load_streams,
    print_table,
    proxy_quality,
    sensitivity,
    table2,
)
from repro.session import get_spark

#: (result, json file, log file, printed title) for each results file.
OUTPUTS = (
    ("table2", "table2.json", "table2.log", "Table 2 (paper targets vs measured)"),
    ("table3", "table3.json", "table3.log",
     "Table 3 (no predicate): geomean median-segment RMSE"),
    ("table4", "table4.json", "table4.log",
     "Table 4 (predicate): geomean median-segment RMSE"),
    ("lesion", "lesion.json", "lesion.log",
     "Lesion study (no predicate): geomean median-segment RMSE"),
    ("cost", "cost_savings.json", "cost.log", "Cost model (archie, no predicate)"),
    ("sensitivity", "sensitivity.json", "sensitivity.log",
     f"Sensitivity (archie, no predicate, NT={SENSITIVITY_BUDGET})"),
    ("proxy_quality", "proxy_quality.json", "proxy_quality.log",
     "Proxy quality sweep (rialto, no predicate)"),
    ("adversarial", "adversarial.json", "adversarial.log",
     "Adversarial shifts: mean median-segment RMSE by n_shifts"),
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", type=int, default=500_000)
    ap.add_argument("--seg-len", type=int, default=100_000)
    ap.add_argument("--trials", type=int, default=200)
    args = ap.parse_args()

    spark = get_spark("evaluate")
    streams = load_streams(n_records=args.records, seg_len=args.seg_len)
    tables = {
        "table2": table2(spark, streams),
        **evaluate(spark, streams, n_trials=args.trials),
        "sensitivity": sensitivity(spark, streams["archie"], n_trials=args.trials),
        "proxy_quality": proxy_quality(spark, streams["rialto"], n_trials=args.trials),
        "adversarial": adversarial_shifts(spark, n_trials=args.trials),
    }
    spark.stop()
    out = Path("results")
    for name, json_file, log_file, title in OUTPUTS:
        table = tables[name]
        dump_results(table, out / json_file)  # makes results/
        shown = table["summary"] if isinstance(table, dict) else table
        (out / log_file).write_text(print_table(title, shown))


if __name__ == "__main__":
    main()
