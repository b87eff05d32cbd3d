"""Reproduce Tables 3 and 4, the lesion study and the cost model from one run.

Tables 3/4 (without/with a predicate), Figure 7's lesion study and
Figure 9's T4 cost model (archie) come from one trial set.  Writes
``results/{table3,table4,lesion}.{json,log}``, ``results/cost_savings.json``
and ``results/cost.log`` under the working directory; a log holds its table.

Usage: python jobs/evaluate.py [--records N] [--seg-len L] [--trials T]
"""
from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments import dump_results, evaluate, load_streams, print_table
from repro.session import get_spark

#: (result, json file, log file, printed title) for each table.
OUTPUTS = (
    ("table3", "table3.json", "table3.log",
     "Table 3 (no predicate): geomean median-segment RMSE"),
    ("table4", "table4.json", "table4.log",
     "Table 4 (predicate): geomean median-segment RMSE"),
    ("lesion", "lesion.json", "lesion.log",
     "Lesion study (no predicate): geomean median-segment RMSE"),
    ("cost", "cost_savings.json", "cost.log", "Cost model (archie, no predicate)"),
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", type=int, default=500_000)
    ap.add_argument("--seg-len", type=int, default=100_000)
    ap.add_argument("--trials", type=int, default=200)
    args = ap.parse_args()

    spark = get_spark("evaluate")
    streams = load_streams(n_records=args.records, seg_len=args.seg_len)
    tables = evaluate(spark, streams, n_trials=args.trials)
    spark.stop()
    out = Path("results")
    out.mkdir(exist_ok=True)
    for name, json_file, log_file, title in OUTPUTS:
        table = tables[name]
        shown = table["summary"] if isinstance(table, dict) else table
        (out / log_file).write_text(print_table(title, shown))
        dump_results(table, out / json_file)


if __name__ == "__main__":
    main()
