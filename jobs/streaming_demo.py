"""Run InQuest as a live Structured Streaming query (deployment demo).

Writes one parquet file per tumbling-window segment, then executes the
streaming query with one micro-batch per segment, printing the real-time
estimate after each batch next to the segment's ground truth (also
written to ``results/streaming_demo.log``).

Usage: python jobs/streaming_demo.py [--dataset archie] [--budget 2500]
"""
from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.core.inquest import InQuestConfig
from repro.datasets.streams import generate, segment_truths
from repro.experiments import print_table
from repro.session import get_spark
from repro.streaming.job import run_streaming_inquest, write_segment_files


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="archie")
    ap.add_argument("--records", type=int, default=100_000)
    ap.add_argument("--seg-len", type=int, default=20_000)
    ap.add_argument("--budget", type=int, default=2500, help="total oracle budget NT")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spark = get_spark("streaming-demo")
    stream = generate(args.dataset, n_records=args.records, seg_len=args.seg_len)
    truth = segment_truths(stream, predicate=True)
    n_per_segment = max(1, args.budget // stream.n_segments)
    with tempfile.TemporaryDirectory() as d:
        write_segment_files(stream, d)
        results = run_streaming_inquest(
            spark,
            d,
            config=InQuestConfig(n_per_segment=n_per_segment),
            seed=args.seed,
        )
    spark.stop()
    rows = "\n".join(
        f"segment {r['source_segment']}: estimate={r['estimate']:.4f} "
        f"truth={truth[r['source_segment']]:.4f} "
        f"running={r['running_estimate']:.4f} oracle_calls={r['oracle_calls']}"
        for r in results
    )
    title = f"{args.dataset}, budget NT={args.budget} (N={n_per_segment}/segment)"
    Path("results/streaming_demo.log").write_text(print_table(title, rows))


if __name__ == "__main__":
    main()
