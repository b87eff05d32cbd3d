"""Benchmark scale, shared by bench modules."""
BENCH_RECORDS = 100_000
BENCH_SEG_LEN = BENCH_RECORDS // 5
BENCH_TRIALS = 50
