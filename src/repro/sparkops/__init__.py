"""Spark-facing layers: stream DataFrames, distributed trials, metrics.

Table 2's statistics and the RMSE and geometric-mean aggregation run on
the DataFrame / Spark SQL API; the sequential per-trial sampling kernels
run as numpy inside Spark tasks, one (dataset, algorithm) cell at a
time, next to ground truths computed once in numpy on the driver.  The
test suite cross-checks the SQL aggregates and the truths against
DuckDB.
"""
