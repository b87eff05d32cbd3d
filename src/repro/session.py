"""The one SparkSession bootstrap, for jobs, benchmarks and the test suite.

Master and driver memory are JVM launch arguments, so they go in
``PYSPARK_SUBMIT_ARGS``, which pyspark reads when it launches the JVM
(the first ``getOrCreate``), not when it is imported.  The other settings
are session confs.  Broadcast joins are off so that joins take the
shuffle path at test scale too, and the console progress bar is off so
that a job's log holds its results.  Jobs run under plain ``python
jobs/<name>.py``; pyspark launches its own local JVM.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

__all__ = ["get_spark"]


def get_spark(app_name: str) -> SparkSession:
    """The process's local SparkSession, launching the JVM on first call.

    ``SPARK_MASTER`` (default ``local[*]``) and ``SPARK_DRIVER_MEM``
    (default: half of physical memory, clamped to 2-8 GiB) are read here;
    a ``PYSPARK_SUBMIT_ARGS`` already set wins over both.
    """
    half_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") >> 31
    driver_mem = os.environ.get("SPARK_DRIVER_MEM") or f"{min(max(half_gib, 2), 8)}g"
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_mem} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
