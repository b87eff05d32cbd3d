"""Shared SparkSession bootstrap for the spark-submit job entrypoints.

Mirrors ``conftest.py``'s session configuration (shuffle partitions,
Arrow, broadcast joins disabled) so jobs and tests see the same planner
behaviour.  The console progress bar is off so that a job's log holds
its results.  Jobs run fine under plain ``python jobs/<name>.py`` too —
pyspark launches its own local JVM.
"""
from __future__ import annotations

import os

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app_name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
