import os
import sys

import pytest
from pyspark.sql import SparkSession

from repro.session import get_spark


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback. spark.driver.memory is read at JVM launch, not
    from SparkConf: ``repro.session.get_spark`` puts SPARK_DRIVER_MEM in
    PYSPARK_SUBMIT_ARGS, which pyspark reads when the first
    ``getOrCreate`` launches the JVM, so it must be set before then.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    The same session the jobs get (``repro.session.get_spark``), with the
    driver memory derived above.
    """
    s = get_spark("repro")
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
