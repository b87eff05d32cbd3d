import sys

import pytest
from pyspark.sql import SparkSession

from repro.session import get_spark


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    The same session the jobs get (``repro.session.get_spark``), with its
    driver memory rule.
    """
    s = get_spark("repro")
    # One line in the test output with the session's driver memory and
    # parallelism (README § Spark target).
    sc = s.sparkContext
    print(
        f"[conftest] spark.driver.memory={sc.getConf().get('spark.driver.memory')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
