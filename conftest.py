import pytest
from pyspark.sql import SparkSession

from repro.session import get_spark

# The session's driver memory and parallelism, for the terminal summary
# (README § Spark target): pytest captures what a fixture prints.
_SESSION_LINES: list[str] = []


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    The same session the jobs get (``repro.session.get_spark``), with its
    driver memory rule.
    """
    s = get_spark("repro")
    sc = s.sparkContext
    _SESSION_LINES.append(
        f"[conftest] spark.driver.memory={sc.getConf().get('spark.driver.memory')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism}"
    )
    yield s
    s.stop()


def pytest_terminal_summary(terminalreporter) -> None:
    for line in _SESSION_LINES:
        terminalreporter.write_line(line)
