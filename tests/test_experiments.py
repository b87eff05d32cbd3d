"""Tests for the shared experiment driver utilities."""
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from pyspark import SparkContext

from repro import experiments
from repro.datasets.streams import DATASET_NAMES, generate
from repro.experiments import FULL_BUDGETS, dump_results, load_streams


class TestFullBudgets:
    def test_matches_paper_sweep(self):
        # "We swept the oracle budget from 500 to 5000 in increments of 500."
        assert FULL_BUDGETS == tuple(range(500, 5001, 500))


class TestLoadStreams:
    def test_all_six_datasets(self):
        streams = load_streams(n_records=2_000, seg_len=500)
        assert len(streams) == 6
        assert all(s.n_records == 2_000 for s in streams.values())

    def test_cached_identity(self):
        a = load_streams(n_records=2_000, seg_len=500)
        b = load_streams(n_records=2_000, seg_len=500)
        assert a is b  # lru_cache: one materialisation per process

    def test_distinct_scales_distinct_objects(self):
        a = load_streams(n_records=2_000, seg_len=500)
        b = load_streams(n_records=2_500, seg_len=500)
        assert a is not b


class TestDumpResults:
    def test_dataframe_roundtrip(self, tmp_path):
        df = pd.DataFrame({"a": [1.0, 2.0], "b": ["x", "y"]})
        path = tmp_path / "out.json"
        dump_results(df, path)
        payload = json.loads(path.read_text())
        assert payload["columns"] == ["a", "b"]
        assert payload["data"] == [[1.0, "x"], [2.0, "y"]]

    def test_dict_of_frames(self, tmp_path):
        obj = {
            "summary": pd.DataFrame({"v": [1]}),
            "detail": pd.DataFrame({"w": [2.5]}),
        }
        path = tmp_path / "nested" / "out.json"
        dump_results(obj, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"summary", "detail"}

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.json"
        dump_results(pd.DataFrame({"x": [1]}), path)
        assert path.exists()

    def test_nan_serialised(self, tmp_path):
        df = pd.DataFrame({"x": [np.nan, 1.0]})
        path = tmp_path / "out.json"
        dump_results(df, path)
        assert json.loads(path.read_text())["data"][0] == [None]


_ROOT = Path(__file__).resolve().parent.parent
_JOBS = (
    "table2_datasets",
    "evaluate",
    "adversarial_shifts",
    "sensitivity",
    "proxy_quality",
    "streaming_demo",
)
_ENTRYPOINTS = [
    *(f"jobs/{job}.py" for job in _JOBS),
    "benchmarks/bench_streaming.py",
    "benchmarks/bench_paper_scale.py",
]


#: Each job that ``jobs/evaluate.py`` replaced, and the results file it wrote.
_RETIRED_JOBS = {
    "table3_no_predicate": "table3.json",
    "table4_predicate": "table4.json",
    "lesion_study": "lesion.json",
    "cost_savings": "cost_savings.json",
}


def _import_script(path: Path):
    """Import the script at ``path`` with its directory first on sys.path,
    as when Python runs it."""
    sys.path.insert(0, str(path.parent))
    try:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(path.parent))
    return mod


class TestJobsImportable:
    @pytest.mark.parametrize("script", _ENTRYPOINTS, ids=lambda s: Path(s).stem)
    def test_entrypoint_importable(self, script):
        # Every entrypoint imports and exposes main() without starting
        # Spark or touching the environment: the session is built inside
        # main(), by repro.session.get_spark.
        env, active = dict(os.environ), SparkContext._active_spark_context
        mod = _import_script(_ROOT / script)
        assert callable(mod.main)
        assert dict(os.environ) == env
        assert SparkContext._active_spark_context is active

    @pytest.mark.parametrize("job", sorted(_RETIRED_JOBS))
    def test_evaluate_writes_retired_job_output(self, job):
        # The retired job's results file is written by evaluate alone.
        assert not (_ROOT / "jobs" / f"{job}.py").exists()
        outputs = _import_script(_ROOT / "jobs" / "evaluate.py").OUTPUTS
        assert _RETIRED_JOBS[job] in [json_file for _, json_file, _, _ in outputs]


def _spark_jobs(spark, group: str, fn):
    """``fn()`` and the number of Spark jobs it ran, in job group ``group``."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # Job events reach the status tracker through the listener bus.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.fixture(scope="module")
def small_streams():
    return {n: generate(n, n_records=5_000, seg_len=1_000) for n in DATASET_NAMES}


class TestOneMetricPass:
    def _table34(self, spark, streams):
        return experiments.table34(
            spark, streams, mode="nopred", budgets=(300, 600), n_trials=3,
            highlight_budgets=(300, 600),
        )

    def test_table34_runs_at_most_two_spark_jobs(self, spark, small_streams):
        # The trials' shuffle into one partition, then the one metric
        # plan collected: no cache, no per-metric query.
        _, jobs = _spark_jobs(
            spark, "test-table34", lambda: self._table34(spark, small_streams)
        )
        assert jobs <= 2

    def test_table34_dumps_byte_identical_json(self, spark, small_streams, tmp_path):
        paths = [tmp_path / f"run{i}.json" for i in range(2)]
        for path in paths:
            dump_results(self._table34(spark, small_streams), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.fixture(scope="class")
    def evaluated(self, spark, small_streams):
        return _spark_jobs(
            spark,
            "test-evaluate",
            lambda: experiments.evaluate(spark, small_streams, n_trials=2),
        )

    def test_evaluate_collects_metrics_in_one_action(self, evaluated):
        # One shuffle per run_trials call and one result job.
        assert evaluated[1] == 3

    def test_evaluate_tables_equal_their_own_runs(self, spark, small_streams, evaluated):
        # A trial's rows depend only on its (dataset, algo, mode, budget,
        # trial), so each table equals the one its own run gives.
        tables = evaluated[0]
        for mode, name in (("nopred", "table3"), ("pred", "table4")):
            alone = experiments.table34(spark, small_streams, mode=mode, n_trials=2)
            for part, frame in alone.items():
                pd.testing.assert_frame_equal(tables[name][part], frame, check_exact=True)
        pd.testing.assert_frame_equal(
            tables["lesion"],
            experiments.lesion(spark, small_streams, n_trials=2),
            check_exact=True,
        )

    def test_evaluate_slices_share_cells(self, evaluated):
        tables = evaluated[0]
        t3 = tables["table3"]
        cols = ["NT = 500", "NT = 2500", "NT = 5000"]
        assert tables["lesion"].loc["inquest", cols].equals(t3["summary"].loc["inquest", cols])
        archie = t3["per_dataset"][t3["per_dataset"]["dataset"] == "archie"]
        cost = tables["cost"]
        assert cost[["algo", "budget", "median_rmse"]].equals(
            archie[["algo", "budget", "median_rmse"]].reset_index(drop=True)
        )
        assert len(cost) == 4 * len(FULL_BUDGETS)
        proxy_free = cost["algo"] == "uniform"
        assert (cost["gpu_seconds"][proxy_free] == cost["budget"][proxy_free] / 4.0).all()
