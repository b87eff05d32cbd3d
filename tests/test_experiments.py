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
from repro.sparkops.trials import run_trials


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
_JOBS = ("evaluate", "streaming_demo")
_ENTRYPOINTS = [
    *(f"jobs/{job}.py" for job in _JOBS),
    "benchmarks/bench_streaming.py",
    "benchmarks/bench_paper_scale.py",
]


#: Each job that ``jobs/evaluate.py`` replaced, and the results file it wrote.
_RETIRED_JOBS = {
    "table2_datasets": "table2.json",
    "table3_no_predicate": "table3.json",
    "table4_predicate": "table4.json",
    "lesion_study": "lesion.json",
    "cost_savings": "cost_savings.json",
    "sensitivity": "sensitivity.json",
    "proxy_quality": "proxy_quality.json",
    "adversarial_shifts": "adversarial.json",
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

    def test_evaluate_writes_every_results_file_once(self):
        # One job writes every committed results JSON, each from one row.
        outputs = _import_script(_ROOT / "jobs" / "evaluate.py").OUTPUTS
        json_files = sorted(json_file for _, json_file, _, _ in outputs)
        assert json_files == sorted(p.name for p in (_ROOT / "results").glob("*.json"))


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


@pytest.fixture(scope="module")
def mini_streams():
    # 500-record segments: four per stream, so the sweeps' T = 5 is a
    # re-slice.
    return load_streams(n_records=2_000, seg_len=500)


class TestAppendixSweeps:
    """``sensitivity`` and ``proxy_quality`` at miniature scale."""

    @pytest.fixture(scope="class")
    def sensitivity_runs(self, spark, mini_streams):
        """Two calls' tables, and the segment counts of the streams each
        ``run_trials`` call got."""
        calls = []

        def recording(spark, streams, **kwargs):
            calls.append({name: s.n_segments for name, s in streams.items()})
            return run_trials(spark, streams, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "run_trials", recording)
            tables = [
                experiments.sensitivity(spark, mini_streams["archie"], n_trials=2)
                for _ in range(2)
            ]
        return tables, calls

    @pytest.fixture(scope="class")
    def proxy_quality_runs(self, spark, mini_streams):
        return [
            experiments.proxy_quality(spark, mini_streams["rialto"], n_trials=2)
            for _ in range(2)
        ]

    def test_sensitivity_rows(self, sensitivity_runs):
        table = sensitivity_runs[0][0]
        alphas, segments = [0.5, 0.6, 0.7, 0.8, 0.9], [4, 5, 6, 7, 8]
        assert list(table.columns) == ["sweep", "value", "rmse"]
        assert table["sweep"].tolist() == ["alpha"] * 5 + ["T"] * 5 + ["uniform-ref"] * 5
        assert table["value"].tolist() == alphas + segments + segments
        assert np.isfinite(table["rmse"]).all() and (table["rmse"] >= 0).all()

    def test_sensitivity_copies_have_t_segments(self, sensitivity_runs):
        # Each alpha runs on a 5-segment copy; the T sweep is one call
        # over one copy per T, cut into exactly T segments.
        calls = sensitivity_runs[1]
        one_call = [{"archie": 5}] * 5 + [{f"archie-T{t}": t for t in range(4, 9)}]
        assert calls == one_call * 2

    def test_sensitivity_alpha_default_is_t5_row(self, sensitivity_runs):
        # InQuest's default alpha (0.8) at T = 5 is the T sweep's T = 5 cell.
        rmse = sensitivity_runs[0][0].set_index(["sweep", "value"])["rmse"]
        assert rmse["alpha", 0.8] == rmse["T", 5]

    def test_sensitivity_bit_identical(self, sensitivity_runs):
        pd.testing.assert_frame_equal(*sensitivity_runs[0], check_exact=True)

    def test_proxy_quality_rows(self, proxy_quality_runs):
        table = proxy_quality_runs[0]
        assert list(table.columns) == ["dataset", "inquest", "uniform"]
        assert table["dataset"].tolist() == [
            f"rialto-beta{beta}" for beta in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        rmse = table[["inquest", "uniform"]].to_numpy()
        assert np.isfinite(rmse).all() and (rmse >= 0).all()
        # Uniform sampling never reads the proxy.
        assert table["uniform"].nunique() == 1

    def test_proxy_quality_bit_identical(self, proxy_quality_runs):
        pd.testing.assert_frame_equal(*proxy_quality_runs, check_exact=True)
