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
    "table3_no_predicate",
    "table4_predicate",
    "lesion_study",
    "adversarial_shifts",
    "sensitivity",
    "proxy_quality",
    "cost_savings",
    "streaming_demo",
)
_ENTRYPOINTS = [
    *(f"jobs/{job}.py" for job in _JOBS),
    "benchmarks/bench_streaming.py",
    "benchmarks/bench_paper_scale.py",
]


class TestJobsImportable:
    @pytest.mark.parametrize("script", _ENTRYPOINTS, ids=lambda s: Path(s).stem)
    def test_entrypoint_importable(self, script):
        # Every entrypoint imports and exposes main() without starting
        # Spark or touching the environment: the session is built inside
        # main(), by repro.session.get_spark.  The script's directory goes
        # on sys.path first, as when Python runs it.
        path = _ROOT / script
        env, active = dict(os.environ), SparkContext._active_spark_context
        sys.path.insert(0, str(path.parent))
        try:
            spec = importlib.util.spec_from_file_location(path.stem, path)
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
        finally:
            sys.path.remove(str(path.parent))
        assert callable(mod.main)
        assert dict(os.environ) == env
        assert SparkContext._active_spark_context is active
