"""Spark tests for the distributed Monte Carlo trial runner."""
import dataclasses

import numpy as np
import pytest

from repro.core.inquest import inquest_trial
from repro.datasets.streams import generate, segment_truths
from repro.sparkops.trials import ALGORITHMS, run_trials

_N, _SEG = 10_000, 2_000


@pytest.fixture(scope="module")
def streams():
    return {n: generate(n, n_records=_N, seg_len=_SEG) for n in ["archie", "rialto"]}


@pytest.fixture(scope="module")
def results(spark, streams):
    return run_trials(
        spark,
        streams,
        algorithms=["inquest", "uniform"],
        budgets=[250, 500],
        n_trials=5,
        modes=("pred", "nopred"),
    ).cache()


class TestRunTrials:
    def test_schema(self, results):
        assert dict(results.dtypes) == {
            "dataset": "string",
            "algo": "string",
            "mode": "string",
            "budget": "int",
            "trial": "int",
            "segment": "int",
            "estimate": "double",
            "truth": "double",
        }

    def test_row_count(self, results):
        # 2 datasets x 2 algos x 2 modes x 2 budgets x 5 trials x
        # (5 segments + 1 full-query row).
        assert results.count() == 2 * 2 * 2 * 2 * 5 * 6

    def test_full_query_rows_present(self, results):
        assert results.filter("segment = -1").count() == 2 * 2 * 2 * 2 * 5

    def test_truth_matches_generator(self, results, streams):
        pdf = results.filter(
            "dataset = 'archie' AND mode = 'pred' AND segment >= 0"
        ).toPandas()
        expected = segment_truths(streams["archie"], predicate=True)
        for seg, grp in pdf.groupby("segment"):
            assert np.allclose(grp["truth"], expected[seg])

    def test_matches_local_kernel(self, results, streams):
        # The distributed run must reproduce a local kernel invocation
        # exactly (same seeds, same stream arrays).
        pdf = results.filter(
            "dataset = 'rialto' AND algo = 'inquest' AND mode = 'pred' "
            "AND budget = 500 AND trial = 3 AND segment >= 0"
        ).toPandas().sort_values("segment")
        s = streams["rialto"]
        local = inquest_trial(
            s.statistic, s.pred, s.proxy, seg_len=_SEG, total_budget=500, seed=3
        )
        assert np.allclose(pdf["estimate"].to_numpy(), local["seg_estimates"])

    def test_nopred_ignores_predicate(self, results, streams):
        pdf = results.filter(
            "dataset = 'archie' AND mode = 'nopred' AND segment >= 0"
        ).toPandas()
        expected = segment_truths(streams["archie"], predicate=False)
        for seg, grp in pdf.groupby("segment"):
            assert np.allclose(grp["truth"], expected[seg])

    def test_unknown_algorithm_raises(self, spark, streams):
        with pytest.raises(ValueError, match="unknown algorithms"):
            run_trials(
                spark, streams, algorithms=["nope"], budgets=[100], n_trials=1
            )

    def test_registry_covers_lesion_variants(self):
        assert {
            "inquest",
            "uniform",
            "stratified",
            "abae",
            "inquest_fixed_alloc",
            "inquest_fixed_strata",
            "stratified_pilot",
        } <= set(ALGORITHMS)

    def test_params_forwarded_to_inquest(self, spark, streams):
        # alpha=0 vs alpha=0.9 must change InQuest's estimates.
        outs = []
        for alpha in (0.0, 0.9):
            res = run_trials(
                spark,
                {"archie": streams["archie"]},
                algorithms=["inquest"],
                budgets=[400],
                n_trials=2,
                modes=("pred",),
                params={"alpha": alpha},
            ).toPandas()
            outs.append(res.sort_values(["trial", "segment"])["estimate"].to_numpy())
        assert not np.allclose(outs[0], outs[1])

    @pytest.fixture(scope="class")
    def seg_len_override(self, spark, streams):
        return run_trials(
            spark,
            {"archie": streams["archie"]},
            algorithms=["inquest", "uniform", "stratified", "abae"],
            budgets=[400],
            n_trials=1,
            modes=("pred", "nopred"),
            params={"seg_len": 2500},
        ).toPandas()

    def test_seg_len_override(self, seg_len_override):
        # Every algorithm re-slices the stream, not only InQuest.
        last = seg_len_override[seg_len_override.segment >= 0].groupby("algo")[
            "segment"
        ].max()
        assert last.to_dict() == {
            a: _N // 2500 - 1 for a in ("inquest", "uniform", "stratified", "abae")
        }

    def test_seg_len_override_truths(self, seg_len_override, streams):
        # Truths are those of the stream re-sliced at the override length.
        resliced = dataclasses.replace(streams["archie"], seg_len=2500)
        for mode, grp in seg_len_override[seg_len_override.segment >= 0].groupby(
            "mode"
        ):
            expected = segment_truths(resliced, predicate=(mode == "pred"))
            assert np.array_equal(grp["truth"], expected[grp["segment"]])

    def test_seg_len_override_matches_local_kernels(self, seg_len_override, streams):
        s = streams["archie"]
        for algo, grp in seg_len_override[seg_len_override["mode"] == "pred"].groupby(
            "algo"
        ):
            local = ALGORITHMS[algo](
                s.statistic, s.pred, s.proxy, seg_len=2500, total_budget=400, seed=0
            )
            grp = grp.sort_values("segment")
            got = grp["estimate"].to_numpy()
            assert np.array_equal(got[1:], local["seg_estimates"]), algo
            assert got[0] == local["full_estimate"], algo

    def test_params_accepted_by_no_algorithm_raise(self, spark, streams):
        with pytest.raises(ValueError, match="accepted by none"):
            run_trials(
                spark,
                streams,
                algorithms=["uniform", "abae"],
                budgets=[100],
                n_trials=1,
                params={"alpha": 0.5},
            )
