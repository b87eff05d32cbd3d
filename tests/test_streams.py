"""Tests for the six Table-2-calibrated evaluation streams."""
import numpy as np
import pytest

from repro.datasets.streams import (
    DATASET_NAMES,
    SPECS,
    calibrate_beta,
    generate,
    interpolated_proxy,
    segment_truths,
)

_N, _SEG = 60_000, 12_000


@pytest.fixture(scope="module")
def all_streams():
    return {n: generate(n, n_records=_N, seg_len=_SEG) for n in DATASET_NAMES}


class TestCalibration:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_positivity_rate_matches_table2(self, all_streams, name):
        # Realized p must land on the published target (binomial noise
        # at n=60k is ~0.004; the offset bisection is exact-in-mean).
        assert abs(all_streams[name].pred.mean() - SPECS[name].p) < 0.02

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_proxy_correlation_matches_table2(self, all_streams, name):
        s = all_streams[name]
        r = np.corrcoef(s.proxy, s.statistic * s.pred)[0, 1]
        assert abs(r - SPECS[name].r) < 0.02

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_proxy_bounded(self, all_streams, name):
        p = all_streams[name].proxy
        assert p.min() >= 0.0 and p.max() <= 1.0

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_shapes(self, all_streams, name):
        s = all_streams[name]
        assert s.n_records == _N and s.n_segments == _N // _SEG
        assert len(s.statistic) == len(s.pred) == len(s.proxy) == _N


class TestSemantics:
    @pytest.mark.parametrize(
        "name", [n for n in DATASET_NAMES if SPECS[n].kind == "count"]
    )
    def test_video_predicate_is_nonzero_count(self, all_streams, name):
        # count(car) > 0 <=> predicate true, exactly as the paper's
        # video queries define it.
        s = all_streams[name]
        assert np.array_equal(s.pred, s.statistic > 0)

    def test_sentiment_in_unit_interval(self, all_streams):
        s = all_streams["customer-support"]
        assert np.all((s.statistic > 0) & (s.statistic < 1))

    def test_sentiment_predicate_independent_of_statistic_support(self, all_streams):
        # The is-customer flag must not be statistic > 0 (all sentiments
        # are positive) — it is its own process.
        s = all_streams["customer-support"]
        assert not np.array_equal(s.pred, s.statistic > 0)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_nonstationary_positivity(self, all_streams, name):
        # Per-segment p must actually drift (the stream-setting point).
        s = all_streams[name]
        p_t = [
            s.pred[t * _SEG : (t + 1) * _SEG].mean() for t in range(s.n_segments)
        ]
        assert max(p_t) - min(p_t) > 0.02


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate("archie", n_records=5000, seg_len=1000, seed=3)
        b = generate("archie", n_records=5000, seg_len=1000, seed=3)
        assert np.array_equal(a.statistic, b.statistic)
        assert np.array_equal(a.proxy, b.proxy)

    def test_different_seed_differs(self):
        a = generate("archie", n_records=5000, seg_len=1000, seed=3)
        b = generate("archie", n_records=5000, seg_len=1000, seed=4)
        assert not np.array_equal(a.statistic, b.statistic)

    def test_datasets_mutually_distinct(self):
        a = generate("archie", n_records=5000, seg_len=1000)
        b = generate("taipei", n_records=5000, seg_len=1000)
        assert not np.array_equal(a.statistic, b.statistic)

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            generate("no-such-stream", n_records=100, seg_len=10)


class TestBetaCalibration:
    @pytest.mark.parametrize("r", [0.5, 0.7, 0.9])
    def test_closed_form_hits_target(self, r):
        # Section 5.5's proxy (no calibration drift: gain 1) with the beta
        # calibrate_beta bisects for the noise the proxy draws.
        g = np.random.default_rng(0).random(200_000) ** 2  # skewed in [0,1]
        u = np.random.default_rng(1).random(len(g))
        beta = calibrate_beta(g, 1.0, u, r)
        proxy = interpolated_proxy(np.random.default_rng(1), g, beta)
        assert abs(np.corrcoef(proxy, g)[0, 1] - r) < 1e-6

    @pytest.mark.parametrize("r", [0.6, 0.8])
    def test_numeric_with_gain_hits_target(self, r):
        g = np.random.default_rng(2).random(100_000) ** 2
        gain = np.exp(0.3 * np.random.default_rng(3).standard_normal(100_000))
        u = np.random.default_rng(4).random(100_000)
        beta = calibrate_beta(g, gain, u, r)
        raw = beta * g * gain + (1 - beta) * u
        assert abs(np.corrcoef(raw, g)[0, 1] - r) < 0.02

    def test_numeric_clamps_at_one(self):
        # Target above what even the noiseless drifting proxy reaches.
        g = np.random.default_rng(5).random(50_000)
        gain = np.exp(1.5 * np.random.default_rng(6).standard_normal(50_000))
        u = np.random.default_rng(7).random(50_000)
        assert calibrate_beta(g, gain, u, 0.99) == 1.0

    def test_interpolated_proxy_beta_one_is_monotone_in_g(self):
        g = np.sort(np.random.default_rng(8).random(1000))
        proxy = interpolated_proxy(np.random.default_rng(9), g, 1.0)
        assert np.all(np.diff(proxy) >= 0)


class TestSegmentTruths:
    def test_against_numpy_reference(self, all_streams):
        s = all_streams["archie"]
        truth = segment_truths(s, predicate=True)
        for t in range(s.n_segments):
            sl = slice(t * _SEG, (t + 1) * _SEG)
            assert np.isclose(
                truth[t], s.statistic[sl][s.pred[sl]].mean()
            )

    def test_no_predicate_mode(self, all_streams):
        s = all_streams["rialto"]
        truth = segment_truths(s, predicate=False)
        for t in range(s.n_segments):
            sl = slice(t * _SEG, (t + 1) * _SEG)
            assert np.isclose(truth[t], s.statistic[sl].mean())

    def test_length(self, all_streams):
        s = all_streams["taipei"]
        assert len(segment_truths(s, predicate=True)) == s.n_segments
