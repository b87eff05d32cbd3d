"""Tests for the six Table-2-calibrated evaluation streams."""
import hashlib
import tracemalloc

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


#: SHA-256 of the bytes of ``statistic``, ``pred`` and ``proxy`` per
#: ``(dataset, n_records, seed)``.  ``customer-support`` takes the
#: drift-shrinking fallback at both settings.
_DIGESTS = {
    ("archie", 6_000, 0): (
        "8b7a3e519e9556da99d9c6f0d83adc5dfabf0ef56be04d10207a8c11e59f0748",
        "203f39658fa0263f8a54ae1802d9d37334dffb3e39ddc403108195fcaef29fe4",
        "dfef7055131458360db0b3773e3c69d2eb801e67f07096f1db23e0bdbecc8d01",
    ),
    ("customer-support", 6_000, 0): (
        "b19743772e63c516455dd3737fb62ccc6734a0735f7896d3662f824ab6babb0c",
        "7d9aa51ae26a8b2b924eaa77316b7c9d298878d1c14cb3e12120d1020ef5f54a",
        "8e27da5fd3492948a9ffcce52e145fa8691b7dffd78bbf783feb6a1d7d7846b6",
    ),
    ("grand-canal", 6_000, 0): (
        "32df18a653e4a8a0ae6981ac47f5f765640fb3d2547e168d9f16808a2ee4e4d1",
        "f8f31da78b8db971b8890e99bc37daac7e65cb858a57dfae8977d0078afc0e3b",
        "06c4e51b54a7a1bae517b833e7145e2d09b107ded1726a26ffe8ce3de0854a07",
    ),
    ("night-street", 6_000, 0): (
        "59879b7a1018408651df10fac7767e902277c87e919e864a586a375f8a791e3d",
        "caf13d99117a9a5d04cd26fd82c5b87773c4bac2f8afc39b9bd304408b07e98c",
        "cd06769a14e6d2e452b5ce7c090af4fb8642bb450342b0441194ad39fe9debf9",
    ),
    ("rialto", 6_000, 0): (
        "66534dc4b6d79df6c62dea322a82152cf6d9a4d3f4050b6094b0fab2ec91de59",
        "3c11b9b980232ce64aa7720b774e6cfd758c8108146fa8e9fc20ecd4d6d618ee",
        "a88698f0a7c1d32d55f0a7a5a6a4a1b5136121993d6a8bc2b01e7f199a540459",
    ),
    ("taipei", 6_000, 0): (
        "820dcf8c55f4760dc7f3ce5fc2f61aaf1887be265fa7632a4cbc1298595f6d72",
        "1ddec37a1f14c44fb163712253ec4d13610b7f2c3e50b5205378c7eba521c0bd",
        "816b3f56be70d453592ca50dce09c54bfa0f0f7878f85410c8e8c6dc6f761ab6",
    ),
    ("archie", 200_000, 1): (
        "dd8850fbab46706960f8f70f12c712a3c24a3095e20274022e9a40af7af00741",
        "b791704216a8035f1faf8a698451baca0f2c791ed52fa24a7bd996dd5dda0a3a",
        "4c1471740443a9dc1988a949b81064a1630d5f77840fd1199a2853f6fe87593a",
    ),
    ("customer-support", 200_000, 1): (
        "cf7baa42f5d60a38dae17cb6d1a71ad9b0a87d8a3c5f324f20889287f3c1a335",
        "0caf375b04d60bc9592664f36f4288258288330e28914fb697a91a1fece21480",
        "603512ea85d059e58b4f92e1588b2f9e7dcce7fdea40aa26d30c6dd5758a78fb",
    ),
    ("grand-canal", 200_000, 1): (
        "69b76862c2deb614b1ce0003cefc764f26ba729840bedbfe1b00aa050954afa9",
        "4195b1f5c9c76e9e3490e32ae7f8e3961c8305ad390fa846a4165b56b6a7b4a5",
        "4050d76e4a2e5ebf297b75301e3424af1aa9ea7ad2424e855673b7f21da2af02",
    ),
    ("night-street", 200_000, 1): (
        "3fd4b6cd8b3a53cf6da7d326b3ca5295a571cd01053094cc9f7e46c1bc6be469",
        "83714130362bb6c177f561202d448c68a245708afd50e775b1f795b275b7e486",
        "93c900f583c747efb9a1d688f5c95def55887ec00a71979a9fc1468f8b061dad",
    ),
    ("rialto", 200_000, 1): (
        "86f3560b2072066a7cea25d7ad671f61d2ab86e5db86d69e989381e724f963ee",
        "523123980ac84a11ec8d1e7bdebc4f52a26ecf12c00a6a4bc21bc3c4c4cdb12e",
        "4426e071ed6d8c193708f666f5c48a6a3b191097dab458bd78d73a309f2dc9e9",
    ),
    ("taipei", 200_000, 1): (
        "a98855ef2b5ab71b2c2465cce534025b37559a893bb3062f85f583de1b1070b5",
        "6d578cfdd1eeb4a40ef30f100e500a3a2cfad0b259c19bd202403b8ad142b031",
        "3c62139ea28d206352274353ea1efd25a708bd95b1c835d610619988fdbc070a",
    ),
}


class TestGeneratorBits:
    @pytest.mark.parametrize("key", list(_DIGESTS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
    def test_arrays_pinned(self, key):
        name, n_records, seed = key
        s = generate(name, n_records=n_records, seg_len=n_records, seed=seed)
        assert (s.statistic.dtype, s.pred.dtype, s.proxy.dtype) == (
            np.float64, np.bool_, np.float64
        )
        got = tuple(
            hashlib.sha256(a.tobytes()).hexdigest()
            for a in (s.statistic, s.pred, s.proxy)
        )
        assert got == _DIGESTS[key]

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_peak_allocation_bounded(self, name):
        # numpy reports its buffers to tracemalloc.  Building the stream
        # in reused buffers keeps generate's working set within a few
        # full-length float64 arrays of its result.
        n = 200_000
        tracemalloc.start()
        try:
            s = generate(name, n_records=n, seg_len=n, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = s.statistic.nbytes + s.pred.nbytes + s.proxy.nbytes
        assert peak <= 6 * returned


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
