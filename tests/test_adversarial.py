"""Tests for the Section 5.6 adversarial-shift stream generator."""
import numpy as np
import pytest

from repro.datasets.adversarial import generate_adversarial


class TestGenerateAdversarial:
    @pytest.mark.parametrize("n_shifts", [0, 1, 3, 5])
    def test_shapes(self, n_shifts):
        s = generate_adversarial(n_shifts=n_shifts, n_records=10_000, seg_len=2_000)
        assert s.n_records == 10_000 and s.n_segments == 5
        assert len(s.statistic) == len(s.pred) == len(s.proxy) == 10_000

    def test_proxy_bounded(self):
        s = generate_adversarial(n_shifts=2, n_records=5_000, seg_len=1_000)
        assert s.proxy.min() >= 0.0 and s.proxy.max() <= 1.0

    def test_predicate_masks_statistic(self):
        # Non-matching records carry statistic exactly 0 (Bernoulli mask).
        s = generate_adversarial(n_shifts=2, n_records=5_000, seg_len=1_000)
        assert np.all(s.statistic[~s.pred] == 0.0)

    def test_deterministic(self):
        a = generate_adversarial(n_shifts=3, n_records=4_000, seg_len=1_000, seed=1)
        b = generate_adversarial(n_shifts=3, n_records=4_000, seg_len=1_000, seed=1)
        assert np.array_equal(a.statistic, b.statistic)

    def test_seeds_differ(self):
        a = generate_adversarial(n_shifts=3, n_records=4_000, seg_len=1_000, seed=1)
        b = generate_adversarial(n_shifts=3, n_records=4_000, seg_len=1_000, seed=2)
        assert not np.array_equal(a.statistic, b.statistic)

    def test_shift_changes_distribution(self):
        # A single mid-stream shift should move the positivity rate or
        # the mean statistic in almost every draw; check across seeds.
        moved = 0
        for seed in range(8):
            s = generate_adversarial(n_shifts=0, n_records=6_000, seg_len=3_000, seed=seed)
            t = generate_adversarial(n_shifts=1, n_records=6_000, seg_len=3_000, seed=seed)
            halves = lambda x: (x[:3000], x[3000:])
            a, b = halves(t.pred)
            moved += abs(a.mean() - b.mean()) > abs(
                halves(s.pred)[0].mean() - halves(s.pred)[1].mean()
            )
        assert moved >= 4

    def test_negative_shifts_raise(self):
        with pytest.raises(ValueError):
            generate_adversarial(n_shifts=-1, n_records=100, seg_len=10)

    def test_statistic_ranges_reflect_mu_bands(self):
        # mu bands ([0,3],[3,6],[6,9]) with sigma <= 3: matching values
        # should stay within a generous envelope.
        s = generate_adversarial(n_shifts=5, n_records=20_000, seg_len=4_000, seed=3)
        match = s.statistic[s.pred]
        assert match.max() < 9 + 5 * 3 and match.min() > 0 - 5 * 3

