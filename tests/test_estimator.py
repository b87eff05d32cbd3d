"""Unit tests for repro.core.estimator."""
import numpy as np
import pytest

from repro.core.estimator import (
    CellStats,
    cell_stats,
    confidence_interval,
    get_prediction,
)


def cell(f, pred, d_size):
    """One cell holding all of ``f``/``pred``."""
    return cell_stats(f, pred, np.zeros(len(f), dtype=int), [d_size])


def cells_of(*parts):
    return CellStats.concat(list(parts))


class TestStratumSample:
    def test_counts(self):
        c = cell([1, 2, 3], [True, False, True], 100)
        assert c.n[0] == 3 and c.n_pos[0] == 2

    def test_p_hat(self):
        assert cell([1, 2], [True, False], 10).p_hat[0] == 0.5

    def test_p_hat_empty(self):
        assert cell([], [], 10).p_hat[0] == 0.0

    def test_mu_hat_over_matching_only(self):
        assert cell([5.0, 100.0], [True, False], 10).mu_hat[0] == 5.0

    def test_mu_hat_no_matching_is_zero(self):
        assert cell([5.0], [False], 10).mu_hat[0] == 0.0


class TestCellStats:
    def test_sums_are_each_cells_sum_in_draw_order(self):
        # The estimators must see f[pred].sum() over each cell's draws, in
        # draw order (numpy's pairwise sum), bit for bit; a sequential sum
        # such as bincount's differs in the low bits.
        g = np.random.default_rng(0)
        f = g.lognormal(0.0, 1.0, 3000)
        pred = g.random(3000) < 0.7
        labels = g.integers(0, 30, 3000)
        stats = cell_stats(f, pred, labels, np.full(30, 10_000))
        for c in range(30):
            fc, pc = f[labels == c], pred[labels == c]
            assert stats.sum_f[c] == fc[pc].sum()
            assert stats.sum_f2[c] == (fc[pc] ** 2).sum()


class TestSegmentEstimate:
    def test_hand_computed(self):
        # w_k = p_hat_k * d_k; mu = sum w_k mu_k / sum w_k.
        cells = cells_of(
            cell([1.0, 1.0], [True, True], 100),  # p=1, mu=1, w=100
            cell([3.0, 0.0], [True, False], 200),  # p=0.5, mu=3, w=100
        )
        assert np.isclose(get_prediction(cells), (100 * 1 + 100 * 3) / 200)

    def test_single_cell_is_plain_mean(self):
        c = cell([1.0, 2.0, 6.0], [True, True, True], 50)
        assert np.isclose(get_prediction(c), 3.0)

    def test_no_matching_samples_zero(self):
        assert get_prediction(cell([1.0], [False], 10)) == 0.0

    def test_empty_cells_zero(self):
        assert get_prediction(cell([], [], 10)) == 0.0

    def test_unsampled_cell_ignored(self):
        cells = cells_of(cell([2.0], [True], 100), cell([], [], 900))
        assert np.isclose(get_prediction(cells), 2.0)

    def test_unbiased_no_predicate(self):
        # Stratified mean with proportional weights is unbiased: average
        # over many resamples converges to the population mean.
        g = np.random.default_rng(0)
        pop = np.concatenate([g.normal(1, 0.1, 1000), g.normal(3, 0.1, 3000)])
        strata = [pop[:1000], pop[1000:]]
        ests = []
        for s in range(600):
            r = np.random.default_rng(s)
            cells = cells_of(
                *(cell(r.choice(part, 20), [True] * 20, len(part)) for part in strata)
            )
            ests.append(get_prediction(cells))
        assert abs(np.mean(ests) - pop.mean()) < 0.01

    def test_unbiased_with_predicate(self):
        g = np.random.default_rng(1)
        f = g.normal(2, 0.5, 4000)
        pred = g.random(4000) < 0.5
        ests = []
        for s in range(600):
            r = np.random.default_rng(s)
            idx = r.choice(4000, 50, replace=False)
            ests.append(get_prediction(cell(f[idx], pred[idx], 4000)))
        assert abs(np.mean(ests) - f[pred].mean()) < 0.02


class TestGetPrediction:
    def test_equals_segment_estimate_on_flat_list(self):
        # A segment's estimate is get_prediction of that segment's slice of
        # the flat cell list: the same as of its cells built on their own.
        seg1 = [cell([1.0], [True], 10), cell([2.0, 4.0], [True, True], 30)]
        seg2 = [cell([5.0, 0.0], [True, False], 20), cell([3.0], [True], 40)]
        flat = cells_of(*seg1, *seg2)
        assert get_prediction(flat[:2]) == get_prediction(cells_of(*seg1))
        assert get_prediction(flat[2:]) == get_prediction(cells_of(*seg2))

    def test_algorithm2_formula(self):
        # mu = sum_tk mu_tk p_tk |D_tk| / sum_tj p_tj |D_tj|.
        cells = cells_of(
            cell([2.0, 2.0], [True, True], 100),   # mu=2, p=1, d=100
            cell([4.0, 0.0], [True, False], 300),  # mu=4, p=.5, d=300
            cell([0.0], [False], 500),             # p=0 -> drops out
        )
        expected = (2 * 1 * 100 + 4 * 0.5 * 300) / (100 + 150)
        assert np.isclose(get_prediction(cells), expected)


class TestBootstrapCi:
    def _cells(self, seed=0, n=80):
        g = np.random.default_rng(seed)
        return cells_of(
            cell(g.normal(2, 0.5, n), g.random(n) < 0.8, 1000),
            cell(g.normal(3, 0.5, n), g.random(n) < 0.5, 1000),
        )

    def test_contains_point_estimate(self):
        cells = self._cells()
        lo, hi = confidence_interval(cells)
        assert lo <= get_prediction(cells) <= hi

    def test_ordered_and_finite(self):
        lo, hi = confidence_interval(self._cells(3))
        assert np.isfinite(lo) and np.isfinite(hi) and lo <= hi

    def test_narrower_at_lower_confidence(self):
        cells = self._cells(4)
        lo95, hi95 = confidence_interval(cells, confidence=0.95)
        lo50, hi50 = confidence_interval(cells, confidence=0.50)
        assert (hi50 - lo50) < (hi95 - lo95)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            confidence_interval(self._cells(), confidence=1.5)

    def test_no_matching_samples_is_nan(self):
        lo, hi = confidence_interval(cells_of(cell([1.0, 2.0], [False, False], 10)))
        assert np.isnan(lo) and np.isnan(hi)

    def test_rough_coverage(self):
        # ~95% CI should cover the truth in the vast majority of trials;
        # generous bound to keep the test cheap and stable.
        g = np.random.default_rng(10)
        f = g.normal(2, 1.0, 5000)
        pred = g.random(5000) < 0.7
        truth = f[pred].mean()
        hits = 0
        trials = 60
        for s in range(trials):
            r = np.random.default_rng(100 + s)
            idx = r.choice(5000, 150, replace=False)
            lo, hi = confidence_interval(cell(f[idx], pred[idx], 5000))
            hits += lo <= truth <= hi
        assert hits / trials >= 0.8
