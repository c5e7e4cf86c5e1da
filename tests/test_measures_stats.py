"""Tests for the statistical helpers (F1, Fisher CI, silhouette)."""

import numpy as np
import pytest

from repro.measures.stats import (confusion_counts, f1_score,
                                  fisher_ci_halfwidth, multiclass_precision,
                                  silhouette_score)


class TestClassificationScores:
    def test_confusion_counts(self):
        pred = np.array([1, 1, 0, 0])
        truth = np.array([1, 0, 1, 0])
        assert confusion_counts(pred, truth) == (1, 1, 1, 1)

    def test_perfect_f1(self):
        x = np.array([1, 0, 1])
        assert f1_score(x, x) == 1.0

    def test_f1_zero_when_no_positives(self):
        assert f1_score(np.zeros(4), np.zeros(4)) == 0.0

    def test_f1_known_value(self):
        pred = np.array([1, 1, 0, 0])
        truth = np.array([1, 0, 1, 0])
        assert f1_score(pred, truth) == pytest.approx(0.5)

    def test_precision_recall(self):
        pred = np.array([1, 1, 0])
        truth = np.array([1, 0, 1])
        tp, fp, fn, _ = confusion_counts(pred, truth)
        # class-1 precision; swapping the arguments gives class-1 recall
        assert multiclass_precision(pred, truth, 2)[1] == tp / (tp + fp)
        assert multiclass_precision(truth, pred, 2)[1] == tp / (tp + fn)

    def test_f1_is_harmonic_mean_of_precision_and_recall(self):
        pred = np.array([1, 1, 0, 1, 0, 1])
        truth = np.array([1, 0, 1, 1, 0, 0])
        precision = multiclass_precision(pred, truth, 2)[1]
        recall = multiclass_precision(truth, pred, 2)[1]
        assert f1_score(pred, truth) == pytest.approx(
            2 * precision * recall / (precision + recall))

    def test_multiclass_precision(self):
        pred = np.array([0, 0, 1, 2])
        truth = np.array([0, 1, 1, 0])
        prec = multiclass_precision(pred, truth, 3)
        assert prec[0] == pytest.approx(0.5)
        assert prec[1] == 1.0
        assert prec[2] == 0.0


class TestFisherCi:
    def test_halfwidth_shrinks_with_n(self):
        r = np.array([0.5])
        assert fisher_ci_halfwidth(r, 1000)[0] < fisher_ci_halfwidth(r, 100)[0]

    def test_tighter_near_one(self):
        n = 500
        mid = fisher_ci_halfwidth(np.array([0.0]), n)[0]
        high = fisher_ci_halfwidth(np.array([0.95]), n)[0]
        assert high < mid

    def test_infinite_for_tiny_n(self):
        assert np.isinf(fisher_ci_halfwidth(np.array([0.5]), 3)).all()

    def test_approximate_coverage(self):
        """~95% of simulated samples should land inside the CI."""
        rng = np.random.default_rng(0)
        rho, n, trials = 0.6, 200, 400
        covered = 0
        for _ in range(trials):
            x = rng.standard_normal(n)
            y = rho * x + np.sqrt(1 - rho**2) * rng.standard_normal(n)
            r = np.corrcoef(x, y)[0, 1]
            hw = fisher_ci_halfwidth(np.array([r]), n)[0]
            if abs(r - rho) <= hw:
                covered += 1
        assert covered / trials > 0.9


class TestSilhouette:
    def test_well_separated_clusters_score_high(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 2)) * 0.1
        b = rng.standard_normal((30, 2)) * 0.1 + 10.0
        points = np.concatenate([a, b])
        labels = np.array([0] * 30 + [1] * 30)
        assert silhouette_score(points, labels) > 0.9

    def test_identical_clusters_score_near_zero(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((60, 2))
        labels = np.array([0, 1] * 30)
        assert abs(silhouette_score(points, labels)) < 0.2

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((10, 2)), np.zeros(10))

    def test_1d_points_accepted(self):
        points = np.array([0.0, 0.1, 5.0, 5.1])
        labels = np.array([0, 0, 1, 1])
        assert silhouette_score(points, labels) > 0.9

    def test_range(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((40, 3))
        labels = rng.integers(0, 2, size=40)
        s = silhouette_score(points, labels)
        assert -1.0 <= s <= 1.0
