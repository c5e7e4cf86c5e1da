"""Tests for affinity measures: correctness on known structure, incremental
consistency, convergence behavior, and the model-merging exactness claim."""

import numpy as np
import pytest

from repro.measures import (CorrelationScore, DiffMeansScore, JaccardScore,
                            LinearProbeScore, LogRegressionScore,
                            MajorityClassScore, MulticlassLogRegScore,
                            MultivariateMutualInfoScore, MutualInfoScore,
                            RandomClassScore, SpearmanCorrelationScore,
                            get_measure, list_measures)
from repro.measures.logreg import MergedLogisticRegression
from repro.util.rng import new_rng


class TestCorrelation:
    def test_exact_tracker_scores_high(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        res = CorrelationScore("pearson").compute(units, hyps)
        assert res.unit_scores[0, 0] > 0.9
        assert abs(res.unit_scores[4, 0]) < 0.1
        assert abs(res.unit_scores[0, 1]) < 0.1

    def test_matches_numpy_corrcoef(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        res = CorrelationScore().compute(units, hyps)
        expected = np.corrcoef(units[:, 2], hyps[:, 0])[0, 1]
        assert res.unit_scores[2, 0] == pytest.approx(expected, abs=1e-9)

    def test_incremental_equals_full(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        measure = CorrelationScore()
        full = measure.compute(units, hyps)
        state = measure.new_state(units.shape[1], hyps.shape[1])
        for start in range(0, units.shape[0], 500):
            result, _ = measure.process_block(
                state, units[start:start + 500], hyps[start:start + 500])
        assert np.allclose(result.unit_scores, full.unit_scores, atol=1e-9)

    def test_error_shrinks_with_data(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        measure = CorrelationScore()
        state = measure.new_state(units.shape[1], hyps.shape[1])
        _, err1 = measure.process_block(state, units[:200], hyps[:200])
        _, err2 = measure.process_block(state, units[200:2000], hyps[200:2000])
        assert err2 < err1

    def test_constant_unit_scores_zero(self):
        units = np.ones((100, 1))
        hyps = new_rng(0).random((100, 1))
        res = CorrelationScore().compute(units, hyps)
        assert res.unit_scores[0, 0] == 0.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            CorrelationScore("kendall")

    def test_spearman_handles_monotone_nonlinear(self):
        rng = new_rng(0)
        h = rng.random((2000, 1))
        units = np.exp(5 * h)  # monotone but nonlinear
        res = SpearmanCorrelationScore().compute(units, h)
        assert res.unit_scores[0, 0] > 0.95

    def test_rank_averages_ties(self):
        from repro.measures.correlation import _CorrState
        x = np.array([[1.0], [3.0], [1.0], [2.0], [3.0], [3.0]])
        ranks = _CorrState._rank(x)[:, 0]
        # scipy.stats.rankdata(..., method="average") minus 1 (0-based)
        np.testing.assert_allclose(ranks, [0.5, 4.0, 0.5, 2.0, 4.0, 4.0])

    def test_rank_matches_scipy_average_method(self):
        stats = pytest.importorskip("scipy.stats")
        from repro.measures.correlation import _CorrState
        rng = new_rng(7)
        x = rng.integers(0, 5, size=(200, 3)).astype(float)  # heavy ties
        ranks = _CorrState._rank(x)
        for j in range(x.shape[1]):
            expected = stats.rankdata(x[:, j], method="average") - 1.0
            np.testing.assert_allclose(ranks[:, j], expected)

    def test_spearman_with_ties_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = new_rng(9)
        units = rng.integers(0, 4, size=(600, 2)).astype(float)
        hyps = (units[:, :1] + rng.integers(0, 3, size=(600, 1))).astype(float)
        res = SpearmanCorrelationScore().compute(units, hyps)
        for i in range(units.shape[1]):
            expected = stats.spearmanr(units[:, i], hyps[:, 0]).statistic
            assert res.unit_scores[i, 0] == pytest.approx(expected, abs=1e-9)


class TestDiffMeans:
    def test_detects_mean_shift(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        res = DiffMeansScore().compute(units, hyps)
        assert res.unit_scores[0, 0] > 2.0
        assert abs(res.unit_scores[4, 0]) < 0.2

    def test_degenerate_hypothesis_scores_zero(self):
        units = new_rng(0).standard_normal((100, 2))
        hyps = np.zeros((100, 1))  # never fires
        res = DiffMeansScore().compute(units, hyps)
        assert np.all(res.unit_scores == 0.0)

    def test_incremental_equals_full(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        measure = DiffMeansScore()
        full = measure.compute(units, hyps)
        state = measure.new_state(units.shape[1], hyps.shape[1])
        for start in range(0, units.shape[0], 700):
            result, _ = measure.process_block(
                state, units[start:start + 700], hyps[start:start + 700])
        assert np.allclose(result.unit_scores, full.unit_scores)


class TestMutualInfo:
    def test_detects_dependency(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        res = MutualInfoScore(calibration_rows=1024).compute(units, hyps)
        assert res.unit_scores[0, 0] > 5 * max(res.unit_scores[4, 0], 0.01)

    def test_normalized_scores_bounded(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        res = MutualInfoScore(normalize=True).compute(units, hyps)
        assert np.all(res.unit_scores >= 0.0)
        assert np.all(res.unit_scores <= 1.0 + 1e-9)

    def test_independent_variables_near_zero(self):
        rng = new_rng(1)
        units = rng.standard_normal((4000, 1))
        hyps = (rng.random((4000, 1)) > 0.5).astype(float)
        res = MutualInfoScore().compute(units, hyps)
        assert res.unit_scores[0, 0] < 0.02

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            MutualInfoScore(n_bins=1)

    def test_multivariate_group_beats_weak_units(self):
        """XOR structure: no single unit predicts h, the pair does."""
        rng = new_rng(2)
        a = rng.random(6000) > 0.5
        b = rng.random(6000) > 0.5
        h = (a ^ b).astype(float)
        units = np.stack([a, b], axis=1).astype(float)
        units += rng.standard_normal(units.shape) * 0.05
        measure = MultivariateMutualInfoScore(top_k=2, calibration_rows=2048)
        res = measure.compute(units, h[:, None])
        individual_best = res.unit_scores[:, 0].max()
        assert res.group_scores[0] > individual_best + 0.3

    def test_top_k_validation(self):
        with pytest.raises(ValueError):
            MultivariateMutualInfoScore(top_k=0)


class TestJaccard:
    def test_perfect_overlap(self):
        rng = new_rng(0)
        h = (rng.random(4000) > 0.9).astype(float)
        unit = h * 5.0 + rng.standard_normal(4000) * 0.01
        res = JaccardScore(quantile=0.9, calibration_rows=1024).compute(
            unit[:, None], h[:, None])
        assert res.unit_scores[0, 0] > 0.9

    def test_disjoint_scores_zero(self):
        h = np.zeros(1000)
        h[:100] = 1.0
        unit = np.zeros(1000)
        unit[900:] = 5.0
        res = JaccardScore(quantile=0.85, calibration_rows=512).compute(
            unit[:, None], h[:, None])
        assert res.unit_scores[0, 0] == 0.0

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            JaccardScore(quantile=1.5)

    def test_small_dataset_calibrates_lazily(self):
        rng = new_rng(0)
        units = rng.random((100, 2))
        hyps = (rng.random((100, 1)) > 0.5).astype(float)
        res = JaccardScore(calibration_rows=10_000).compute(units, hyps)
        assert res.unit_scores.shape == (2, 1)  # no crash, scores defined


class TestLogReg:
    def test_predictive_hypothesis_scores_high(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        res = LogRegressionScore(regul="L1", epochs=3, cv_folds=3).compute(
            units, hyps)
        assert res.group_scores[0] > 0.9    # h0 is predictable
        assert res.group_scores[1] < 0.65   # h1 is noise

    def test_l1_zeroes_irrelevant_coefficients(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        res = LogRegressionScore(regul="L1", strength=5e-3, epochs=4,
                                 cv_folds=2).compute(units, hyps)
        coef = np.abs(res.unit_scores[:, 0])
        assert coef[0] > 5 * coef[4]

    def test_merged_equals_unmerged(self, synthetic_behaviors):
        """Model merging is exact (Section 5.2.1)."""
        units, hyps = synthetic_behaviors
        merged = LogRegressionScore(regul="L2", epochs=3, cv_folds=2,
                                    merged=True).compute(units, hyps)
        unmerged = LogRegressionScore(regul="L2", epochs=3, cv_folds=2,
                                      merged=False).compute(units, hyps)
        assert np.allclose(merged.group_scores, unmerged.group_scores,
                           atol=0.03)
        assert np.allclose(merged.unit_scores, unmerged.unit_scores,
                           atol=0.05)

    def test_cpu_gpu_devices_agree(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        gpu = LogRegressionScore(regul="L2", epochs=2, cv_folds=2,
                                 device="gpu").compute(units, hyps)
        cpu = LogRegressionScore(regul="L2", epochs=2, cv_folds=2,
                                 device="cpu").compute(units, hyps)
        assert np.allclose(gpu.unit_scores, cpu.unit_scores, atol=1e-9)
        assert np.allclose(gpu.group_scores, cpu.group_scores, atol=1e-9)

    def test_streaming_state_converges(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        measure = LogRegressionScore(regul="L2", window=2)
        state = measure.new_state(units.shape[1], hyps.shape[1])
        errs = []
        for start in range(0, units.shape[0], 300):
            result, err = measure.process_block(
                state, units[start:start + 300], hyps[start:start + 300])
            errs.append(err)
        assert result.group_scores[0] > 0.85
        assert errs[-1] < 0.2

    def test_invalid_regul_rejected(self):
        with pytest.raises(ValueError):
            LogRegressionScore(regul="L3")

    def test_invalid_score_rejected(self):
        with pytest.raises(ValueError):
            LogRegressionScore(score="AUC")


class TestMergedLogisticRegression:
    def test_learns_and_separates(self):
        rng = new_rng(0)
        x = rng.standard_normal((2000, 4))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(float)[:, None]
        model = MergedLogisticRegression(4, 1, lr=0.1)
        for _ in range(5):
            model.partial_fit(x, y)
        f1 = model.f1_per_output(x, y)
        assert f1[0] > 0.9

    def test_minibatch_step_is_bias_corrected_adam(self):
        """One minibatch: the sigmoid gradient (plus the L1 and L2 terms on
        the weights only) through the textbook Adam update."""
        rng = new_rng(6)
        x = rng.standard_normal((50, 3))
        y = (rng.random((50, 2)) > 0.5).astype(float)
        model = MergedLogisticRegression(3, 2, l1=1e-2, l2=1e-1, lr=0.05,
                                         seed=2)
        w, b = model.weights.copy(), model.bias.copy()
        model.partial_fit(x, y, batch_size=50)
        delta = 1.0 / (1.0 + np.exp(-(x @ w + b))) - y
        grad_w = x.T @ delta / 50 + 1e-1 * w + 1e-2 * np.sign(w)
        grad_b = delta.mean(axis=0)
        for grad, before, after in ((grad_w, w, model.weights),
                                    (grad_b, b, model.bias)):
            m_hat = (1 - 0.9) * grad / (1 - 0.9)
            v_hat = (1 - 0.999) * grad**2 / (1 - 0.999)
            np.testing.assert_allclose(
                after, before - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-7),
                rtol=1e-12, atol=1e-15)

    def test_columns_train_independently(self):
        """Merged training must not couple the per-hypothesis columns."""
        rng = new_rng(0)
        x = rng.standard_normal((1500, 3))
        y0 = (x[:, 0] > 0).astype(float)
        y1 = (x[:, 1] > 0).astype(float)
        merged = MergedLogisticRegression(3, 2, lr=0.1, seed=1)
        solo = MergedLogisticRegression(3, 1, lr=0.1, seed=1)
        for _ in range(3):
            merged.partial_fit(x, np.stack([y0, y1], axis=1))
            solo.partial_fit(x, y0[:, None])
        # column 0 of the merged model equals the solo model's column,
        # modulo the different random init of column 1 (same seed, same
        # init slice for column 0)
        assert np.allclose(merged.f1_per_output(
            x, np.stack([y0, y1], axis=1))[0],
            solo.f1_per_output(x, y0[:, None])[0], atol=0.02)


class TestMulticlass:
    def test_recovers_separable_classes(self):
        rng = new_rng(0)
        n = 3000
        y = rng.integers(0, 3, size=n)
        x = rng.standard_normal((n, 5)) * 0.2
        for cls in range(3):
            x[:, cls] += (y == cls)
        res = MulticlassLogRegScore(n_classes=3, epochs=6).compute(
            x, y[:, None].astype(float))
        assert res.group_scores[0] > 0.95
        assert np.all(res.extras["per_class_precision"] > 0.9)

    def test_rejects_multiple_hypotheses(self):
        m = MulticlassLogRegScore(n_classes=3)
        with pytest.raises(ValueError):
            m.new_state(4, 2)

    def test_class_count_validation(self):
        with pytest.raises(ValueError):
            MulticlassLogRegScore(n_classes=1)

    def test_invalid_regul_rejected(self):
        with pytest.raises(ValueError):
            MulticlassLogRegScore(n_classes=3, regul="L3")


class TestHeldOutProbing:
    """Both probes' streaming states share one held-out protocol: every
    5th row of a block is scored on, never trained on."""

    @staticmethod
    def _blocks(measure, state, x, h, block=300):
        for start in range(0, x.shape[0], block):
            measure.process_block(state, x[start:start + block],
                                  h[start:start + block])

    def test_held_out_rows_are_every_fifth_row_of_each_block(self):
        rng = new_rng(2)
        units = rng.standard_normal((900, 3))
        hyps = (units[:, :1] > 0).astype(float)
        measure = LogRegressionScore(regul="L2")
        state = measure.new_state(3, 1)
        self._blocks(measure, state, units, hyps)
        x, y = state.held_out()
        mean, std = state.scale
        rows = np.concatenate([np.arange(s, s + 300, 5)
                               for s in range(0, 900, 300)])
        np.testing.assert_array_equal(x, (units[rows] - mean) / std)
        np.testing.assert_array_equal(y, hyps[rows])
        # the first block alone fixed the standardization
        np.testing.assert_array_equal(mean, units[:300].mean(axis=0))

    def test_group_score_is_the_held_out_score(self):
        rng = new_rng(3)
        units = rng.standard_normal((600, 4))
        hyps = (units[:, :2] > 0).astype(float)
        measure = LogRegressionScore(regul="L1")
        state = measure.new_state(4, 2)
        self._blocks(measure, state, units, hyps)
        np.testing.assert_array_equal(
            state.group_scores(), state.model.f1_per_output(*state.held_out()))

    def test_cap_stops_holding_out_but_not_training(self):
        rng = new_rng(4)
        units = rng.standard_normal((1200, 3))
        hyps = (units[:, :1] > 0).astype(float)
        measure = LogRegressionScore(regul="L2", max_val_rows=100)
        state = measure.new_state(3, 1)
        self._blocks(measure, state, units, hyps)
        # 60 rows, then 120 >= 100: blocks three and four hold nothing out
        assert state.held_out()[0].shape[0] == 120
        weights = state.model.weights.copy()
        measure.process_block(state, units[:300], hyps[:300])
        assert state.held_out()[0].shape[0] == 120
        assert not np.array_equal(weights, state.model.weights)

    def test_multiclass_streams_through_the_same_protocol(self):
        rng = new_rng(5)
        y = rng.integers(0, 3, size=900)
        units = rng.standard_normal((900, 4)) * 0.2
        units[np.arange(900), y] += 1.0
        measure = MulticlassLogRegScore(n_classes=3, window=2)
        state = measure.new_state(4, 1)
        self._blocks(measure, state, units, y[:, None].astype(float))
        x_val, y_val = state.held_out()
        assert x_val.shape[0] == 180  # uncapped: 60 rows per block
        accuracy = float((state.model.predict(x_val) == y_val).mean())
        result = state.result()
        assert result.group_scores[0] == accuracy > 0.9
        assert result.extras["per_class_precision"].shape == (3,)


class TestLinearProbe:
    def test_r2_high_for_linear_relationship(self):
        rng = new_rng(0)
        x = rng.standard_normal((2000, 4))
        y = (2 * x[:, 0] - x[:, 2])[:, None] + rng.standard_normal((2000, 1)) * 0.1
        res = LinearProbeScore().compute(x, y)
        assert res.group_scores[0] > 0.95
        assert res.unit_scores[0, 0] == pytest.approx(2.0, abs=0.05)

    def test_r2_near_zero_for_noise(self):
        rng = new_rng(1)
        x = rng.standard_normal((2000, 4))
        y = rng.standard_normal((2000, 1))
        res = LinearProbeScore().compute(x, y)
        assert res.group_scores[0] < 0.05

    def test_incremental_equals_full(self):
        rng = new_rng(2)
        x = rng.standard_normal((1000, 3))
        y = x[:, :1] + rng.standard_normal((1000, 1)) * 0.3
        measure = LinearProbeScore()
        full = measure.compute(x, y)
        state = measure.new_state(3, 1)
        for start in range(0, 1000, 250):
            result, _ = measure.process_block(
                state, x[start:start + 250], y[start:start + 250])
        assert np.allclose(result.group_scores, full.group_scores, atol=1e-9)

    def test_window_pushes_the_score_of_the_rows_seen(self):
        """Each block pushes the R² of every row folded so far, its own
        included: the window never holds a score of fewer rows (a 0.0
        before the first block, or one block behind)."""
        rng = new_rng(3)
        x = rng.standard_normal((4000, 3))
        y = x[:, :1] + rng.standard_normal((4000, 1)) * 0.3
        measure = LinearProbeScore(window=2)
        state = measure.new_state(3, 1)
        for start in range(0, 4000, 1000):
            result, _ = measure.process_block(
                state, x[start:start + 1000], y[start:start + 1000])
            assert state._history[-1].tobytes() \
                == result.group_scores.tobytes()
        assert len(state._history) == 3

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            LinearProbeScore(ridge=-1.0)


class TestBaselines:
    def test_random_f1_equals_prior(self):
        hyps = np.zeros((1000, 1))
        hyps[:300] = 1.0
        res = RandomClassScore().compute(np.zeros((1000, 2)), hyps)
        assert res.group_scores[0] == pytest.approx(0.3)

    def test_majority_zero_when_negative_dominates(self):
        hyps = np.zeros((1000, 1))
        hyps[:300] = 1.0
        res = MajorityClassScore().compute(np.zeros((1000, 2)), hyps)
        assert res.group_scores[0] == 0.0

    def test_majority_when_positive_dominates(self):
        hyps = np.ones((1000, 1))
        hyps[:300] = 0.0
        res = MajorityClassScore().compute(np.zeros((1000, 2)), hyps)
        assert res.group_scores[0] == pytest.approx(2 * 0.7 / 1.7)

    def test_unit_scores_tiled(self):
        hyps = np.ones((100, 2))
        res = RandomClassScore().compute(np.zeros((100, 3)), hyps)
        assert res.unit_scores.shape == (3, 2)
        assert np.all(res.unit_scores == res.group_scores[None, :])


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in list_measures():
            measure = get_measure(name)
            assert hasattr(measure, "score_id")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_measure("nope")

    def test_case_insensitive(self):
        assert get_measure("CORR").score_id == "corr:pearson"


class TestCalibrationBuffering:
    """Regression tests: mid-stream result reads must not flush the
    calibration buffer.  Quantile thresholds / bin edges / unit selection
    must be estimated from >= calibration_rows rows (the first blocks only
    buffer), not from whatever the first block happened to hold."""

    @staticmethod
    def _data(n=1500, n_units=3, n_hyps=2, seed=9):
        rng = new_rng(seed)
        units = rng.standard_normal((n, n_units))
        hyps = (rng.random((n, n_hyps)) > 0.6).astype(float)
        return units, hyps

    @staticmethod
    def _feed(measure, state, units, hyps, block):
        for start in range(0, units.shape[0], block):
            measure.process_block(state, units[start:start + block],
                                  hyps[start:start + block])

    def test_jaccard_thresholds_use_full_calibration_sample(self):
        units, hyps = self._data()
        measure = JaccardScore(quantile=0.9, calibration_rows=1000)
        state = measure.new_state(3, 2)
        measure.process_block(state, units[:400], hyps[:400])
        # process_block already read state.result(); reading again must
        # also leave the buffer intact
        state.unit_scores()
        state.error()
        assert state.calibration is None
        measure.process_block(state, units[400:800], hyps[400:800])
        assert state.calibration is None  # 800 < 1000: still buffering
        measure.process_block(state, units[800:1200], hyps[800:1200])
        assert state.calibration is not None  # calibrated at 1200 >= 1000
        np.testing.assert_allclose(
            state.calibration, np.quantile(units[:1200], 0.9, axis=0))

    def test_jaccard_streaming_matches_single_shot(self):
        units, hyps = self._data(n=1200)
        measure = JaccardScore(quantile=0.9, calibration_rows=1000)
        full = measure.compute(units, hyps)
        state = measure.new_state(3, 2)
        self._feed(measure, state, units, hyps, block=300)
        np.testing.assert_allclose(state.unit_scores(), full.unit_scores)

    def test_mutual_info_edges_use_full_calibration_sample(self):
        units, hyps = self._data()
        measure = MutualInfoScore(n_bins=4, calibration_rows=1000)
        state = measure.new_state(3, 2)
        measure.process_block(state, units[:400], hyps[:400])
        state.unit_scores()
        state.error()
        assert state.calibration is None
        measure.process_block(state, units[400:800], hyps[400:800])
        assert state.calibration is None
        measure.process_block(state, units[800:1200], hyps[800:1200])
        assert state.calibration is not None
        from repro.measures.mutual_info import _quantile_edges
        u_edges, _ = state.calibration
        np.testing.assert_allclose(u_edges, _quantile_edges(units[:1200], 4))

    def test_multi_mi_selection_uses_full_calibration_sample(self):
        units, hyps = self._data(n_units=5, n_hyps=1)
        measure = MultivariateMutualInfoScore(top_k=2, calibration_rows=1000)
        state = measure.new_state(5, 1)
        measure.process_block(state, units[:400], hyps[:400])
        state.unit_scores()
        state.group_scores()
        state.error()
        assert state.calibration is None
        measure.process_block(state, units[400:800], hyps[400:800])
        assert state.calibration is None
        measure.process_block(state, units[800:1200], hyps[800:1200])
        assert state.calibration is not None
        u_medians, _ = state.calibration
        np.testing.assert_allclose(u_medians, np.median(units[:1200], axis=0))

    def test_small_dataset_provisional_scores_match_calibrated(self):
        """End-of-stream below calibration_rows: provisional scores equal a
        state whose calibration target is exactly the dataset size."""
        units, hyps = self._data(n=300)
        lazy = JaccardScore(quantile=0.9,
                            calibration_rows=10_000).compute(units, hyps)
        exact = JaccardScore(quantile=0.9,
                             calibration_rows=300).compute(units, hyps)
        np.testing.assert_allclose(lazy.unit_scores, exact.unit_scores)
        lazy_mi = MutualInfoScore(calibration_rows=10_000).compute(units,
                                                                   hyps)
        exact_mi = MutualInfoScore(calibration_rows=300).compute(units, hyps)
        np.testing.assert_allclose(lazy_mi.unit_scores,
                                   exact_mi.unit_scores)

    def test_no_convergence_during_buffering(self):
        units, hyps = self._data(n=900)
        measure = JaccardScore(calibration_rows=10_000, window=1)
        state = measure.new_state(3, 2)
        for start in range(0, 900, 100):
            _, err = measure.process_block(state, units[start:start + 100],
                                           hyps[start:start + 100])
            assert err == float("inf")  # provisional scores never converge


#: one of each measure whose parameters are fitted on a calibration sample
CALIBRATED = {
    "jaccard": lambda rows: JaccardScore(quantile=0.9, calibration_rows=rows),
    "mutual_info": lambda rows: MutualInfoScore(calibration_rows=rows),
    "multi_mi": lambda rows: MultivariateMutualInfoScore(
        top_k=2, calibration_rows=rows),
}


@pytest.mark.parametrize("name", sorted(CALIBRATED))
class TestCalibratedStateContract:
    """Every calibrated measure inherits one buffering contract."""

    @staticmethod
    def _data(n=1200, seed=4):
        rng = new_rng(seed)
        units = rng.standard_normal((n, 4))
        hyps = (rng.random((n, 3)) > 0.6).astype(float)
        return units, hyps

    @staticmethod
    def _scores(state):
        group = state.group_scores()
        return state.unit_scores(), None if group is None else group.copy()

    def test_empty_state_scores_zero(self, name):
        state = CALIBRATED[name](100).new_state(4, 3)
        assert np.array_equal(state.unit_scores(), np.zeros((4, 3)))
        assert state.calibration is None and state.stats is None

    def test_reads_while_buffering_change_nothing(self, name):
        """A provisional read is memoized and leaves the buffer alone:
        reading after every block ends in the same state as never reading."""
        units, hyps = self._data()
        measure = CALIBRATED[name](1000)
        read, silent = measure.new_state(4, 3), measure.new_state(4, 3)
        for start in range(0, 1200, 300):
            block = units[start:start + 300], hyps[start:start + 300]
            measure.process_block(read, *block)
            assert self._scores(read)[0] is not None
            silent.update(*block)
            silent.n_rows += 300
        assert read.calibration is not None
        for got, want in zip(self._scores(read), self._scores(silent)):
            np.testing.assert_array_equal(got, want)

    def test_provisional_equals_calibration_on_the_same_rows(self, name):
        """Scores read mid-buffer equal a state calibrated on exactly the
        rows buffered so far: block boundaries do not show in the counts."""
        units, hyps = self._data(n=600)
        lazy = CALIBRATED[name](10_000)
        exact = CALIBRATED[name](600)
        state = lazy.new_state(4, 3)
        for start in range(0, 600, 150):
            lazy.process_block(state, units[start:start + 150],
                               hyps[start:start + 150])
        assert state.calibration is None
        full = exact.compute(units, hyps)
        np.testing.assert_array_equal(state.unit_scores(), full.unit_scores)

    def test_no_score_history_while_buffering(self, name):
        units, hyps = self._data(n=900)
        measure = CALIBRATED[name](1000)
        state = measure.new_state(4, 3)
        for start in range(0, 900, 300):
            _, err = measure.process_block(state, units[start:start + 300],
                                           hyps[start:start + 300])
            assert err == float("inf")
        assert state._history == []


class TestScatterCounts:
    """The flat-bincount scatter must equal the dense-mask reference."""

    @staticmethod
    def _reference(u_bins, h_bins, shape):
        joint = np.zeros(shape)
        for bu in range(shape[2]):
            mask_u = (u_bins == bu).astype(np.float64)
            for bh in range(shape[3]):
                mask_h = (h_bins == bh).astype(np.float64)
                joint[:, :, bu, bh] += mask_u.T @ mask_h
        return joint

    def test_small_grid_matches(self):
        # 5 x 3 = 15 cells: the dense-mask branch
        from repro.measures.mutual_info import _scatter_counts
        rng = new_rng(4)
        u_bins = rng.integers(0, 5, (200, 7))
        h_bins = rng.integers(0, 3, (200, 4))
        joint = np.zeros((7, 4, 5, 3))
        _scatter_counts(joint, u_bins, h_bins)
        np.testing.assert_array_equal(
            joint, self._reference(u_bins, h_bins, joint.shape))

    def test_large_grid_matches(self):
        # 16 x 16 = 256 cells: the flat bincount scatter branch
        from repro.measures.mutual_info import _scatter_counts
        rng = new_rng(4)
        u_bins = rng.integers(0, 16, (150, 6))
        h_bins = rng.integers(0, 16, (150, 3))
        joint = np.zeros((6, 3, 16, 16))
        _scatter_counts(joint, u_bins, h_bins)
        np.testing.assert_array_equal(
            joint, self._reference(u_bins, h_bins, joint.shape))

    def test_chunked_scatter_matches(self):
        from repro.measures.mutual_info import _scatter_counts
        rng = new_rng(5)
        n_units, n_hyps = 300, 70  # chunk = 4M // 21k = 190 < 400 rows
        u_bins = rng.integers(0, 12, (400, n_units))
        h_bins = rng.integers(0, 12, (400, n_hyps))
        joint = np.zeros((n_units, n_hyps, 12, 12))  # 144 cells: scatter
        _scatter_counts(joint, u_bins, h_bins)
        np.testing.assert_array_equal(
            joint, self._reference(u_bins, h_bins, joint.shape))
