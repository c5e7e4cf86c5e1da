"""Failure-injection and edge-case tests: the engine must fail loudly on
malformed inputs and stay numerically sane on degenerate data."""

import numpy as np
import pytest

from repro import (InspectConfig, InspectionPlan, Session, UnitGroup,
                   inspect)
from repro.extract import RnnActivationExtractor
from repro.extract.base import Extractor
from repro.hypotheses import FunctionHypothesis
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.measures import (CorrelationScore, DiffMeansScore, JaccardScore,
                            LinearProbeScore, LogRegressionScore,
                            MutualInfoScore)
from repro.util.testing import CountingForwardModel


class _BrokenExtractor(Extractor):
    """Returns behaviors with the wrong row count."""

    def n_units(self, model) -> int:
        return model.n_units

    def raw_states(self, model, records):
        # wrong: must be (n_records, ns, n_units)
        return np.zeros((3, 1, model.n_units))


class TestMalformedInputs:
    def test_misaligned_extractor_rejected(self, trained_sql_model,
                                           sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT",))
        with pytest.raises(ValueError, match="row mismatch"):
            inspect([trained_sql_model], sql_workload.dataset,
                    [CorrelationScore()], hyps,
                    extractor=_BrokenExtractor(),
                    config=InspectConfig(mode="streaming",
                                         max_records=20))

    def test_negative_unit_ids_rejected(self, trained_sql_model):
        # numpy would wrap -1 to the last unit and report h_unit_id = -1
        with pytest.raises(ValueError, match="'wrapped'.*negative"):
            UnitGroup(model=trained_sql_model, unit_ids=[-1, 0],
                      name="wrapped")

    def test_unit_ids_past_the_extractor_width_rejected(
            self, trained_sql_model, sql_workload):
        model = CountingForwardModel(trained_sql_model)
        group = UnitGroup(model=model, unit_ids=[0, model.n_units],
                          name="too_wide")
        with pytest.raises(ValueError, match="'too_wide'.*16 units"):
            InspectionPlan.build(
                [group], sql_workload.dataset, [CorrelationScore()],
                sql_keyword_hypotheses(("SELECT",)),
                RnnActivationExtractor(), InspectConfig(max_records=20))
        assert model.forward_calls == 0

    def test_session_query_rejects_negative_units_before_extraction(
            self, trained_sql_model, sql_workload):
        model = CountingForwardModel(trained_sql_model)
        with Session() as session:
            query = (session.inspect(model, sql_workload.dataset)
                     .using("corr")
                     .hypotheses(sql_keyword_hypotheses(("SELECT",)))
                     .where(units=[-1]))
            with pytest.raises(ValueError, match="negative"):
                query.run()
        assert model.forward_calls == 0

    def test_hypothesis_wrong_length_rejected(self, trained_sql_model,
                                              sql_workload):
        bad = FunctionHypothesis("bad", lambda text: np.zeros(3))
        with pytest.raises(ValueError, match="behaviors"):
            inspect([trained_sql_model], sql_workload.dataset,
                    [CorrelationScore()], [bad],
                    config=InspectConfig(max_records=10))

    def test_hypothesis_raising_mid_stream_propagates(self, trained_sql_model,
                                                      sql_workload):
        calls = {"n": 0}

        def flaky(text):
            calls["n"] += 1
            if calls["n"] > 5:
                raise RuntimeError("annotation service down")
            return np.zeros(len(text))

        hyp = FunctionHypothesis("flaky", flaky)
        with pytest.raises(RuntimeError, match="annotation service"):
            inspect([trained_sql_model], sql_workload.dataset,
                    [CorrelationScore()], [hyp],
                    config=InspectConfig(mode="streaming", block_size=4,
                                         max_records=40))

    def test_nan_behaviors_do_not_crash_correlation(self):
        # NaN activations (diverged model) must not silently poison scores
        units = np.zeros((100, 2))
        units[:, 1] = np.nan
        hyps = np.ones((100, 1))
        hyps[:50] = 0.0
        result = CorrelationScore().compute(units, hyps)
        assert result.unit_scores[0, 0] == 0.0  # constant unit stays defined

    def test_non_numeric_hypothesis_output_rejected(self, sql_workload):
        bad = FunctionHypothesis(
            "strings", lambda text: np.array(list(text)))
        with pytest.raises(ValueError):
            bad.extract(sql_workload.dataset, [0])


class TestDegenerateData:
    def test_all_measures_survive_constant_behaviors(self):
        units = np.ones((600, 3))
        hyps = np.zeros((600, 2))
        hyps[:300, 0] = 1.0
        for measure in (CorrelationScore(), DiffMeansScore(),
                        MutualInfoScore(calibration_rows=128),
                        JaccardScore(calibration_rows=128),
                        LinearProbeScore(),
                        LogRegressionScore(epochs=1, cv_folds=2)):
            result = measure.compute(units, hyps)
            assert np.isfinite(result.unit_scores).all(), measure.score_id
            if result.group_scores is not None:
                assert np.isfinite(result.group_scores).all(), \
                    measure.score_id

    def test_single_record_dataset(self, trained_sql_model, sql_workload):
        tiny = sql_workload.dataset.head(1)
        frame = inspect([trained_sql_model], tiny, [CorrelationScore()],
                        sql_keyword_hypotheses(("SELECT",)),
                        config=InspectConfig(mode="full"))
        assert len(frame) == trained_sql_model.n_units

    def test_empty_unit_group_rejected(self, trained_sql_model):
        with pytest.raises(ValueError, match="no units"):
            UnitGroup(model=trained_sql_model,
                      unit_ids=np.array([], dtype=int), name="empty")

    def test_extreme_activation_magnitudes(self):
        rng = np.random.default_rng(0)
        units = rng.standard_normal((500, 2)) * 1e12
        hyps = (rng.random((500, 1)) > 0.5).astype(float)
        result = CorrelationScore().compute(units, hyps)
        assert np.isfinite(result.unit_scores).all()
        assert np.all(np.abs(result.unit_scores) <= 1.0 + 1e-9)

    def test_duplicate_rows_do_not_break_probe(self):
        units = np.tile(np.array([[1.0, 0.0]]), (400, 1))
        units[200:] = [0.0, 1.0]
        hyps = np.zeros((400, 1))
        hyps[200:] = 1.0
        result = LogRegressionScore(epochs=3, cv_folds=2).compute(units,
                                                                  hyps)
        assert result.group_scores[0] > 0.9  # perfectly separable

    def test_hypothesis_all_positive_class(self):
        units = np.random.default_rng(1).standard_normal((300, 2))
        hyps = np.ones((300, 1))
        result = DiffMeansScore().compute(units, hyps)
        assert np.all(result.unit_scores == 0.0)  # undefined contrast -> 0
