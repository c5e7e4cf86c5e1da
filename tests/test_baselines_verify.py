"""Tests for the baseline DNI systems and the verification procedure."""

import numpy as np
import pytest

from repro.baselines import MadlibRunner, PyBaseRunner
from repro.hypotheses import (CharSetHypothesis, KeywordHypothesis,
                              NestingDepthHypothesis)
from repro.measures import CorrelationScore
from repro.util.trace import tracing
from repro.verify import (GenericPerturber, MappingPerturber, verify_units)
from repro.util.rng import new_rng


@pytest.fixture
def kw_hyps():
    return [KeywordHypothesis("SELECT"), KeywordHypothesis("FROM")]


class TestPyBase:
    def test_correlation_matches_deepbase(self, trained_sql_model,
                                          sql_workload, kw_hyps):
        small = sql_workload.dataset.head(40)
        pb = PyBaseRunner().run_correlation(trained_sql_model, small, kw_hyps)
        from repro.extract import RnnActivationExtractor
        from repro.extract.base import HypothesisExtractor
        units = RnnActivationExtractor().extract(trained_sql_model,
                                                 small.symbols)
        hyps_m = HypothesisExtractor(kw_hyps).extract(small)
        exact = CorrelationScore().compute(units, hyps_m)
        assert np.allclose(pb.unit_scores, exact.unit_scores, atol=1e-9)

    def test_traced_run_has_the_engines_span_names(
            self, trained_sql_model, sql_workload, kw_hyps):
        with tracing("pybase") as root:
            PyBaseRunner().run_correlation(trained_sql_model,
                                           sql_workload.dataset.head(20),
                                           kw_hyps)
        assert {"unit_extraction", "hypothesis_extraction",
                "inspection"} <= set(root.totals())

    def test_logreg_group_scores(self, trained_sql_model, sql_workload,
                                 kw_hyps):
        pb = PyBaseRunner(logreg_epochs=2, cv_folds=2)
        res = pb.run_logreg(trained_sql_model, sql_workload.dataset.head(40),
                            kw_hyps)
        assert res.group_scores.shape == (2,)
        assert np.all((0.0 <= res.group_scores)
                      & (res.group_scores <= 1.0))


class TestMadlib:
    def test_correlation_matches_exact(self, trained_sql_model, sql_workload,
                                       kw_hyps):
        small = sql_workload.dataset.head(20)
        runner = MadlibRunner()
        res = runner.run_correlation(trained_sql_model, small, kw_hyps)
        pb = PyBaseRunner().run_correlation(trained_sql_model, small, kw_hyps)
        assert np.allclose(res.unit_scores, pb.unit_scores, atol=1e-9)

    def test_batching_causes_multiple_scans(self, trained_sql_model,
                                            sql_workload, kw_hyps):
        small = sql_workload.dataset.head(10)
        runner = MadlibRunner(batch_limit=8)  # 16 units x 2 hyps = 32 pairs
        runner.run_correlation(trained_sql_model, small, kw_hyps)
        # 4 batches, each scanning both relations
        assert runner.db.full_scans >= 8

    def test_logreg_scans_per_hypothesis(self, trained_sql_model,
                                         sql_workload, kw_hyps):
        small = sql_workload.dataset.head(10)
        runner = MadlibRunner(logreg_iters=3)
        runner.run_logreg(trained_sql_model, small, kw_hyps)
        # 2 hypotheses x (3 training + 1 scoring) scans
        assert runner.db.full_scans == 2 * 4

    def test_tables_materialized(self, trained_sql_model, sql_workload,
                                 kw_hyps):
        small = sql_workload.dataset.head(10)
        runner = MadlibRunner()
        runner.run_correlation(trained_sql_model, small, kw_hyps)
        ns = small.n_symbols
        assert len(runner.db.table("unitsb_dense")) == 10 * ns
        assert len(runner.db.table("hyposb_dense")) == 10 * ns


class TestPerturbers:
    def test_mapping_perturber(self):
        p = MappingPerturber(baseline={"(": [")"]},
                             treatment={"(": ["1", "2"]})
        base, treat = p.candidates("a(b", 1)
        assert base == [")"]
        assert treat == ["1", "2"]

    def test_mapping_perturber_unknown_char(self):
        p = MappingPerturber(baseline={}, treatment={})
        assert p.candidates("abc", 0) == ([], [])

    def test_generic_perturber_splits_by_behavior(self, parens_workload):
        hyp = CharSetHypothesis("parens", "()")
        perturber = GenericPerturber(hyp, parens_workload.dataset)
        text = parens_workload.dataset.record_text(5)
        pos = text.index("(") if "(" in text else 0
        base, treat = perturber.candidates(text, pos)
        # swapping '(' for ')' keeps the hypothesis value 1 -> baseline
        assert ")" in base
        # swapping for a digit flips it to 0 -> treatment
        assert any(c.isdigit() for c in treat)

    def test_generic_perturber_continuous_hypothesis(self, parens_workload):
        hyp = NestingDepthHypothesis()
        perturber = GenericPerturber(hyp, parens_workload.dataset)
        text = parens_workload.dataset.record_text(3)
        digits = [i for i, c in enumerate(text) if c.isdigit()]
        if digits:
            base, treat = perturber.candidates(text, digits[0])
            # any other digit keeps the depth -> baseline
            assert any(c.isdigit() for c in base)


class TestVerification:
    def test_specialized_units_separate_better_than_uncorrelated(
            self, parens_workload, specialized_parens_model):
        """The Figure 13 claim: verification distinguishes true detectors.

        Specialized units must separate treatment from baseline perturbations
        better than the units least correlated with the hypothesis.
        """
        hyp = CharSetHypothesis("parens", "()")
        from repro.extract import RnnActivationExtractor
        from repro.extract.base import HypothesisExtractor
        units = RnnActivationExtractor().extract(
            specialized_parens_model, parens_workload.dataset.symbols)
        hyps_m = HypothesisExtractor([hyp]).extract(parens_workload.dataset)
        corr = CorrelationScore().compute(units, hyps_m).unit_scores[:, 0]
        least = np.argsort(np.abs(corr))[:4]
        spec = verify_units(specialized_parens_model, parens_workload.dataset,
                            hyp, [0, 1, 2, 3], n_sites=40, rng=new_rng(4))
        rand = verify_units(specialized_parens_model, parens_workload.dataset,
                            hyp, least, n_sites=40, rng=new_rng(4))
        assert spec.silhouette > rand.silhouette + 0.1

    def test_report_shapes(self, parens_workload, specialized_parens_model):
        hyp = CharSetHypothesis("parens", "()")
        report = verify_units(specialized_parens_model,
                              parens_workload.dataset, hyp, [0, 1],
                              n_sites=20, rng=new_rng(5))
        assert report.deltas.shape[1] == 2
        assert report.deltas.shape[0] == 2 * report.n_sites
        assert set(report.labels.tolist()) == {0, 1}

    def test_separated_threshold(self, parens_workload,
                                 specialized_parens_model):
        hyp = CharSetHypothesis("parens", "()")
        report = verify_units(specialized_parens_model,
                              parens_workload.dataset, hyp, [0, 1, 2],
                              n_sites=40, rng=new_rng(6))
        assert report.separated(threshold=-1.0)  # trivially true
        assert not report.separated(threshold=1.1)  # impossible

    def test_raises_without_perturbable_sites(self, parens_workload,
                                              specialized_parens_model):
        # a hypothesis that fires nowhere gives no active positions
        hyp = CharSetHypothesis("never", "z")
        with pytest.raises(ValueError, match="perturbable"):
            verify_units(specialized_parens_model, parens_workload.dataset,
                         hyp, [0], n_sites=10, rng=new_rng(7))
