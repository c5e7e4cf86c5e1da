"""Tests for progressive inspection, and the prediction head over a
model's unit activations with none or all of them ablated."""

import numpy as np

from repro import (InspectConfig, InspectionPlan, Session, all_units_group,
                   inspect)
from repro.extract import RnnActivationExtractor
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.measures import CorrelationScore


def build_plan(model, dataset, hyps, config) -> InspectionPlan:
    ext = RnnActivationExtractor()
    return InspectionPlan.build([all_units_group(model, ext)], dataset,
                                [CorrelationScore()], hyps, ext, config)


def stream(model, dataset, hyps, config):
    """Partial frames of one correlation query, via ``.stream()``."""
    with Session(config=config) as session:
        return list(session.inspect(model, dataset)
                    .using(CorrelationScore()).hypotheses(hyps).stream())


class TestProgressive:
    def test_shuffled_record_order_is_permutation(self, trained_sql_model,
                                                  sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT",))
        config = InspectConfig(max_records=50, seed=0)
        plan = build_plan(trained_sql_model, sql_workload.dataset, hyps,
                          config)
        assert sorted(plan.order.tolist()) == list(range(50))
        assert plan.order.tolist() != list(range(50))
        plain = build_plan(trained_sql_model, sql_workload.dataset, hyps,
                           InspectConfig(max_records=50, shuffle=False))
        assert plain.order.tolist() == list(range(50))

    def test_yields_once_per_block(self, trained_sql_model, sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT",))
        config = InspectConfig(mode="streaming", block_size=50,
                               early_stop=False, max_records=150)
        partials = stream(trained_sql_model, sql_workload.dataset, hyps,
                          config)
        # 150 records / 50 per block
        assert [p.records_processed for p in partials] == [50, 100, 150]

    def test_error_decreases_across_blocks(self, trained_sql_model,
                                           sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT", "FROM"))
        config = InspectConfig(mode="streaming", block_size=40,
                               early_stop=False, max_records=160)
        plan = build_plan(trained_sql_model, sql_workload.dataset, hyps,
                          config)
        errors = [plan.tasks[0].last_error for _ in plan.execute_blocks()]
        assert len(errors) == 4
        assert errors[-1] < errors[0]

    def test_stops_on_convergence(self, trained_sql_model, sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT",))
        config = InspectConfig(mode="streaming", block_size=40,
                               early_stop=True, error_threshold=0.2)
        partials = stream(trained_sql_model, sql_workload.dataset, hyps,
                          config)
        assert partials[-1].converged
        assert partials[-1].records_processed < \
            sql_workload.dataset.n_records

    def test_early_break_is_clean(self, trained_sql_model, sql_workload):
        """Abandoning the generator mid-stream must be safe."""
        hyps = sql_keyword_hypotheses(("SELECT",))
        config = InspectConfig(mode="streaming", block_size=30,
                               early_stop=False)
        plan = build_plan(trained_sql_model, sql_workload.dataset, hyps,
                          config)
        steps = plan.execute_blocks()
        next(steps)
        steps.close()
        (first,) = plan.outcomes()
        assert first.records_processed == 30
        assert np.isfinite(first.result.unit_scores).all()

    def test_final_scores_match_batch_inspection(self, trained_sql_model,
                                                 sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT",))
        config = InspectConfig(mode="streaming", block_size=64,
                               early_stop=False, seed=3)
        plan = build_plan(trained_sql_model, sql_workload.dataset, hyps,
                          config)
        for _ in plan.execute_blocks():
            pass
        (last,) = plan.outcomes()
        batch_cfg = InspectConfig(mode="streaming", block_size=64,
                                  early_stop=False, seed=3)
        out = inspect([trained_sql_model], sql_workload.dataset,
                      [CorrelationScore()], hyps, config=batch_cfg,
                      as_frame=False)
        assert np.allclose(last.result.unit_scores,
                           out[0].result.unit_scores, atol=1e-12)


class TestAblation:
    def test_ablating_nothing_changes_nothing(self, trained_sql_model,
                                              sql_workload):
        ids = sql_workload.dataset.symbols[:100]
        states = trained_sql_model.hidden_states(ids)
        logits = trained_sql_model.head.forward(states[:, -1])
        assert np.array_equal(logits, trained_sql_model.forward(ids))

    def test_ablating_all_units_makes_predictions_constant(
            self, trained_sql_model, sql_workload):
        ids = sql_workload.dataset.symbols[:100]
        states = trained_sql_model.hidden_states(ids)
        masked = np.zeros_like(states)
        logits = trained_sql_model.head.forward(masked[:, -1])
        preds = logits.argmax(axis=-1)
        assert np.unique(preds).shape[0] == 1  # only the bias speaks
