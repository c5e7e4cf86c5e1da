"""Tests for saliency analysis, input gradients and iterator hypotheses."""

import numpy as np
import pytest

from repro.core.saliency import saliency_frame, top_symbols
from repro.hypotheses.iterators import (BracketMachine,
                                        IteratorHypothesis,
                                        bracket_machine_hypotheses)


class TestSaliency:
    def test_top_symbols_shape_and_order(self, trained_sql_model,
                                         sql_workload):
        hits = top_symbols(trained_sql_model, sql_workload.dataset, unit=0,
                           k=5, max_records=30)
        assert len(hits) == 5
        values = [h.value for h in hits]
        assert values == sorted(values, reverse=True)

    def test_hit_symbol_matches_context(self, trained_sql_model,
                                        sql_workload):
        for hit in top_symbols(trained_sql_model, sql_workload.dataset,
                               unit=3, k=3, max_records=30):
            assert f"[{hit.symbol}]" in hit.context
            text = sql_workload.dataset.record_text(hit.record)
            assert text[hit.position] == hit.symbol

    def test_by_abs_includes_negative_peaks(self, trained_sql_model,
                                            sql_workload):
        hits = top_symbols(trained_sql_model, sql_workload.dataset, unit=1,
                           k=10, by_abs=True, max_records=30)
        # under |.| ordering the magnitudes must be sorted
        mags = [abs(h.value) for h in hits]
        assert mags == sorted(mags, reverse=True)

    def test_saliency_frame_schema(self, trained_sql_model, sql_workload):
        frame = saliency_frame(trained_sql_model, sql_workload.dataset,
                               units=[0, 1], k=3, max_records=20)
        assert len(frame) == 6
        assert set(frame["unit"]) == {0, 1}


def input_gradient(model, ids, units):
    """Gradient of the summed activations of ``units`` with respect to the
    one-hot input, through the LSTM's backward pass."""
    x = model.onehot.forward(ids)
    hs = model.lstm.forward(x)
    dh = np.zeros_like(hs)
    dh[:, :, units] = 1.0
    dx = model.lstm.backward(dh)
    model.lstm.zero_grad()
    return dx


class TestInputSaliency:
    def test_gradient_matches_finite_difference(self, trained_sql_model,
                                                sql_workload):
        model = trained_sql_model
        ids = sql_workload.dataset.symbols[:2]
        unit = 4
        dx = input_gradient(model, ids, unit)
        assert dx.shape == ids.shape + (model.vocab_size,)

        # finite-difference check on one input position's one-hot vector
        x = model.onehot.forward(ids)
        pos, comp = 5, 3
        eps = 1e-6

        def unit_sum(x_mod):
            hs = model.lstm.forward(x_mod)
            return float(hs[:, :, unit].sum())

        x_plus = x.copy()
        x_plus[0, pos, comp] += eps
        x_minus = x.copy()
        x_minus[0, pos, comp] -= eps
        fd = (unit_sum(x_plus) - unit_sum(x_minus)) / (2 * eps)
        assert dx[0, pos, comp] == pytest.approx(fd, abs=1e-6)

    def test_unit_group_saliency(self, trained_sql_model, sql_workload):
        ids = sql_workload.dataset.symbols[:2]
        group = input_gradient(trained_sql_model, ids, [0, 1, 2])
        parts = [input_gradient(trained_sql_model, ids, unit)
                 for unit in (0, 1, 2)]
        assert np.allclose(group, sum(parts), atol=1e-12)


class TestIteratorHypotheses:
    def make_dataset(self, texts):
        from tests.test_hypotheses import make_dataset
        return make_dataset(texts)

    def test_bracket_machine_depth(self):
        machine = BracketMachine()
        depths = []
        for ch in "a(b(c))":
            machine.step(ch)
            depths.append(machine.depth)
        assert depths == [1, 2, 3, 4, 5, 4, 2]

    def test_bracket_machine_reduce_events(self):
        machine = BracketMachine()
        events = []
        for ch in "(a)(b)":
            machine.step(ch)
            events.append(machine.reduced)
        assert events == [False, False, True, False, False, True]

    def test_stack_depth_hypothesis(self):
        ds = self.make_dataset(["(ab)"])
        hyps = {h.name: h for h in bracket_machine_hypotheses()}
        out = hyps["sr:stack_depth"].behavior(ds, 0)
        assert out.tolist() == [1, 2, 3, 1]

    def test_max_depth_monotone(self):
        ds = self.make_dataset(["((a))b"])
        hyps = {h.name: h for h in bracket_machine_hypotheses()}
        out = hyps["sr:max_stack_depth"].behavior(ds, 0)
        assert all(a <= b for a, b in zip(out, out[1:]))

    def test_reduce_event_hypothesis(self):
        ds = self.make_dataset(["(a)(b)"])
        hyps = {h.name: h for h in bracket_machine_hypotheses()}
        out = hyps["sr:reduce_event"].behavior(ds, 0)
        assert out.tolist() == [0, 0, 1, 0, 0, 1]

    def test_custom_iterator_hypothesis(self):
        ds = self.make_dataset(["aabba"])
        hyp = IteratorHypothesis(
            "count_a", make_state=lambda: {"n": 0},
            step=lambda s, ch: s.__setitem__("n", s["n"] + (ch == "a"))
            or s["n"])
        assert hyp.behavior(ds, 0).tolist() == [1, 2, 2, 2, 3]

    def test_fresh_state_per_record(self):
        ds = self.make_dataset(["((", "(("])
        hyps = {h.name: h for h in bracket_machine_hypotheses()}
        first = hyps["sr:stack_depth"].behavior(ds, 0)
        second = hyps["sr:stack_depth"].behavior(ds, 1)
        assert np.array_equal(first, second)  # no state leakage

