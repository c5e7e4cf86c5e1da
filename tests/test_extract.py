"""Tests for behavior extractors."""

import numpy as np
import pytest

from repro.extract import (EncoderActivationExtractor, HypothesisExtractor,
                           RnnActivationExtractor)
from repro.extract.base import Extractor, _attr_identity, apply_transform
from repro.hypotheses import CharSetHypothesis, PositionCounterHypothesis
from repro.util.rng import new_rng


class TestTransforms:
    def test_activation_identity(self):
        x = new_rng(0).standard_normal((2, 3, 4))
        assert np.array_equal(apply_transform(x, "activation"), x)

    def test_abs(self):
        x = np.array([[[-1.0, 2.0]]])
        assert np.array_equal(apply_transform(x, "abs"), [[[1.0, 2.0]]])

    def test_gradient_is_temporal_diff(self):
        x = np.array([[[1.0], [3.0], [2.0]]])
        out = apply_transform(x, "gradient")
        assert out[0, :, 0].tolist() == [0.0, 2.0, -1.0]

    def test_unknown_transform(self):
        with pytest.raises(ValueError):
            apply_transform(np.zeros((1, 1, 1)), "banana")


class TestRnnExtractor(object):
    def test_shape_is_symbol_major(self, sql_workload, trained_sql_model):
        ext = RnnActivationExtractor(batch_size=32)
        records = sql_workload.dataset.symbols[:10]
        out = ext.extract(trained_sql_model, records)
        assert out.shape == (10 * sql_workload.dataset.n_symbols,
                             trained_sql_model.n_units)

    def test_unit_selection(self, sql_workload, trained_sql_model):
        ext = RnnActivationExtractor()
        records = sql_workload.dataset.symbols[:4]
        full = ext.extract(trained_sql_model, records)
        sub = ext.extract(trained_sql_model, records, hid_units=[3, 5])
        assert np.array_equal(sub, full[:, [3, 5]])

    def test_batching_invariant(self, sql_workload, trained_sql_model):
        records = sql_workload.dataset.symbols[:12]
        small = RnnActivationExtractor(batch_size=5).extract(
            trained_sql_model, records)
        large = RnnActivationExtractor(batch_size=512).extract(
            trained_sql_model, records)
        assert np.allclose(small, large)

    def test_lone_batch_is_returned_uncopied(self):
        class _Keeper(_Float32Model):
            def hidden_states(self, ids):
                self.last = super().hidden_states(ids)
                return self.last

        model = _Keeper()
        records = np.zeros((4, 5), dtype=np.int64)
        raw = RnnActivationExtractor(batch_size=4).raw_rows(model, records)
        assert np.shares_memory(raw, model.last)  # one batch: no concat
        split = RnnActivationExtractor(batch_size=3).raw_rows(model, records)
        assert not np.shares_memory(split, model.last)
        assert split.tobytes() == raw.tobytes()

    def test_empty_records(self, sql_workload, trained_sql_model):
        ext = RnnActivationExtractor()
        out = ext.extract(trained_sql_model,
                          sql_workload.dataset.symbols[:0])
        assert out.shape == (0, trained_sql_model.n_units)

    def test_row_alignment_with_hidden_states(self, sql_workload,
                                              trained_sql_model):
        """Row r*ns + t must equal hidden state of record r at time t."""
        records = sql_workload.dataset.symbols[:3]
        ext = RnnActivationExtractor()
        flat = ext.extract(trained_sql_model, records)
        states = trained_sql_model.hidden_states(records)
        ns = records.shape[1]
        assert np.allclose(flat[1 * ns + 4], states[1, 4])

    def test_n_units(self, trained_sql_model):
        assert RnnActivationExtractor().n_units(trained_sql_model) == \
            trained_sql_model.n_units


class TestEncoderExtractor:
    @pytest.fixture(scope="class")
    def nmt(self):
        from repro.nmt import generate_nmt_corpus, train_nmt_model
        corpus = generate_nmt_corpus(n_sentences=60, seed=3)
        model = train_nmt_model(corpus, n_units=8, epochs=1, seed=0)
        return corpus, model

    def test_single_layer_shape(self, nmt):
        corpus, model = nmt
        ext = EncoderActivationExtractor(layer=0)
        out = ext.extract(model, corpus.src[:5])
        assert out.shape == (5 * corpus.src.shape[1], model.n_units)

    def test_all_layers_concatenated(self, nmt):
        corpus, model = nmt
        ext = EncoderActivationExtractor(layer=None)
        out = ext.extract(model, corpus.src[:5])
        assert out.shape[1] == model.n_units * model.n_layers
        assert ext.n_units(model) == model.n_units * model.n_layers

    def test_layers_differ(self, nmt):
        corpus, model = nmt
        l0 = EncoderActivationExtractor(layer=0).extract(model, corpus.src[:5])
        l1 = EncoderActivationExtractor(layer=1).extract(model, corpus.src[:5])
        assert not np.allclose(l0, l1)


class _Float32Model:
    """Minimal model carrying float32 parameters and activations."""

    model_id = "f32"
    n_units = 3

    def __init__(self):
        self._w = np.zeros((2, 2), dtype=np.float32)

    def parameters(self):
        return [self._w]

    def hidden_states(self, ids):
        return np.ones((ids.shape[0], ids.shape[1], self.n_units),
                       dtype=np.float32)


class TestEmptyExtractionDtype:
    """Empty extractions must carry the model dtype, so empty and non-empty
    blocks concatenate and cache consistently."""

    def test_rnn_empty_matches_model_dtype(self):
        model = _Float32Model()
        ext = RnnActivationExtractor()
        records = np.zeros((4, 5), dtype=np.int64)
        full = ext.extract(model, records)
        empty = ext.extract(model, records[:0])
        assert empty.shape == (0, model.n_units)
        assert empty.dtype == full.dtype == np.float32
        assert np.concatenate([empty, full]).dtype == np.float32

    def test_raw_rows_empty_matches_model_dtype(self):
        model = _Float32Model()
        ext = RnnActivationExtractor()
        empty = ext.raw_rows(model, np.zeros((0, 5), dtype=np.int64))
        assert empty.shape == (0, model.n_units)
        assert empty.dtype == np.float32

    def test_float64_models_unchanged(self, sql_workload, trained_sql_model):
        ext = RnnActivationExtractor()
        out = ext.extract(trained_sql_model, sql_workload.dataset.symbols[:0])
        assert out.dtype == np.float64


class TestAttrIdentity:
    """Container attributes hash by content — large arrays inside a
    list/tuple/dict must not fall through to the truncating repr."""

    def test_ndarray_in_list_not_aliased(self):
        a = np.arange(10000)
        b = a.copy()
        b[5000] = -1  # differs inside numpy's repr truncation ellipsis
        assert repr([a]) == repr([b])  # the bug this guards against
        assert _attr_identity([a]) != _attr_identity([b])
        assert _attr_identity([a]) == _attr_identity([a.copy()])

    def test_nested_containers(self):
        a = np.arange(5000)
        assert _attr_identity({"sel": (a,)}) != \
            _attr_identity({"sel": (np.arange(5000) + 1,)})
        assert _attr_identity((a, [a])) == _attr_identity((a.copy(), [a]))

    def test_callable_identity_tracks_body_and_closure(self):
        from repro.util.identity import attr_identity

        def make(captured):
            def fn(text):
                return captured
            return fn

        # same factory, same captured value: stable across constructions
        assert attr_identity(make(1)) == attr_identity(make(1))
        # a different closed-over value is a different hypothesis
        assert attr_identity(make(1)) != attr_identity(make(2))

    def test_callable_identity_tracks_global_helpers(self):
        """Editing a module-level helper a function calls must change the
        caller's identity, or stored behaviors outlive the edit."""
        from repro.util.identity import attr_identity

        def build(helper_body):
            ns = {}
            exec("def helper(x):\n"                      # noqa: S102
                 f"    return {helper_body}\n"
                 "def fn(t):\n"
                 "    return helper(t)\n", ns)
            return ns["fn"]

        assert attr_identity(build("x + 1")) == attr_identity(build("x + 1"))
        assert attr_identity(build("x + 1")) != attr_identity(build("x - 1"))

    def test_callable_identity_tracks_kwonly_defaults(self):
        from repro.util.identity import attr_identity

        def make(captured):
            def fn(text, *, ch=captured):
                return ch
            return fn

        assert attr_identity(make("S")) == attr_identity(make("S"))
        assert attr_identity(make("S")) != attr_identity(make("F"))

    def test_nested_code_identity_stable_across_processes(self):
        """Functions containing lambdas/comprehensions hold nested code
        objects whose repr embeds an address; the identity must hash their
        content instead, or cross-process store keys never match."""
        import os
        import subprocess
        import sys
        from pathlib import Path
        # the inline set literal compiles to a frozenset constant whose
        # iteration order follows hash randomization across processes
        script = (
            "from repro.util.identity import attr_identity\n"
            "def f(t):\n"
            "    g = lambda x: x + 1\n"
            "    return [g(c) for c in t if c in {'a', 'b', 'c', 'd'}]\n"
            "print(attr_identity(f))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(Path(__file__).resolve().parents[1] / "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout.strip())
        assert outs[0] == outs[1]

    def test_cache_keys_distinguish_container_selectors(self):
        # a cache-key-only helper: it never extracts
        class _SelectorExtractor(Extractor):  # repro: allow[REP008]
            def __init__(self, selectors):
                self.selectors = selectors

        a = np.arange(10000)
        b = a.copy()
        b[5000] = -1
        assert _SelectorExtractor([a]).cache_key() != \
            _SelectorExtractor([b]).cache_key()
        assert _SelectorExtractor([a]).cache_key() == \
            _SelectorExtractor([a.copy()]).cache_key()


class TestHypothesisExtractor:
    def test_columns_align_with_hypotheses(self, sql_workload):
        hyps = [CharSetHypothesis("space", " "),
                PositionCounterHypothesis()]
        ext = HypothesisExtractor(hyps)
        out = ext.extract(sql_workload.dataset, [0, 1])
        ns = sql_workload.dataset.n_symbols
        assert out.shape == (2 * ns, 2)
        assert np.array_equal(out[:ns, 1], np.arange(ns))

    def test_names(self):
        hyps = [CharSetHypothesis("space", " ")]
        assert HypothesisExtractor(hyps).names == ["space"]

    def test_empty_hypothesis_list(self, sql_workload):
        out = HypothesisExtractor([]).extract(sql_workload.dataset, [0])
        assert out.shape == (sql_workload.dataset.n_symbols, 0)
