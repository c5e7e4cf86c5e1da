"""Forward-sweep kernel layer: bit-identity of the gather projections, the
branch-free sigmoid and the inference-mode LSTM sweep; BPTT preservation;
the vectorized rank kernel; and block sweeps run beside the labelling.

Everything here asserts *bitwise* equality (``tobytes``), not closeness:
the kernel layer's contract is that fast paths are indistinguishable from
the seed implementations they replace.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import (InspectConfig, ThreadPoolScheduler, UnitBehaviorCache,
                   inspect)
from repro.hypotheses import CharSetHypothesis, KeywordHypothesis
from repro.measures import CorrelationScore, SpearmanCorrelationScore
from repro.measures.correlation import _CorrState
from repro.nn import kernels
from repro.nn.layers import OneHot
from repro.nn.models import CharLSTMModel
from repro.nn.recurrent import LSTM
from repro.nn.seq2seq import Seq2SeqModel
from repro.util.rng import new_rng
from repro.util.testing import CountingForwardModel


# ----------------------------------------------------------------------
# seed-era reference implementations (inline ports of the pre-kernel code)
# ----------------------------------------------------------------------
def _seed_sigmoid(x):
    """The historical masked two-branch stable sigmoid."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def _seed_lstm_forward(lstm, x, h0=None, c0=None):
    """The pre-kernel training forward pass (dense input, full history)."""
    batch, time, _ = x.shape
    h_dim = lstm.n_units
    h_prev = np.zeros((batch, h_dim)) if h0 is None else h0
    c_prev = np.zeros((batch, h_dim)) if c0 is None else c0
    hs = np.empty((batch, time, h_dim))
    cs = np.empty((batch, time, h_dim))
    gates = np.empty((batch, time, 4 * h_dim))
    x_proj = x.reshape(-1, lstm.n_in) @ lstm.w_x.value
    x_proj = x_proj.reshape(batch, time, 4 * h_dim) + lstm.b.value
    for t in range(time):
        z = x_proj[:, t] + h_prev @ lstm.w_h.value
        i = _seed_sigmoid(z[:, :h_dim])
        f = _seed_sigmoid(z[:, h_dim:2 * h_dim])
        o = _seed_sigmoid(z[:, 2 * h_dim:3 * h_dim])
        g = np.tanh(z[:, 3 * h_dim:])
        c_prev = f * c_prev + i * g
        h_prev = o * np.tanh(c_prev)
        hs[:, t] = h_prev
        cs[:, t] = c_prev
        gates[:, t, :h_dim] = i
        gates[:, t, h_dim:2 * h_dim] = f
        gates[:, t, 2 * h_dim:3 * h_dim] = o
        gates[:, t, 3 * h_dim:] = g
    return hs, cs, gates


def _seed_lstm_backward(lstm, x, hs, cs, gates, dh_out):
    """The pre-kernel BPTT loop; returns (dw_x, dw_h, db, dx)."""
    batch, time, _ = x.shape
    h_dim = lstm.n_units
    dx = np.zeros_like(x)
    dh_next = np.zeros((batch, h_dim))
    dc_next = np.zeros((batch, h_dim))
    dw_x = np.zeros_like(lstm.w_x.value)
    dw_h = np.zeros_like(lstm.w_h.value)
    db = np.zeros_like(lstm.b.value)
    h0 = np.zeros((batch, h_dim))
    c0 = np.zeros((batch, h_dim))
    for t in range(time - 1, -1, -1):
        i = gates[:, t, :h_dim]
        f = gates[:, t, h_dim:2 * h_dim]
        o = gates[:, t, 2 * h_dim:3 * h_dim]
        g = gates[:, t, 3 * h_dim:]
        c_t = cs[:, t]
        c_prev = cs[:, t - 1] if t > 0 else c0
        h_prev = hs[:, t - 1] if t > 0 else h0
        dh = dh_out[:, t] + dh_next
        tanh_c = np.tanh(c_t)
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            do * o * (1.0 - o),
            dg * (1.0 - g**2),
        ], axis=1)
        dw_x += x[:, t].T @ dz
        dw_h += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t] = dz @ lstm.w_x.value.T
        dh_next = dz @ lstm.w_h.value.T
        dc_next = dc * f
    return dw_x, dw_h, db, dx


def _seed_rank(x):
    """The historical per-column np.unique rank transform."""
    ranks = np.empty(x.shape, dtype=np.float64)
    for j in range(x.shape[1]):
        _, inv, counts = np.unique(x[:, j], return_inverse=True,
                                   return_counts=True)
        mean_pos = np.cumsum(counts) - (counts + 1) / 2.0
        ranks[:, j] = mean_pos[inv]
    return ranks


# ----------------------------------------------------------------------
# gather projection
# ----------------------------------------------------------------------
class TestGatherProjection:

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_onehot_matmul(self, dtype):
        rng = new_rng(0)
        vocab, width = 23, 36
        w = rng.standard_normal((vocab, width)).astype(dtype)
        b = rng.standard_normal(width).astype(dtype)
        ids = rng.integers(0, vocab, size=(17, 9))
        onehot = OneHot(vocab, dtype=dtype).forward(ids)
        dense = (onehot.reshape(-1, vocab) @ w).reshape(17, 9, width) + b
        gathered = kernels.gather_projection(ids, w, b)
        assert gathered.dtype == np.dtype(dtype)
        assert gathered.tobytes() == dense.tobytes()

    def test_without_bias_is_plain_row_lookup(self):
        rng = new_rng(1)
        w = rng.standard_normal((11, 8))
        ids = rng.integers(0, 11, size=(5, 4))
        onehot = OneHot(11).forward(ids)
        dense = (onehot.reshape(-1, 11) @ w).reshape(5, 4, 8)
        assert kernels.gather_projection(ids, w).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_batch(self, dtype):
        w = new_rng(2).standard_normal((7, 12)).astype(dtype)
        ids = np.empty((0, 6), dtype=np.int64)
        out = kernels.gather_projection(ids, w, np.zeros(12, dtype=dtype))
        assert out.shape == (0, 6, 12)
        assert out.dtype == np.dtype(dtype)


# ----------------------------------------------------------------------
# sigmoid kernels
# ----------------------------------------------------------------------
class TestSigmoidKernels:

    def _inputs(self):
        rng = new_rng(3)
        x = rng.standard_normal((64, 96)) * 3
        # extremes: signed zeros, overflow/underflow edges, denormals, inf
        x.ravel()[:10] = [0.0, -0.0, 1000.0, -1000.0, 710.0, -745.0,
                          5e-324, -5e-324, np.inf, -np.inf]
        return x

    def test_branchfree_matches_masked_reference(self):
        x = self._inputs()
        assert kernels.sigmoid(x).tobytes() == _seed_sigmoid(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_into_matches_and_allows_aliasing(self, dtype):
        # the sweep's shape: one (3, batch, h) i|f|o block
        x = self._inputs().astype(dtype).reshape(3, 32, 64)
        ref = _seed_sigmoid(x)
        out = np.empty_like(x)
        kernels.sigmoid_into(x, out)
        assert out.tobytes() == ref.tobytes()
        aliased = x.copy()
        kernels.sigmoid_into(aliased, aliased)  # out may alias x
        assert aliased.tobytes() == ref.tobytes()

    def test_float32(self):
        x = self._inputs().astype(np.float32)
        got = kernels.sigmoid(x)
        assert got.dtype == np.float32
        assert got.tobytes() == _seed_sigmoid(x).tobytes()


# ----------------------------------------------------------------------
# inference-mode sweeps
# ----------------------------------------------------------------------
class TestInferenceSweep:

    def test_char_lstm_hidden_states_bit_identical(self, sql_workload,
                                                   trained_sql_model):
        ids = sql_workload.dataset.symbols[:40]
        m = trained_sql_model
        seed_hs, _, _ = _seed_lstm_forward(m.lstm, m.onehot.forward(ids))
        assert m.hidden_states(ids).tobytes() == seed_hs.tobytes()

    def test_training_and_inference_paths_agree(self):
        m = CharLSTMModel(19, 12, new_rng(4))
        ids = new_rng(5).integers(0, 19, size=(31, 14))
        hs_train = m.lstm.forward(m.onehot.forward(ids))  # training mode
        hs_inf = m.hidden_states(ids)
        assert hs_train.tobytes() == hs_inf.tobytes()

    def test_seq2seq_encoder_states_bit_identical(self):
        s2s = Seq2SeqModel(29, 31, 10, new_rng(6), n_layers=2)
        src = new_rng(7).integers(1, 29, size=(9, 8))
        s2s.encoder.forward(s2s.src_embed.forward(src))  # training mode
        ref = [layer.copy() for layer in s2s.encoder.layer_states()]
        got = s2s.encoder_states(src)
        assert len(got) == len(ref)
        for a, b in zip(ref, got):
            assert a.tobytes() == b.tobytes()

    def test_float32_model_stays_float32(self):
        m = CharLSTMModel(13, 8, new_rng(8))
        for p in m.parameters():
            p.value = p.value.astype(np.float32)
        m.onehot.dtype = np.dtype(np.float32)
        ids = new_rng(9).integers(0, 13, size=(6, 5))
        hs_train = m.lstm.forward(m.onehot.forward(ids))
        hs_inf = m.hidden_states(ids)
        assert hs_train.dtype == np.float32
        assert hs_inf.dtype == np.float32
        assert hs_train.tobytes() == hs_inf.tobytes()

    def test_empty_batch(self):
        m = CharLSTMModel(13, 8, new_rng(10))
        ids = np.empty((0, 7), dtype=np.int64)
        hs = m.hidden_states(ids)
        assert hs.shape == (0, 7, 8)
        assert hs.dtype == np.float64

    def test_integer_ids_require_inference_mode(self):
        lstm = LSTM(5, 4, new_rng(11))
        ids = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="training=False"):
            lstm.forward(ids)  # BPTT needs the dense input

    def test_backward_rejects_inference_cache(self):
        lstm = LSTM(5, 4, new_rng(12))
        ids = new_rng(13).integers(0, 5, size=(3, 6))
        hs = lstm.forward(ids, training=False)
        with pytest.raises(AssertionError, match="training"):
            lstm.backward(np.zeros_like(hs))

    def test_last_hidden_after_inference(self):
        lstm = LSTM(5, 4, new_rng(14))
        ids = new_rng(15).integers(0, 5, size=(3, 6))
        hs = lstm.forward(ids, training=False)
        assert lstm.last_hidden().tobytes() == hs[:, -1].copy().tobytes()

    @pytest.mark.parametrize("n_units", [1, 3, 10, 33, 128])
    @pytest.mark.parametrize("batch", [1, 7, 512])
    @pytest.mark.parametrize("initial_state", [False, True])
    def test_hidden_states_match_seed_forward(self, n_units, batch,
                                              initial_state):
        vocab, time = 11, 4
        m = CharLSTMModel(vocab, n_units, new_rng(30 + n_units))
        rng = new_rng(batch)
        ids = rng.integers(0, vocab, size=(batch, time))
        h0 = c0 = None
        if initial_state:
            h0 = rng.standard_normal((batch, n_units))
            c0 = rng.standard_normal((batch, n_units))
        seed_hs, _, _ = _seed_lstm_forward(m.lstm, m.onehot.forward(ids),
                                           h0, c0)
        if initial_state:
            got = m.lstm.forward(ids, h0, c0, training=False)
        else:
            got = m.hidden_states(ids)
        assert got.tobytes() == seed_hs.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_units", [1, 5, 32])
    @pytest.mark.parametrize("batch", [1, 7, 512])
    @pytest.mark.parametrize("initial_state", [False, True])
    def test_lstm_sweep_over_gather_projection_matches_forward(
            self, dtype, n_units, batch, initial_state):
        """The composition the benchmark replay times: the (batch, time,
        4h) projection swept by ``lstm_sweep`` equals the id path, which
        never builds that projection."""
        vocab, time = 19, 6
        lstm = LSTM(vocab, n_units, new_rng(40 + n_units))
        for p in lstm.parameters():
            p.value = p.value.astype(dtype)
        rng = new_rng(batch)
        ids = rng.integers(0, vocab, size=(batch, time))
        h0 = c0 = None
        if initial_state:
            h0 = rng.standard_normal((batch, n_units)).astype(dtype)
            c0 = rng.standard_normal((batch, n_units)).astype(dtype)
        dense = kernels.lstm_sweep(
            kernels.gather_projection(ids, lstm.w_x.value, lstm.b.value),
            lstm.w_h.value, n_units, h0, c0)
        got = lstm.forward(ids, h0, c0, training=False)
        assert got.dtype == np.dtype(dtype)
        assert got.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("bad", [19, 40, -20, -100])
    def test_out_of_range_ids_raise_as_table_indexing_does(self, bad):
        lstm = LSTM(19, 4, new_rng(25))
        ids = new_rng(26).integers(0, 19, size=(3, 5))
        ids[1, 2] = bad
        with pytest.raises(IndexError):
            lstm.w_x.value[ids]
        with pytest.raises(IndexError):
            lstm.forward(ids, training=False)

    def test_negative_ids_count_from_the_end(self):
        lstm = LSTM(19, 4, new_rng(27))
        ids = new_rng(28).integers(0, 19, size=(9, 5))
        wrapped = np.where(ids % 2 == 0, ids - 19, ids)   # -19 .. -1 too
        assert wrapped.min() < 0
        assert (lstm.forward(wrapped, training=False).tobytes()
                == lstm.forward(ids, training=False).tobytes())

    def test_id_sweep_builds_no_input_projection(self):
        batch, time, h = 512, 30, 32
        m = CharLSTMModel(60, h, new_rng(29))
        ids = new_rng(30).integers(0, 60, size=(batch, time))
        m.hidden_states(ids[:1])   # first-call allocations out of the way
        tracemalloc.start()
        try:
            m.hidden_states(ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < batch * time * 4 * h * 8 // 2

    def test_inference_cache_holds_no_sweep(self):
        lstm = LSTM(5, 4, new_rng(23))
        ids = new_rng(24).integers(0, 5, size=(3, 6))
        hs = lstm.forward(ids, training=False)
        arrays = [v for v in lstm._cache.values()
                  if isinstance(v, np.ndarray)]
        assert arrays
        for arr in arrays:
            assert arr.shape != hs.shape
            assert arr.size <= hs.shape[0] * hs.shape[2]
            assert not np.shares_memory(arr, hs)


# ----------------------------------------------------------------------
# BPTT preservation
# ----------------------------------------------------------------------
class TestBPTTUnchanged:

    def test_gradients_match_seed_reference(self):
        lstm = LSTM(9, 7, new_rng(16))
        rng = new_rng(17)
        ids = rng.integers(0, 9, size=(11, 8))
        x = OneHot(9).forward(ids)
        dh_out = rng.standard_normal((11, 8, 7))

        hs_ref, cs_ref, gates_ref = _seed_lstm_forward(lstm, x)
        ref = _seed_lstm_backward(lstm, x, hs_ref, cs_ref, gates_ref, dh_out)

        lstm.zero_grad()
        hs = lstm.forward(x)  # training mode
        assert hs.tobytes() == hs_ref.tobytes()
        dx = lstm.backward(dh_out)
        got = (lstm.w_x.grad, lstm.w_h.grad, lstm.b.grad, dx)
        for g, r in zip(got, ref):
            assert g.tobytes() == r.tobytes()

    def test_model_training_still_learns(self):
        m = CharLSTMModel(11, 8, new_rng(18))
        rng = new_rng(19)
        ids = rng.integers(0, 11, size=(64, 6))
        targets = rng.integers(0, 11, size=64)
        first, _ = m.loss_and_grads(ids, targets)
        from repro.nn import SGD
        opt = SGD(m.parameters(), lr=0.5)
        for _ in range(30):
            m.zero_grad()
            loss, _ = m.loss_and_grads(ids, targets)
            opt.step()
        assert loss < first


# ----------------------------------------------------------------------
# rank vectorization
# ----------------------------------------------------------------------
class TestRankVectorized:

    @pytest.mark.parametrize("case", [
        "tie_heavy", "binary", "all_tied", "no_ties", "single_row",
        "single_col", "empty",
    ])
    def test_bit_identical_to_seed_rank(self, case):
        rng = new_rng(20)
        x = {
            "tie_heavy": rng.integers(0, 4, size=(257, 9)).astype(float),
            "binary": rng.integers(0, 2, size=(600, 5)).astype(float),
            "all_tied": np.zeros((41, 3)),
            "no_ties": rng.standard_normal((128, 6)),
            "single_row": rng.standard_normal((1, 4)),
            "single_col": rng.integers(-2, 3, size=(330, 1)).astype(float),
            "empty": np.empty((0, 3)),
        }[case]
        assert _CorrState._rank(x).tobytes() == _seed_rank(x).tobytes()

    def test_spearman_scores_unchanged(self, synthetic_behaviors):
        units, hyps = synthetic_behaviors
        state = SpearmanCorrelationScore().new_state(units.shape[1],
                                                     hyps.shape[1])
        state.fold(state.block_stats(units, hyps), units.shape[0])
        ref = _CorrState(units.shape[1], hyps.shape[1], rank_transform=False)
        ref.fold(ref.block_stats(_seed_rank(units), _seed_rank(hyps)),
                 units.shape[0])
        assert state.unit_scores().tobytes() == ref.unit_scores().tobytes()


# ----------------------------------------------------------------------
# block sweeps beside the labelling
# ----------------------------------------------------------------------
def _frame_tuples(frame):
    return list(zip(frame["model_id"], frame["group_id"], frame["score_id"],
                    frame["hyp_id"], frame["h_unit_id"], frame["val"],
                    frame["kind"], frame["n_rows_seen"], frame["converged"]))


class TestBlockSweepExtraction:

    HYPS = [KeywordHypothesis("SELECT"), KeywordHypothesis("FROM"),
            CharSetHypothesis("space", " ")]

    def _run(self, model, dataset, scheduler, max_records=96):
        """One inspection run with its own cache and counting model.

        ``early_stop=False`` so every block is consumed — the regime in
        which the block-sweep contract promises *exact* counter equality.
        """
        counting = CountingForwardModel(model)
        cache = UnitBehaviorCache()
        cfg = InspectConfig(mode="streaming", seed=3, block_size=24,
                            scheduler=scheduler, unit_cache=cache,
                            early_stop=False, max_records=max_records)
        frame = inspect([counting], dataset, [CorrelationScore()],
                        self.HYPS, config=cfg)
        return frame, counting.forward_calls, cache.stats()

    def test_threads_sweeps_bit_identical_and_exact_counters(
            self, sql_workload, trained_sql_model):
        dataset = sql_workload.dataset
        serial = self._run(trained_sql_model, dataset, "serial")
        with ThreadPoolScheduler(max_workers=2) as sched:
            threaded = self._run(trained_sql_model, dataset, sched)
        # frames bit-identical to the serial reference
        assert _frame_tuples(serial[0]) == _frame_tuples(threaded[0])
        # counters exact: the pool thread's sweep *is* the block's extraction
        assert serial[1] == threaded[1]
        assert serial[2] == threaded[2]

    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    def test_all_schedulers_match_serial_frames(self, sql_workload,
                                                trained_sql_model,
                                                scheduler):
        dataset = sql_workload.dataset
        baseline = self._run(trained_sql_model, dataset, "serial",
                             max_records=60)
        other = self._run(trained_sql_model, dataset, scheduler,
                          max_records=60)
        assert _frame_tuples(baseline[0]) == _frame_tuples(other[0])

    def test_stream_final_frame_matches_run(self, sql_workload,
                                            trained_sql_model):
        from repro import Session
        dataset = sql_workload.dataset
        sched = ThreadPoolScheduler(max_workers=2)
        try:
            with Session(scheduler=sched) as session:
                q = (session.inspect(trained_sql_model, dataset)
                     .using(CorrelationScore())
                     .hypotheses(self.HYPS)
                     .with_config(mode="streaming", seed=3, block_size=24,
                                  early_stop=False, max_records=96))
                final = None
                for frame in q.stream():
                    final = frame
                ran = q.run()
            assert final is not None
            assert _frame_tuples(final) == _frame_tuples(ran)
        finally:
            sched.shutdown()

    def test_early_stop_run_still_bit_identical(self, sql_workload,
                                                trained_sql_model):
        """Tasks converging mid-run shrink the pending set between blocks;
        the produced frames must still match serial execution exactly."""
        dataset = sql_workload.dataset
        frames = {}
        for scheduler in ("serial", "threads"):
            cfg = InspectConfig(mode="streaming", seed=3, block_size=16,
                                scheduler=scheduler, early_stop=True,
                                error_threshold=0.2)
            frames[scheduler] = inspect(
                [trained_sql_model], dataset, [CorrelationScore()],
                self.HYPS, config=cfg)
        assert _frame_tuples(frames["serial"]) == _frame_tuples(
            frames["threads"])
