"""Tests for the seq2seq model with attention and the conv layers."""

import numpy as np
import pytest

from repro.nn.conv import Conv2D, GlobalAvgPool, MaxPool2D, _im2col
from repro.nn.seq2seq import Seq2SeqModel
from repro.util.rng import new_rng
from tests.test_nn_layers import numerical_grad


@pytest.fixture
def s2s():
    return Seq2SeqModel(src_vocab=7, tgt_vocab=6, n_units=4, rng=new_rng(0),
                        n_layers=2, emb_dim=3, pad_id=0)


@pytest.fixture
def s2s_batch(rng):
    src = rng.integers(1, 7, size=(3, 5))
    src[0, 4] = 0  # padding
    tgt_in = rng.integers(1, 6, size=(3, 4))
    tgt_out = rng.integers(1, 6, size=(3, 4))
    tgt_out[2, 3] = 0  # padding
    return src, tgt_in, tgt_out


class TestSeq2Seq:
    def test_forward_shape(self, s2s, s2s_batch):
        src, tgt_in, _ = s2s_batch
        assert s2s.forward(src, tgt_in).shape == (3, 4, 6)

    def test_loss_finite_and_grads_populated(self, s2s, s2s_batch):
        loss, acc = s2s.loss_and_grads(s2s_batch)
        assert np.isfinite(loss)
        assert 0.0 <= acc <= 1.0
        assert any(np.abs(p.grad).max() > 0 for p in s2s.parameters())

    def test_gradients_match_numerical_spotcheck(self, s2s, s2s_batch):
        from repro.nn.losses import softmax_cross_entropy
        src, tgt_in, tgt_out = s2s_batch

        def loss():
            logits = s2s.forward(src, tgt_in)
            mask = tgt_out != 0
            return softmax_cross_entropy(logits[mask], tgt_out[mask])[0]

        s2s.zero_grad()
        s2s.loss_and_grads((src, tgt_in, tgt_out))
        rng = new_rng(9)
        for param in (s2s.parameters()[0], s2s.parameters()[-2]):
            flat = param.value.reshape(-1)
            gflat = param.grad.reshape(-1)
            for i in rng.choice(flat.size, size=4, replace=False):
                old = flat[i]
                eps = 1e-6
                flat[i] = old + eps
                fp = loss()
                flat[i] = old - eps
                fm = loss()
                flat[i] = old
                assert (fp - fm) / (2 * eps) == pytest.approx(
                    gflat[i], abs=1e-6)

    def test_padding_masked_from_attention(self, s2s, s2s_batch):
        src, tgt_in, _ = s2s_batch
        s2s.forward(src, tgt_in)
        alpha = s2s._cache["alpha"]
        # attention over the padded source position must be ~0
        assert np.all(alpha[0, :, 4] < 1e-6)

    def test_encoder_states_per_layer(self, s2s, s2s_batch):
        src, _, _ = s2s_batch
        states = s2s.encoder_states(src)
        assert len(states) == 2
        assert states[0].shape == (3, 5, 4)

    def test_learns_copy_task(self):
        """Seq2seq must learn to copy a short sequence (sanity of training)."""
        rng = new_rng(0)
        vocab = 6
        n = 300
        src = rng.integers(3, vocab, size=(n, 3))
        tgt_in = np.concatenate(
            [np.full((n, 1), 1), src[:, :-1]], axis=1)  # BOS + shifted
        tgt_out = src.copy()
        model = Seq2SeqModel(vocab, vocab, n_units=16, rng=new_rng(1),
                             n_layers=1, emb_dim=8, pad_id=0)
        from repro.nn.optim import Adam
        opt = Adam(model.parameters(), lr=5e-3)
        for _ in range(30):
            order = rng.permutation(n)
            for start in range(0, n, 64):
                idx = order[start:start + 64]
                opt.zero_grad()
                model.loss_and_grads((src[idx], tgt_in[idx], tgt_out[idx]))
                opt.step()
        _, acc = model.evaluate((src, tgt_in, tgt_out))
        assert acc > 0.9


class TestConv:
    def test_im2col_shape(self):
        x = np.arange(2 * 5 * 5 * 3, dtype=float).reshape(2, 5, 5, 3)
        cols = _im2col(x, 3, 3)
        assert cols.shape == (2, 3, 3, 27)

    def test_im2col_values(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        cols = _im2col(x, 2, 2)
        assert cols[0, 0, 0].tolist() == [0, 1, 4, 5]
        assert cols[0, 2, 2].tolist() == [10, 11, 14, 15]

    def test_conv_forward_shape(self):
        conv = Conv2D(2, 4, 3, new_rng(0))
        assert conv.forward(np.zeros((2, 8, 8, 2))).shape == (2, 6, 6, 4)

    def test_conv_gradients(self):
        conv = Conv2D(1, 2, 3, new_rng(0))
        x = new_rng(1).standard_normal((1, 5, 5, 1))
        w = new_rng(2).standard_normal((1, 3, 3, 2))

        def loss():
            return float((conv.forward(x) * w).sum())

        loss()
        conv.zero_grad()
        dx = conv.backward(w)
        assert np.allclose(numerical_grad(loss, conv.weight.value),
                           conv.weight.grad, atol=1e-7)
        assert np.allclose(numerical_grad(loss, x), dx, atol=1e-7)

    def test_maxpool_forward(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = pool.forward(x)
        assert out.shape == (1, 2, 2, 1)
        assert out[0, :, :, 0].tolist() == [[5, 7], [13, 15]]

    def test_maxpool_gradient_routes_to_argmax(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        pool.forward(x)
        dx = pool.backward(np.ones((1, 2, 2, 1)))
        assert dx[0, 1, 1, 0] == 1.0  # value 5 was the max of its window
        assert dx[0, 0, 0, 0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_gradient_keeps_the_incoming_dtype(self, dtype):
        pool = MaxPool2D(2)
        x = new_rng(0).standard_normal((2, 4, 4, 3)).astype(dtype)
        out = pool.forward(x)
        dy = new_rng(1).standard_normal(out.shape).astype(dtype)
        dx = pool.backward(dy)
        assert dx.dtype == dtype
        # each window hands its gradient, unchanged, to its max alone
        routed = dx != 0
        assert routed.sum() == dy.size
        assert np.array_equal(np.sort(x[routed]), np.sort(out.ravel()))
        assert np.array_equal(np.sort(dx[routed]), np.sort(dy.ravel()))

    def test_global_avg_pool(self):
        gap = GlobalAvgPool()
        x = np.ones((2, 3, 3, 4))
        out = gap.forward(x)
        assert out.shape == (2, 4)
        assert np.allclose(out, 1.0)
        dx = gap.backward(np.ones((2, 4)))
        assert np.allclose(dx, 1.0 / 9)
