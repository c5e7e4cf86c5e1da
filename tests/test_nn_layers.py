"""Tests for feed-forward layers, with numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import (Dense, Embedding, OneHot, Relu, sigmoid,
                             softmax)
from repro.nn.conv import Conv2D
from repro.nn.module import Module, Parameter
from repro.nn.recurrent import LSTM
from repro.util.rng import new_rng


def numerical_grad(f, arr, eps=1e-6):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + eps
        fp = f()
        arr[idx] = old - eps
        fm = f()
        arr[idx] = old
        grad[idx] = (fp - fm) / (2 * eps)
    return grad


class TestDense:
    @pytest.fixture
    def layer(self):
        return Dense(3, 2, new_rng(0))

    def test_forward_shape(self, layer):
        assert layer.forward(np.zeros((5, 3))).shape == (5, 2)

    def test_forward_batched_time_axis(self, layer):
        assert layer.forward(np.zeros((4, 7, 3))).shape == (4, 7, 2)

    def test_weight_gradient_matches_numerical(self, layer):
        x = new_rng(1).standard_normal((4, 3))
        w = new_rng(2).standard_normal((4, 2))

        def loss():
            return float((layer.forward(x) * w).sum())

        loss()
        layer.zero_grad()
        dx = layer.backward(w)
        assert np.allclose(numerical_grad(loss, layer.weight.value),
                           layer.weight.grad, atol=1e-7)
        assert np.allclose(numerical_grad(loss, layer.bias.value),
                           layer.bias.grad, atol=1e-7)
        assert np.allclose(numerical_grad(loss, x), dx, atol=1e-7)

    def test_no_bias_option(self):
        layer = Dense(3, 2, new_rng(0), bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_backward_requires_forward(self, layer):
        with pytest.raises(AssertionError):
            layer.backward(np.zeros((1, 2)))


@pytest.mark.parametrize("build,weight,bias,expected", [
    (lambda: Dense(3, 2, new_rng(0)), "weight", "bias", np.zeros(2)),
    (lambda: Conv2D(2, 4, 3, new_rng(0)), "weight", "bias", np.zeros(4)),
    (lambda: LSTM(3, 5, new_rng(0)), "w_x", "b",
     np.repeat([0.0, 1.0, 0.0, 0.0], 5)),  # forget-gate bias at one
], ids=["dense", "conv2d", "lstm"])
def test_bias_starts_in_its_weight_dtype(build, weight, bias, expected):
    """Biases are allocated in their weight's dtype; for float64 weights
    their bits are those of a dtype-less allocation."""
    layer = build()
    got = getattr(layer, bias).value
    assert got.dtype == getattr(layer, weight).value.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


class TestOneHot:
    def test_encoding(self):
        out = OneHot(4).forward(np.array([[0, 3], [1, 2]]))
        assert out.shape == (2, 2, 4)
        assert out[0, 1, 3] == 1.0
        assert out.sum() == 4.0

    def test_no_parameters(self):
        assert OneHot(4).parameters() == []


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(5, 3, new_rng(0))
        out = emb.forward(np.array([[1, 1], [2, 0]]))
        assert out.shape == (2, 2, 3)
        assert np.array_equal(out[0, 0], out[0, 1])

    def test_gradient_scatter_adds(self):
        emb = Embedding(5, 2, new_rng(0))
        ids = np.array([[1, 1]])
        emb.forward(ids)
        emb.zero_grad()
        emb.backward(np.ones((1, 2, 2)))
        # token 1 appears twice: its gradient row accumulates twice
        assert np.allclose(emb.weight.grad[1], [2.0, 2.0])
        assert np.allclose(emb.weight.grad[0], 0.0)


class TestActivations:
    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        y = sigmoid(x)
        assert np.all((y >= 0) & (y <= 1))
        assert np.allclose(y + sigmoid(-x), 1.0)

    def test_sigmoid_extreme_values_stable(self):
        assert np.isfinite(sigmoid(np.array([-1000.0, 1000.0]))).all()

    def test_softmax_rows_sum_to_one(self):
        x = new_rng(0).standard_normal((4, 6))
        assert np.allclose(softmax(x).sum(axis=-1), 1.0)

    def test_softmax_shift_invariant(self):
        x = new_rng(0).standard_normal((3, 4))
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_relu_gradient_masks(self):
        relu = Relu()
        x = np.array([[-1.0, 2.0]])
        relu.forward(x)
        dx = relu.backward(np.ones_like(x))
        assert np.array_equal(dx, [[0.0, 1.0]])



class TestModule:
    def test_parameters_walk_nested_modules(self):
        class Outer(Module):
            def __init__(self):
                self.inner = Dense(2, 2, new_rng(0))
                self.own = Parameter(np.zeros(3), "own")
                self.stack = [Dense(2, 1, new_rng(1))]

        outer = Outer()
        names = sorted(p.name for p in outer.parameters())
        assert names == ["dense_b", "dense_b", "dense_w", "dense_w", "own"]

    def test_zero_grad_clears_all(self):
        layer = Dense(2, 2, new_rng(0))
        layer.forward(np.ones((1, 2)))
        layer.backward(np.ones((1, 2)))
        layer.zero_grad()
        assert np.all(layer.weight.grad == 0)

    def test_dense_parameter_count(self):
        layer = Dense(3, 2, new_rng(0))
        assert sum(p.value.size for p in layer.parameters()) == 3 * 2 + 2

    def test_shared_parameter_collected_once(self):
        class Shared(Module):
            def __init__(self):
                self.a = Dense(2, 2, new_rng(0))
                self.b = self.a

        assert len(Shared().parameters()) == 2
