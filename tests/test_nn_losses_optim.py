"""Tests for losses and optimizers."""

import numpy as np
import pytest

from repro.nn.losses import (accuracy, mse_loss, softmax_cross_entropy,
                             specialization_loss)
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam
from repro.util.rng import new_rng
from tests.test_nn_layers import numerical_grad


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_loss_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_uniform_loss_is_log_k(self):
        logits = np.zeros((3, 4))
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1, 2]))
        assert loss == pytest.approx(np.log(4))

    def test_gradient_matches_numerical(self):
        logits = new_rng(0).standard_normal((3, 4))
        targets = np.array([0, 2, 3])

        def loss():
            return softmax_cross_entropy(logits, targets)[0]

        _, grad = softmax_cross_entropy(logits, targets)
        assert np.allclose(numerical_grad(loss, logits), grad, atol=1e-7)

    def test_gradient_rows_sum_to_zero(self):
        logits = new_rng(0).standard_normal((3, 4))
        _, grad = softmax_cross_entropy(logits, np.array([1, 1, 0]))
        assert np.allclose(grad.sum(axis=-1), 0.0, atol=1e-12)

    def test_sequence_targets(self):
        logits = new_rng(0).standard_normal((2, 5, 3))
        targets = new_rng(1).integers(0, 3, size=(2, 5))
        loss, grad = softmax_cross_entropy(logits, targets)
        assert grad.shape == logits.shape
        assert loss > 0


class TestMseAndSpecialization:
    def test_mse_zero_at_target(self):
        x = np.ones((2, 3))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_mse_gradient(self):
        pred = new_rng(0).standard_normal((2, 3))
        target = new_rng(1).standard_normal((2, 3))

        def loss():
            return mse_loss(pred, target)[0]

        _, grad = mse_loss(pred, target)
        assert np.allclose(numerical_grad(loss, pred), grad, atol=1e-7)

    def test_specialization_only_touches_selected_units(self):
        hidden = new_rng(0).standard_normal((2, 4, 6))
        target = new_rng(1).standard_normal((2, 4))
        loss, grad = specialization_loss(hidden, np.array([1, 3]), target)
        assert loss > 0
        untouched = [0, 2, 4, 5]
        assert np.all(grad[:, :, untouched] == 0.0)
        assert np.abs(grad[:, :, [1, 3]]).max() > 0

    def test_specialization_gradient_numerical(self):
        hidden = new_rng(0).standard_normal((2, 3, 4))
        target = new_rng(1).standard_normal((2, 3))
        units = np.array([0, 2])

        def loss():
            return specialization_loss(hidden, units, target)[0]

        _, grad = specialization_loss(hidden, units, target)
        assert np.allclose(numerical_grad(loss, hidden), grad, atol=1e-7)

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


def _quadratic_problem():
    """min ||w - target||^2 -- every optimizer should solve it."""
    target = np.array([1.0, -2.0, 3.0])
    param = Parameter(np.zeros(3), "w")

    def step_grad():
        param.grad = 2.0 * (param.value - target)

    return param, target, step_grad


class TestOptimizers:
    def test_sgd_converges(self):
        param, target, grad = _quadratic_problem()
        opt = SGD([param], lr=0.1)
        for _ in range(200):
            grad()
            opt.step()
        assert np.allclose(param.value, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        param, target, grad = _quadratic_problem()
        opt = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            grad()
            opt.step()
        assert np.allclose(param.value, target, atol=1e-3)

    def test_adam_converges(self):
        param, target, grad = _quadratic_problem()
        opt = Adam([param], lr=0.1)
        for _ in range(400):
            grad()
            opt.step()
        assert np.allclose(param.value, target, atol=1e-2)

    def test_l2_shrinks_solution(self):
        param1, _, grad1 = _quadratic_problem()
        param2, _, grad2 = _quadratic_problem()
        plain = SGD([param1], lr=0.1)
        ridge = SGD([param2], lr=0.1, l2=1.0)
        for _ in range(300):
            grad1(); plain.step()
            grad2(); ridge.step()
        assert np.linalg.norm(param2.value) < np.linalg.norm(param1.value)

    def test_l1_produces_sparser_solution(self):
        rng = new_rng(0)
        x = rng.standard_normal((200, 10))
        true_w = np.zeros(10)
        true_w[:2] = [3.0, -2.0]
        y = x @ true_w
        p_l1 = Parameter(np.zeros(10), "w")
        opt = Adam([p_l1], lr=0.05, l1=0.05)
        for _ in range(300):
            p_l1.zero_grad()
            p_l1.grad = 2 * x.T @ (x @ p_l1.value - y) / len(y)
            opt.step()
        irrelevant = np.abs(p_l1.value[2:])
        relevant = np.abs(p_l1.value[:2])
        assert relevant.min() > 10 * irrelevant.max()

    def test_adam_matches_bias_corrected_reference(self):
        """Five steps of the update the probes train with (no clipping)."""
        rng = new_rng(3)
        param = Parameter(rng.standard_normal(4), "w")
        value, m, v = param.value.copy(), np.zeros(4), np.zeros(4)
        opt = Adam([param], lr=0.05, clip_norm=None)
        for t in range(1, 6):
            grad = rng.standard_normal(4)
            param.grad = grad
            opt.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad**2
            value -= 0.05 * (m / (1 - 0.9**t)) / (
                np.sqrt(v / (1 - 0.999**t)) + 1e-7)
            np.testing.assert_allclose(param.value, value, rtol=1e-12)

    def test_adam_clip_norm_bounds_update(self):
        param = Parameter(np.zeros(3), "w")
        opt = Adam([param], lr=0.1, clip_norm=1.0)
        param.grad = np.array([1e6, 1e6, 1e6])
        opt.step()
        assert np.isfinite(param.value).all()

    def test_zero_grad(self):
        param, _, grad = _quadratic_problem()
        opt = SGD([param], lr=0.1)
        grad()
        opt.zero_grad()
        assert np.all(param.grad == 0.0)
