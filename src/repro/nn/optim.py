"""Gradient-descent optimizers: SGD (momentum) and Adam.

Adam uses the Keras default hyper-parameters the paper mentions
(lr=1e-3, beta1=0.9, beta2=0.999).  Both support optional L1/L2 penalties on
every parameter.  :class:`Adam` is also the step of the logistic-regression
affinity probes (``repro.measures.logreg``), which run it unclipped and add
their L1/L2 terms to the weight gradient only, leaving the bias unpenalized.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base class: applies parameter updates from accumulated gradients."""

    def __init__(self, params: list[Parameter],
                 l1: float = 0.0, l2: float = 0.0):
        self.params = params
        self.l1 = l1
        self.l2 = l2

    def _regularized_grad(self, param: Parameter) -> np.ndarray:
        grad = param.grad
        if self.l2:
            grad = grad + self.l2 * param.value
        if self.l1:
            grad = grad + self.l1 * np.sign(param.value)
        return grad

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: list[Parameter], lr: float = 0.1,
                 momentum: float = 0.0, l1: float = 0.0, l2: float = 0.0):
        super().__init__(params, l1=l1, l2=l2)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        for param, vel in zip(self.params, self._velocity):
            grad = self._regularized_grad(param)
            if self.momentum:
                vel *= self.momentum
                vel -= self.lr * grad
                param.value += vel
            else:
                param.value -= self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction (Keras defaults)."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-7,
                 l1: float = 0.0, l2: float = 0.0,
                 clip_norm: float | None = 5.0):
        super().__init__(params, l1=l1, l2=l2)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        if self.clip_norm is not None:
            total = np.sqrt(sum(float((p.grad**2).sum()) for p in self.params))
            scale = min(1.0, self.clip_norm / (total + 1e-12))
        else:
            scale = 1.0
        for param, m, v in zip(self.params, self._m, self._v):
            grad = self._regularized_grad(param) * scale
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
