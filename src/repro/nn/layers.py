"""Feed-forward layers: Dense, OneHot, Embedding and activations.

Every layer caches what its backward pass needs during ``forward`` and
returns input gradients from ``backward``; parameter gradients accumulate in
place (call :meth:`Module.zero_grad` between steps).
"""

from __future__ import annotations

import numpy as np

from repro.nn import kernels
from repro.nn.module import Module, Parameter, glorot


class Dense(Module):
    """Affine layer ``y = x @ W + b`` over the last axis."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 bias: bool = True):
        self.n_in = n_in
        self.n_out = n_out
        self.weight = Parameter(glorot(rng, n_in, n_out), "dense_w")
        self.bias = (Parameter(np.zeros(n_out, dtype=self.weight.value.dtype),
                               "dense_b") if bias else None)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.weight.value
        if self.bias is not None:
            y = y + self.bias.value
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._x is not None, "forward must run before backward"
        x = self._x
        flat_x = x.reshape(-1, self.n_in)
        flat_dy = dy.reshape(-1, self.n_out)
        self.weight.grad += flat_x.T @ flat_dy
        if self.bias is not None:
            self.bias.grad += flat_dy.sum(axis=0)
        return (flat_dy @ self.weight.value.T).reshape(x.shape)


class OneHot(Module):
    """Encodes integer symbol ids as one-hot vectors (no parameters).

    ``dtype`` should follow the parameters of the layer the encoding feeds
    (a float32 model must project float32 activations); it defaults to
    float64, the parameter default.  The dense encoding only exists for the
    *training* path, whose BPTT needs the materialized input for its weight
    gradient -- inference sweeps use the bit-identical row gather in
    :mod:`repro.nn.kernels` instead and never build this tensor.
    """

    def __init__(self, n_symbols: int, dtype: np.dtype | str | None = None):
        self.n_symbols = n_symbols
        self.dtype = np.dtype(dtype) if dtype is not None \
            else np.dtype(np.float64)

    def forward(self, ids: np.ndarray) -> np.ndarray:
        # the training path's dense encoding; inference sweeps go through
        # kernels.gather_projection and never materialize this
        out = np.zeros(ids.shape + (self.n_symbols,), dtype=self.dtype)
        np.put_along_axis(out, ids[..., None], 1.0, axis=-1)  # repro: allow[REP009]
        return out

    def backward(self, dy: np.ndarray) -> None:
        return None  # integer inputs carry no gradient


class Embedding(Module):
    """Dense lookup table for integer symbol ids."""

    def __init__(self, n_symbols: int, dim: int, rng: np.random.Generator):
        self.n_symbols = n_symbols
        self.dim = dim
        self.weight = Parameter(
            rng.standard_normal((n_symbols, dim)) * 0.1, "embedding")
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = ids
        return kernels.gather_projection(ids, self.weight.value)

    def backward(self, dy: np.ndarray) -> None:
        assert self._ids is not None
        flat_ids = self._ids.reshape(-1)
        flat_dy = dy.reshape(-1, self.dim)
        np.add.at(self.weight.grad, flat_ids, flat_dy)
        return None


# ----------------------------------------------------------------------
# stateless activations
# ----------------------------------------------------------------------
#: the numerically stable sigmoid, in the branch-free form of
#: :mod:`repro.nn.kernels` (bit-identical to the historical masked
#: two-branch implementation; see the kernels module docstring)
sigmoid = kernels.sigmoid


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class Relu(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return dy * self._mask
