"""Parameter containers and the Module base class.

Layers own :class:`Parameter` objects (value + accumulated gradient) and
implement explicit ``forward``/``backward`` methods.  There is no autograd
tape: backward passes are hand-derived, which keeps the framework small and
the computational cost transparent -- a property the paper's runtime
benchmarks rely on.
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable array with an accumulated gradient."""

    def __init__(self, value: np.ndarray, name: str = "param"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class Module:
    """Base class for layers and models.

    Subclasses register parameters as attributes (directly or inside child
    modules); :meth:`parameters` walks the attribute tree.
    """

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        seen: set[int] = set()
        self._collect(params, seen)
        return params

    def _collect(self, params: list[Parameter], seen: set[int]) -> None:
        if id(self) in seen:
            return
        seen.add(id(self))
        # a snapshot: another thread may stamp an attribute meanwhile
        # (the fingerprint a model keeps is one)
        for attr in tuple(vars(self).values()):
            if isinstance(attr, Parameter):
                if id(attr) not in seen:
                    seen.add(id(attr))
                    params.append(attr)
            elif isinstance(attr, Module):
                attr._collect(params, seen)
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        item._collect(params, seen)
                    elif isinstance(item, Parameter) and id(item) not in seen:
                        seen.add(id(item))
                        params.append(item)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def named_parameters(self) -> dict[str, Parameter]:
        """Stable name -> parameter mapping used by (de)serialization."""
        named: dict[str, Parameter] = {}
        for i, param in enumerate(self.parameters()):
            named[f"{i:03d}_{param.name}"] = param
        return named


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
           shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Orthogonal initialization (used for recurrent kernels)."""
    a = rng.standard_normal((max(n, m), min(n, m)))
    q, _ = np.linalg.qr(a)
    q = q[:n, :m] if q.shape[0] >= n else q.T[:n, :m]
    return q
