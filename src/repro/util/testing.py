"""Instrumentation helpers shared by the test suite and the benchmarks."""

from __future__ import annotations


class CountingForwardModel:
    """Delegating model wrapper that counts ``hidden_states`` sweeps.

    Parameters are delegated, so the fingerprint (and therefore every
    cache/store key) matches the wrapped model's — warm paths are asserted
    by watching ``forward_calls`` stay at zero.

    Every scheduler sweeps in this process, so the count is the same
    under each of them.
    """

    def __init__(self, model):
        self._model = model
        self.model_id = model.model_id
        self.n_units = model.n_units
        self.forward_calls = 0

    def parameters(self):
        return self._model.parameters()

    def hidden_states(self, ids):
        self.forward_calls += 1
        return self._model.hidden_states(ids)
