"""LSTM layer with full backpropagation-through-time.

The hidden state sequence ``H`` (batch, time, units) is both the layer output
and the *unit behavior* that Deep Neural Inspection extracts: unit ``u``'s
behavior on a record is ``H[record, :, u]`` (Section 3 of the paper).

``backward`` accepts the gradient with respect to every timestep's hidden
state, which lets callers attach losses anywhere in the sequence -- the
next-character head uses only the last step, while the specialized-unit
auxiliary loss of Appendix C supervises all steps.
"""

from __future__ import annotations

import numpy as np

from repro.nn import kernels
from repro.nn.layers import sigmoid
from repro.nn.module import Module, Parameter, glorot, orthogonal


class LSTM(Module):
    """Single-layer LSTM over (batch, time, n_in) inputs."""

    def __init__(self, n_in: int, n_units: int, rng: np.random.Generator):
        self.n_in = n_in
        self.n_units = n_units
        h = n_units
        self.w_x = Parameter(glorot(rng, n_in, 4 * h), "lstm_wx")
        self.w_h = Parameter(
            np.concatenate([orthogonal(rng, h, h) for _ in range(4)], axis=1),
            "lstm_wh")
        bias = np.zeros(4 * h, dtype=self.w_x.value.dtype)
        bias[h:2 * h] = 1.0  # forget-gate bias trick
        self.b = Parameter(bias, "lstm_b")
        self._cache: dict | None = None

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray,
                h0: np.ndarray | None = None,
                c0: np.ndarray | None = None, *,
                training: bool = True) -> np.ndarray:
        """Run the sequence; returns hidden states (batch, time, units).

        ``x`` is either a dense ``(batch, time, n_in)`` tensor or an
        integer ``(batch, time)`` id array; ids index the pre-biased
        ``w_x`` table of :mod:`repro.nn.kernels` (bit-identical to one-hot
        @ ``w_x`` without materializing the one-hot) and therefore require
        ``training=False`` -- BPTT's weight gradient needs the dense input.

        ``training=False`` runs the inference sweep: preallocated scratch,
        in-place kernels, no gate/cell history and no backward cache (on
        ids, no ``(batch, time, 4h)`` projection either).  The hidden
        states are bit-identical to the training path's.
        """
        if x.ndim == 2 and np.issubdtype(x.dtype, np.integer):
            if training:
                raise ValueError(
                    "integer id input requires training=False: the BPTT "
                    "weight gradient needs the dense (one-hot) input")
            return self._inferred(kernels.lstm_sweep_ids(
                x, self.w_x.value, self.b.value, self.w_h.value, h0, c0))
        batch, time, _ = x.shape
        # hoist the input projection out of the time loop
        x_proj = x.reshape(-1, self.n_in) @ self.w_x.value
        x_proj = x_proj.reshape(batch, time, 4 * self.n_units) \
            + self.b.value
        if not training:
            return self._inferred(kernels.lstm_sweep(
                x_proj, self.w_h.value, self.n_units, h0, c0))

        h_dim = self.n_units
        dtype = x_proj.dtype  # buffers follow the parameters' dtype
        h_prev = np.zeros((batch, h_dim), dtype=dtype) if h0 is None else h0
        c_prev = np.zeros((batch, h_dim), dtype=dtype) if c0 is None else c0

        hs = np.empty((batch, time, h_dim), dtype=dtype)
        cs = np.empty((batch, time, h_dim), dtype=dtype)
        gates = np.empty((batch, time, 4 * h_dim), dtype=dtype)

        for t in range(time):
            z = x_proj[:, t] + h_prev @ self.w_h.value
            i = sigmoid(z[:, :h_dim])
            f = sigmoid(z[:, h_dim:2 * h_dim])
            o = sigmoid(z[:, 2 * h_dim:3 * h_dim])
            g = np.tanh(z[:, 3 * h_dim:])
            c_prev = f * c_prev + i * g
            h_prev = o * np.tanh(c_prev)
            hs[:, t] = h_prev
            cs[:, t] = c_prev
            gates[:, t, :h_dim] = i
            gates[:, t, h_dim:2 * h_dim] = f
            gates[:, t, 2 * h_dim:3 * h_dim] = o
            gates[:, t, 3 * h_dim:] = g

        self._cache = {
            "x": x, "hs": hs, "cs": cs, "gates": gates,
            "h0": np.zeros((batch, h_dim), dtype=dtype) if h0 is None else h0,
            "c0": np.zeros((batch, h_dim), dtype=dtype) if c0 is None else c0,
        }
        return hs

    def _inferred(self, hs: np.ndarray) -> np.ndarray:
        # enough cache for last_hidden(), and no more: holding the whole
        # sweep would pin every model's (batch, time, h) output until its
        # next forward; backward() rejects the cache
        self._cache = {"hs": hs[:, -1:].copy(), "inference": True}
        return hs

    # ------------------------------------------------------------------
    def backward(self, dh_out: np.ndarray,
                 dh_final: np.ndarray | None = None,
                 dc_final: np.ndarray | None = None) -> np.ndarray:
        """Backprop through time.

        ``dh_out`` is the loss gradient w.r.t. every hidden state
        (batch, time, units); pass zeros for unsupervised steps.  Returns the
        gradient with respect to the input sequence.
        """
        assert self._cache is not None, "forward must run before backward"
        assert not self._cache.get("inference"), \
            "backward needs a training-mode forward pass (training=True)"
        cache = self._cache
        x, hs, cs, gates = cache["x"], cache["hs"], cache["cs"], cache["gates"]
        batch, time, _ = x.shape
        h_dim = self.n_units

        dx = np.zeros_like(x)
        dtype = hs.dtype
        dh_next = (np.zeros((batch, h_dim), dtype=dtype)
                   if dh_final is None else dh_final.copy())
        dc_next = (np.zeros((batch, h_dim), dtype=dtype)
                   if dc_final is None else dc_final.copy())
        dw_x = np.zeros_like(self.w_x.value)
        dw_h = np.zeros_like(self.w_h.value)
        db = np.zeros_like(self.b.value)

        for t in range(time - 1, -1, -1):
            i = gates[:, t, :h_dim]
            f = gates[:, t, h_dim:2 * h_dim]
            o = gates[:, t, 2 * h_dim:3 * h_dim]
            g = gates[:, t, 3 * h_dim:]
            c_t = cs[:, t]
            c_prev = cs[:, t - 1] if t > 0 else cache["c0"]
            h_prev = hs[:, t - 1] if t > 0 else cache["h0"]

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
            dx[:, t] = dz @ self.w_x.value.T
            dh_next = dz @ self.w_h.value.T
            dc_next = dc * f

        self.w_x.grad += dw_x
        self.w_h.grad += dw_h
        self.b.grad += db
        return dx

    # ------------------------------------------------------------------
    def last_hidden(self) -> np.ndarray:
        """Hidden state at the final timestep of the latest forward pass."""
        assert self._cache is not None
        return self._cache["hs"][:, -1]


class StackedLSTM(Module):
    """A stack of LSTM layers; exposes each layer's hidden sequence."""

    def __init__(self, n_in: int, n_units: int, n_layers: int,
                 rng: np.random.Generator):
        self.layers = [LSTM(n_in if k == 0 else n_units, n_units, rng)
                       for k in range(n_layers)]
        self.n_units = n_units
        self.n_layers = n_layers
        self._layer_outputs: list[np.ndarray] | None = None

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        out = x
        outputs = []
        for layer in self.layers:
            out = layer.forward(out, training=training)
            outputs.append(out)
        self._layer_outputs = outputs
        return out

    def backward(self, dh_out: np.ndarray) -> np.ndarray:
        grad = dh_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def layer_states(self) -> list[np.ndarray]:
        """Per-layer hidden sequences from the latest forward pass."""
        assert self._layer_outputs is not None
        return self._layer_outputs
