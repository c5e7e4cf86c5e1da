"""Concrete models used in the paper's experiments.

* :class:`CharLSTMModel` -- the SQL auto-completion model of Section 2.1:
  one-hot input layer, one LSTM layer, one fully connected layer with
  softmax loss that predicts the character following a fixed-size window.
* :class:`SpecializedLSTMModel` -- the Appendix C accuracy-benchmark model:
  identical architecture plus an auxiliary loss that forces a chosen subset
  of hidden units to reproduce a hypothesis function's behavior
  (``g_M = w * g_h + (1 - w) * g_T``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense, OneHot
from repro.nn.losses import (accuracy, softmax_cross_entropy,
                             specialization_loss)
from repro.nn.module import Module
from repro.nn.recurrent import LSTM


class CharLSTMModel(Module):
    """Character-level next-symbol predictor (window -> next char)."""

    def __init__(self, vocab_size: int, n_units: int,
                 rng: np.random.Generator, model_id: str = "char_lstm"):
        self.model_id = model_id
        self.vocab_size = vocab_size
        self.n_units = n_units
        self.lstm = LSTM(vocab_size, n_units, rng)
        # the dense encoding only feeds the training path; its dtype
        # follows the LSTM parameters so a float32 model stays float32
        self.onehot = OneHot(vocab_size, dtype=self.lstm.w_x.value.dtype)
        self.head = Dense(n_units, vocab_size, rng)

    # ------------------------------------------------------------------
    def forward(self, ids: np.ndarray) -> np.ndarray:
        """Predict logits for the character following each window.

        Prediction never backprops, so the sweep runs the inference
        kernels (embedding-gather projection, no gate/cell history);
        :meth:`loss_and_grads` builds its own training-mode pass.
        """
        hs = self.lstm.forward(np.asarray(ids), training=False)
        return self.head.forward(hs[:, -1])

    def hidden_states(self, ids: np.ndarray) -> np.ndarray:
        """Per-symbol activations (batch, time, units) -- the DNI behavior.

        Runs the inference-mode sweep of :mod:`repro.nn.kernels`:
        bit-identical hidden states, no dense one-hot, no BPTT cache.
        """
        return self.lstm.forward(np.asarray(ids), training=False)

    # ------------------------------------------------------------------
    def loss_and_grads(self, ids: np.ndarray,
                       targets: np.ndarray) -> tuple[float, float]:
        """Forward + backward for one minibatch; returns (loss, accuracy)."""
        x = self.onehot.forward(ids)
        hs = self.lstm.forward(x)
        logits = self.head.forward(hs[:, -1])
        loss, dlogits = softmax_cross_entropy(logits, targets)
        acc = accuracy(logits, targets)

        dh_last = self.head.backward(dlogits)
        dh_out = np.zeros_like(hs)
        dh_out[:, -1] = dh_last
        self.lstm.backward(dh_out)
        return loss, acc

    def evaluate(self, ids: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
        """(loss, accuracy) without touching gradients."""
        logits = self.forward(ids)
        loss, _ = softmax_cross_entropy(logits, targets)
        return loss, accuracy(logits, targets)

    # ------------------------------------------------------------------
    def architecture(self) -> dict:
        """Serializable architecture description."""
        return {"kind": "char_lstm", "vocab_size": self.vocab_size,
                "n_units": self.n_units, "model_id": self.model_id}


class SpecializedLSTMModel(CharLSTMModel):
    """Next-symbol model with unit-specialization auxiliary loss.

    ``specialized_units`` indexes the hidden units that the auxiliary loss
    forces to track the provided per-symbol hypothesis behavior;
    ``weight`` is the paper's ``w`` mixing coefficient (default 0.5).
    """

    def __init__(self, vocab_size: int, n_units: int,
                 rng: np.random.Generator,
                 specialized_units: np.ndarray | list[int] | None = None,
                 weight: float = 0.5, model_id: str = "specialized_lstm"):
        super().__init__(vocab_size, n_units, rng, model_id=model_id)
        if specialized_units is None:
            specialized_units = np.arange(min(4, n_units))
        self.specialized_units = np.asarray(specialized_units, dtype=int)
        if not 0.0 <= weight <= 1.0:
            raise ValueError("specialization weight must be in [0, 1]")
        self.weight = weight

    def loss_and_grads(self, ids: np.ndarray, targets: np.ndarray,
                       aux_behavior: np.ndarray | None = None
                       ) -> tuple[float, float]:
        """One step of the mixed objective ``w*g_h + (1-w)*g_T``.

        ``aux_behavior`` is the hypothesis behavior matrix (batch, time);
        when omitted, falls back to the plain task loss.
        """
        if aux_behavior is None:
            return super().loss_and_grads(ids, targets)

        x = self.onehot.forward(ids)
        hs = self.lstm.forward(x)
        logits = self.head.forward(hs[:, -1])
        task_loss, dlogits = softmax_cross_entropy(logits, targets)
        acc = accuracy(logits, targets)
        aux_loss, dh_aux = specialization_loss(
            hs, self.specialized_units, aux_behavior)

        w = self.weight
        dh_last = self.head.backward(dlogits * (1.0 - w))
        dh_out = dh_aux * w
        dh_out[:, -1] += dh_last
        self.lstm.backward(dh_out)
        return w * aux_loss + (1.0 - w) * task_loss, acc

    def architecture(self) -> dict:
        arch = super().architecture()
        arch.update({"kind": "specialized_lstm",
                     "specialized_units": self.specialized_units.tolist(),
                     "weight": self.weight})
        return arch
