"""Encoder activation extraction for seq2seq models (PyTorch-extractor
analogue of Section 6.3: a custom extractor for the OpenNMT model).

``layer`` selects which encoder LSTM layer to read (the paper inspects
layer 0 and layer 1 separately, and both concatenated for the
"all 1000 units" analysis).  The raw sweep always captures every layer —
``layer`` is a read-time column view, so per-layer extractors over one
model share a single ``encoder_states`` pass.
"""

from __future__ import annotations

import numpy as np

from repro.extract.base import Extractor


class EncoderActivationExtractor(Extractor):
    """Reads hidden states from a :class:`repro.nn.seq2seq.Seq2SeqModel`.

    ``layer=None`` concatenates every encoder layer's units (layer-major
    column order); an integer selects a single layer.
    """

    view_attrs = frozenset({"transform", "layer"})

    def __init__(self, layer: int | None = None, batch_size: int = 256,
                 transform: str = "activation"):
        self.layer = layer
        self.batch_size = batch_size
        self.transform = transform

    def n_units(self, model) -> int:
        if self.layer is None:
            return model.n_units * model.n_layers
        return model.n_units

    def raw_width(self, model) -> int:
        return model.n_units * model.n_layers

    def raw_states(self, model, records):
        layer_states = model.encoder_states(records)   # list of (b, t, u)
        return np.concatenate(layer_states, axis=2)

    def view_columns(self, model) -> np.ndarray | None:
        if self.layer is None:
            return None
        width = model.n_units
        return np.arange(self.layer * width, (self.layer + 1) * width)
