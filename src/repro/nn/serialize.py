"""Model (de)serialization to a directory of ``arch.json`` + ``weights.npz``.

Mirrors the paper's workflow of loading pre-trained models
(``load_model('sql_char_model.h5')``): the architecture dictionary selects a
constructor from a registry and the flat parameter list is restored by
position.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.util.rng import new_rng


def save_model(model, path: str) -> None:
    """Persist ``model`` (anything exposing ``architecture()``) to ``path``."""
    os.makedirs(path, exist_ok=True)
    arch = model.architecture()
    with open(os.path.join(path, "arch.json"), "w", encoding="utf-8") as f:
        json.dump(arch, f, indent=2)
    arrays = {name: p.value for name, p in model.named_parameters().items()}
    np.savez(os.path.join(path, "weights.npz"), **arrays)


def _build_from_arch(arch: dict):
    """Instantiate an untrained model matching ``arch`` (registry dispatch)."""
    # local imports avoid a circular dependency with the model modules
    from repro.nn.models import CharLSTMModel, SpecializedLSTMModel
    from repro.nn.seq2seq import Seq2SeqModel

    rng = new_rng(0)  # weights are overwritten right after construction
    kind = arch["kind"]
    if kind == "char_lstm":
        return CharLSTMModel(arch["vocab_size"], arch["n_units"], rng,
                             model_id=arch["model_id"])
    if kind == "specialized_lstm":
        return SpecializedLSTMModel(
            arch["vocab_size"], arch["n_units"], rng,
            specialized_units=arch["specialized_units"],
            weight=arch["weight"], model_id=arch["model_id"])
    if kind == "seq2seq":
        return Seq2SeqModel(arch["src_vocab"], arch["tgt_vocab"],
                            arch["n_units"], rng, n_layers=arch["n_layers"],
                            emb_dim=arch["emb_dim"], pad_id=arch["pad_id"],
                            model_id=arch["model_id"])
    if kind == "shape_cnn":
        from repro.vision.cnn_model import ShapeCnn
        return ShapeCnn(arch["n_classes"], rng, channels1=arch["channels1"],
                        channels2=arch["channels2"],
                        model_id=arch["model_id"])
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path: str):
    """Load a model previously written by :func:`save_model`."""
    with open(os.path.join(path, "arch.json"), encoding="utf-8") as f:
        arch = json.load(f)
    model = _build_from_arch(arch)
    with np.load(os.path.join(path, "weights.npz")) as data:
        named = model.named_parameters()
        missing = set(named) - set(data.files)
        if missing:
            raise ValueError(f"weights file missing parameters: {missing}")
        for name, param in named.items():
            stored = data[name]
            if stored.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{stored.shape} vs {param.value.shape}")
            param.value = stored.astype(np.float64)
    return model


def clone_model(model):
    """Deep-copy a model by serializing through memory (epoch snapshots)."""
    arch = model.architecture()
    clone = _build_from_arch(arch)
    for src, dst in zip(model.parameters(), clone.parameters()):
        dst.value = src.value.copy()
    return clone
