"""Sequence-to-sequence translation model with attention (OpenNMT substitute).

Encoder-decoder architecture matching the shape of the model the paper
inspects: embeddings, a stacked-LSTM encoder, a stacked-LSTM decoder, and a
Luong-style dot-product attention module feeding a projection over the target
vocabulary.  Trained with teacher forcing.

Deep Neural Inspection reads the *encoder* hidden states
(:meth:`Seq2SeqModel.encoder_states`), exactly where Belinkov et al. and the
paper's Section 6.3 attach their probes.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense, Embedding, softmax
from repro.nn.losses import softmax_cross_entropy
from repro.nn.module import Module
from repro.nn.recurrent import StackedLSTM


class Seq2SeqModel(Module):
    """Encoder-decoder with dot-product attention."""

    def __init__(self, src_vocab: int, tgt_vocab: int, n_units: int,
                 rng: np.random.Generator, n_layers: int = 2,
                 emb_dim: int | None = None, pad_id: int = 0,
                 model_id: str = "seq2seq"):
        self.model_id = model_id
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.n_units = n_units
        self.n_layers = n_layers
        self.pad_id = pad_id
        emb_dim = emb_dim or n_units
        self.emb_dim = emb_dim

        self.src_embed = Embedding(src_vocab, emb_dim, rng)
        self.encoder = StackedLSTM(emb_dim, n_units, n_layers, rng)
        self.tgt_embed = Embedding(tgt_vocab, emb_dim, rng)
        self.decoder = StackedLSTM(emb_dim, n_units, n_layers, rng)
        self.out_proj = Dense(2 * n_units, tgt_vocab, rng)
        self._cache: dict | None = None

    # ------------------------------------------------------------------
    def forward(self, src_ids: np.ndarray, tgt_in: np.ndarray) -> np.ndarray:
        """Teacher-forced logits (batch, T_tgt, tgt_vocab)."""
        enc = self.encoder.forward(self.src_embed.forward(src_ids))
        dec = self.decoder.forward(self.tgt_embed.forward(tgt_in))

        # dot-product attention with source padding masked out
        scores = np.einsum("btu,bsu->bts", dec, enc)
        src_mask = (src_ids == self.pad_id)[:, None, :]  # (batch, 1, T_src)
        scores = np.where(src_mask, -1e9, scores)
        alpha = softmax(scores, axis=-1)
        context = np.einsum("bts,bsu->btu", alpha, enc)

        concat = np.concatenate([dec, context], axis=-1)
        logits = self.out_proj.forward(concat)
        self._cache = {"enc": enc, "dec": dec, "alpha": alpha,
                       "src_ids": src_ids}
        return logits

    # ------------------------------------------------------------------
    def loss_and_grads(self, batch: tuple[np.ndarray, np.ndarray, np.ndarray],
                       targets: np.ndarray | None = None) -> tuple[float, float]:
        """One training step over (src, tgt_in, tgt_out) triples.

        Follows the (inputs, targets) calling convention of
        :func:`repro.nn.training.train_model`: ``batch`` packs the source and
        teacher-forcing input, ``targets`` is tgt_out; alternatively pass the
        full triple as ``batch`` with ``targets=None``.
        """
        if targets is None:
            src_ids, tgt_in, tgt_out = batch
        else:
            src_ids, tgt_in = batch
            tgt_out = targets
        logits = self.forward(src_ids, tgt_in)

        # mask padding positions out of the loss by pointing them at class 0
        # with zero weight: compute CE manually over non-pad positions
        mask = tgt_out != self.pad_id
        flat_logits = logits[mask]
        flat_targets = tgt_out[mask]
        loss, dflat = softmax_cross_entropy(flat_logits, flat_targets)
        acc = float((flat_logits.argmax(axis=-1) == flat_targets).mean())
        dlogits = np.zeros_like(logits)
        dlogits[mask] = dflat

        self._backward(dlogits)
        return loss, acc

    def _backward(self, dlogits: np.ndarray) -> None:
        assert self._cache is not None
        enc = self._cache["enc"]
        dec = self._cache["dec"]
        alpha = self._cache["alpha"]
        h = self.n_units

        dconcat = self.out_proj.backward(dlogits)
        ddec = dconcat[..., :h].copy()
        dcontext = dconcat[..., h:]

        # context = alpha @ enc
        dalpha = np.einsum("btu,bsu->bts", dcontext, enc)
        denc = np.einsum("bts,btu->bsu", alpha, dcontext)
        # softmax backward (masked positions have alpha == 0 -> no gradient)
        dscores = alpha * (dalpha - (dalpha * alpha).sum(axis=-1, keepdims=True))
        # scores = dec @ enc^T
        ddec += np.einsum("bts,bsu->btu", dscores, enc)
        denc += np.einsum("bts,btu->bsu", dscores, dec)

        dtgt_emb = self.decoder.backward(ddec)
        self.tgt_embed.backward(dtgt_emb)
        dsrc_emb = self.encoder.backward(denc)
        self.src_embed.backward(dsrc_emb)

    # ------------------------------------------------------------------
    def evaluate(self, batch, targets: np.ndarray | None = None
                 ) -> tuple[float, float]:
        if targets is None:
            src_ids, tgt_in, tgt_out = batch
        else:
            src_ids, tgt_in = batch
            tgt_out = targets
        logits = self.forward(src_ids, tgt_in)
        mask = tgt_out != self.pad_id
        loss, _ = softmax_cross_entropy(logits[mask], tgt_out[mask])
        acc = float((logits[mask].argmax(axis=-1) == tgt_out[mask]).mean())
        return loss, acc

    # ------------------------------------------------------------------
    def encoder_states(self, src_ids: np.ndarray) -> list[np.ndarray]:
        """Per-layer encoder hidden sequences -- the DNI extraction point.

        Extraction never backprops, so the stack runs the inference-mode
        sweep (:mod:`repro.nn.kernels`): bit-identical hidden states
        without gate/cell history or BPTT caches.  :meth:`forward` keeps
        the training-mode pass -- its caches feed :meth:`_backward`.
        """
        self.encoder.forward(self.src_embed.forward(src_ids),
                             training=False)
        return self.encoder.layer_states()

    def architecture(self) -> dict:
        return {"kind": "seq2seq", "src_vocab": self.src_vocab,
                "tgt_vocab": self.tgt_vocab, "n_units": self.n_units,
                "n_layers": self.n_layers, "emb_dim": self.emb_dim,
                "pad_id": self.pad_id, "model_id": self.model_id}
