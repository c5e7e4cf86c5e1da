"""Dataset model of the paper's problem setup (Section 3).

A dataset ``D`` is an ``nd x ns`` matrix of symbols: every record is a
fixed-size window of symbol ids, null-padded with the ``~`` character the
paper uses.  Records keep provenance metadata (source string, offset, parse
tree) so hypothesis functions can label window characters from the parse of
the full underlying string.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

PAD_CHAR = "~"


class Vocab:
    """Bidirectional char <-> id mapping; id 0 is always the pad symbol."""

    def __init__(self, chars: list[str] | str, pad: str = PAD_CHAR):
        ordered = [pad] + [c for c in dict.fromkeys(chars) if c != pad]
        self._id_of = {c: i for i, c in enumerate(ordered)}
        self._char_of = ordered
        self.pad_id = 0
        self.pad_char = pad

    def __len__(self) -> int:
        return len(self._char_of)

    def __contains__(self, char: str) -> bool:
        return char in self._id_of

    def encode(self, text: str) -> np.ndarray:
        try:
            return np.array([self._id_of[c] for c in text], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"character {exc.args[0]!r} not in vocab") from exc

    def decode(self, ids: np.ndarray) -> str:
        return "".join(self._char_of[int(i)] for i in ids)

    def char(self, idx: int) -> str:
        return self._char_of[idx]

    def member_mask(self, chars: Iterable[str]) -> np.ndarray:
        """Lookup table over symbol ids: True at the ids of ``chars``.

        ``mask[symbols]`` is the block form of ``char in chars``;
        characters outside the vocab occur in no record and are skipped.
        """
        mask = np.zeros(len(self), dtype=bool)
        for char in chars:
            idx = self._id_of.get(char)
            if idx is not None:
                mask[idx] = True
        return mask


@dataclass
class Dataset:
    """An ``nd x ns`` symbol matrix plus provenance metadata.

    ``meta[i]`` describes record ``i``; for windowed workloads it includes
    ``source_id`` (index of the underlying string), ``offset`` (window start
    within that string, negative while inside left padding) and ``text``
    (the raw window string including padding).
    """

    symbols: np.ndarray
    vocab: Vocab
    meta: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.symbols.ndim != 2:
            raise ValueError("symbols must be a 2-D (records x symbols) matrix")
        if self.meta and len(self.meta) != self.symbols.shape[0]:
            raise ValueError("meta length must match the number of records")
        if not self.meta:
            self.meta = [{} for _ in range(self.symbols.shape[0])]

    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return int(self.symbols.shape[0])

    @property
    def n_symbols(self) -> int:
        """Symbols per record (the paper's ``ns``)."""
        return int(self.symbols.shape[1])

    def __len__(self) -> int:
        return self.n_records

    def record_text(self, i: int) -> str:
        meta_text = self.meta[i].get("text")
        if meta_text is not None:
            return meta_text
        return self.vocab.decode(self.symbols[i])

    def window_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``meta``'s ``source_id`` and ``offset`` as two int64 columns.

        Derived once from ``meta`` (which is treated as immutable) so block
        kernels can gather by window instead of reading one dict per
        record; private to this object — neither pickled nor inherited by
        :meth:`subset`.
        """
        columns = getattr(self, "_window_columns", None)
        if columns is None:
            columns = (
                np.array([m["source_id"] for m in self.meta], dtype=np.int64),
                np.array([m["offset"] for m in self.meta], dtype=np.int64))
            self._window_columns = columns
        return columns

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("_window_columns", None)
        return state

    def subset(self, indices: np.ndarray | list[int] | slice) -> "Dataset":
        if isinstance(indices, slice):
            indices = range(*indices.indices(self.n_records))
        indices = list(indices)
        return Dataset(symbols=self.symbols[indices],
                       vocab=self.vocab,
                       meta=[self.meta[i] for i in indices])

    def head(self, n: int) -> "Dataset":
        return self.subset(slice(0, n))

    def cache_key(self) -> str:
        """Stable content hash (used by the hypothesis-behavior cache)."""
        key = getattr(self, "_cache_key", None)
        if key is None:
            digest = hashlib.sha1(self.symbols.tobytes())
            digest.update(str(self.symbols.shape).encode())
            key = digest.hexdigest()
            self._cache_key = key
        return key
