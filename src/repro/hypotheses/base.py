"""Hypothesis function protocol and validation.

The only contract (Section 3): evaluated over a record, a hypothesis emits a
numeric behavior vector whose length equals the record's symbol count ``ns``.
Output format is checked during execution, as the paper's implementation
does for arbitrary user Python functions.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np

from repro.data.datasets import Dataset
from repro.util.identity import attr_identity


def validate_hypothesis_output(name: str, behavior: np.ndarray,
                               n_symbols: int) -> np.ndarray:
    """Check the hypothesis-function output spec; returns a float vector."""
    arr = np.asarray(behavior)
    if arr.ndim != 1:
        raise ValueError(
            f"hypothesis {name!r} must return a 1-D vector, got shape {arr.shape}")
    if arr.shape[0] != n_symbols:
        raise ValueError(
            f"hypothesis {name!r} returned {arr.shape[0]} behaviors for a "
            f"record of {n_symbols} symbols")
    if not np.issubdtype(arr.dtype, np.number):
        raise ValueError(f"hypothesis {name!r} must return numeric values")
    return arr.astype(np.float64)


def validate_hypothesis_block(name: str, block: np.ndarray, n_records: int,
                              n_symbols: int) -> np.ndarray:
    """The output spec applied to a whole block: a float64 matrix."""
    arr = np.asarray(block)
    if arr.ndim != 2:
        raise ValueError(
            f"hypothesis {name!r} must return a 2-D block, got shape {arr.shape}")
    if arr.shape != (n_records, n_symbols):
        raise ValueError(
            f"hypothesis {name!r} returned a {arr.shape} block for "
            f"{n_records} records of {n_symbols} symbols")
    if not np.issubdtype(arr.dtype, np.number):
        raise ValueError(f"hypothesis {name!r} must return numeric values")
    return arr.astype(np.float64, copy=False)


def block_indices(dataset: Dataset,
                  indices: np.ndarray | list[int] | None) -> np.ndarray:
    """Record ids of a block as an index array (``None`` = every record)."""
    if indices is None:
        return np.arange(dataset.n_records)
    return np.asarray(indices, dtype=np.intp)


def extract_columns(hypotheses: list, dataset: Dataset,
                    indices: np.ndarray | list[int] | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The ``(n, ns, k)`` float64 block whose column ``j`` is
    ``hypotheses[j].extract(dataset, indices)``, written into ``out`` when
    given — the one place the engine evaluates hypotheses.

    Hypotheses exposing the same ``family`` object are answered together,
    by one ``family.extract_block(members, dataset, indices)`` returning a
    numeric ``(n, ns, len(members))`` array, columns in member order; a
    hypothesis without the attribute by its own ``extract``.
    """
    indices = block_indices(dataset, indices)
    n, ns = indices.shape[0], dataset.n_symbols
    if out is None:
        out = np.empty((n, ns, len(hypotheses)))
    families: dict[int, tuple[object, list[int]]] = {}
    for j, hypothesis in enumerate(hypotheses):
        family = getattr(hypothesis, "family", None)
        if family is None:
            out[:, :, j] = hypothesis.extract(dataset, indices)
        else:
            families.setdefault(id(family), (family, []))[1].append(j)
    for family, js in families.values():
        members = [hypotheses[j] for j in js]
        try:
            block = np.asarray(family.extract_block(members, dataset, indices))
            if block.shape != (n, ns, len(js)) \
                    or not np.issubdtype(block.dtype, np.number):
                raise ValueError(f"it returned a {block.dtype} {block.shape} "
                                 f"block, not numeric {(n, ns, len(js))}")
        except Exception as exc:
            raise ValueError(
                f"hypothesis family {type(family).__name__} failed on "
                f"{[member.name for member in members]}: {exc}") from exc
        # members declared together sit side by side: a slice, not a scatter
        run = slice(js[0], js[-1] + 1)
        out[:, :, run if run.stop - run.start == len(js) else js] = block
    return out


def symbol_kernel(label):
    """Make ``label(self, symbols, vocab)`` a hypothesis's ``extract``.

    ``label`` maps an ``(n, ns)`` block of symbol ids to same-shape labels
    (``dataset.symbols`` is the record content; ``meta["text"]`` is the
    same characters, decoded).  The wrapper slices the block out of the
    dataset and applies the output spec to what ``label`` returns.
    """
    @functools.wraps(label)
    def extract(self, dataset: Dataset,
                indices: np.ndarray | list[int] | None = None) -> np.ndarray:
        symbols = dataset.symbols[block_indices(dataset, indices)]
        return validate_hypothesis_block(
            self.name, label(self, symbols, dataset.vocab), *symbols.shape)
    return extract


class HypothesisFunction:
    """Base class; subclasses implement :meth:`behavior` *or* :meth:`extract`.

    :meth:`behavior` is the per-record entry point for arbitrary logic;
    :meth:`extract` is the block kernel the engine calls.  Each defaults to
    the other — a per-record hypothesis is looped over the block, a block
    kernel serves one record as a one-row block — so a hypothesis has
    exactly one implementation.

    ``categorical`` marks hypotheses whose values are class ids rather than
    magnitudes (e.g. POS tags); joint measures one-hot them internally.
    """

    def __init__(self, name: str, categorical: bool = False):
        self.name = name
        self.categorical = categorical

    def behavior(self, dataset: Dataset, index: int) -> np.ndarray:
        """Behavior vector (length ``ns``) for record ``index``."""
        if type(self).extract is HypothesisFunction.extract:
            raise NotImplementedError(
                f"{type(self).__name__} must implement behavior() or extract()")
        return self.extract(dataset, [index])[0]

    def cache_key(self) -> str:
        """Stable *content* identity of the behaviors this hypothesis emits.

        Used by :class:`repro.core.cache.HypothesisCache` and its disk
        tier: the name alone is not safe to persist under, because an
        edited hypothesis with the same name would silently serve stale
        stored behaviors in a later session.  The default folds in every
        constructor attribute — arrays by content hash, wrapped callables
        by bytecode + closure (see :mod:`repro.util.identity`) — and is
        memoized, since hypotheses are treated as immutable once built.
        """
        key = getattr(self, "_cache_key_memo", None)
        if key is None:
            parts = [f"{k}={attr_identity(v)}"
                     for k, v in sorted(vars(self).items())
                     if not k.startswith("_")]
            key = f"{type(self).__name__}({', '.join(parts)})"
            self._cache_key_memo = key
        return key

    def extract(self, dataset: Dataset,
                indices: np.ndarray | list[int] | None = None) -> np.ndarray:
        """Behavior matrix (n_records, ns) for the given record indices.

        The default is the per-record path: one validated :meth:`behavior`
        call per record.  Block kernels override it and check what they
        return with :func:`validate_hypothesis_block`.
        """
        if indices is None:
            indices = range(dataset.n_records)
        rows = [validate_hypothesis_output(
            self.name, self.behavior(dataset, int(i)), dataset.n_symbols)
            for i in indices]
        return np.stack(rows) if rows else np.empty((0, dataset.n_symbols))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class FunctionHypothesis(HypothesisFunction):
    """Wraps an arbitrary Python callable ``f(text) -> vector``.

    The callable sees the raw record text (including padding characters) and
    must return one value per character -- the paper's "arbitrary hypothesis
    logic" entry point.
    """

    def __init__(self, name: str, fn: Callable[[str], np.ndarray],
                 categorical: bool = False):
        super().__init__(name, categorical=categorical)
        self.fn = fn

    def behavior(self, dataset: Dataset, index: int) -> np.ndarray:
        return np.asarray(self.fn(dataset.record_text(index)), dtype=np.float64)


class PrecomputedHypothesis(HypothesisFunction):
    """A hypothesis whose full behavior matrix is already materialized.

    Used for annotation-derived hypotheses (POS tags, pixel masks) where the
    labels were produced together with the dataset.
    """

    def __init__(self, name: str, matrix: np.ndarray,
                 categorical: bool = False):
        super().__init__(name, categorical=categorical)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError("precomputed behavior matrix must be 2-D")

    def extract(self, dataset: Dataset,
                indices: np.ndarray | list[int] | None = None) -> np.ndarray:
        if indices is None:
            return self.matrix
        return self.matrix[np.asarray(list(indices), dtype=int)]
