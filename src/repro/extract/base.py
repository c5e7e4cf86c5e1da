"""Extractor protocol and the hypothesis-side extractor.

Unit extractors run the model; the hypothesis extractor runs hypothesis
functions.  Both emit "skinny and tall" matrices with ``n_records * ns``
rows, aligned row-for-row so measures can consume them directly.

Extraction is split into a *raw sweep* and *read-time views*: a raw-capable
extractor runs the model once at full width (:meth:`Extractor.raw_states`)
and derives the behavior transform, a layer selection and the ``hid_units``
subset lazily (:meth:`Extractor.finalize_rows`).  Extractors that differ
only in those view attributes therefore share one ``model.hidden_states``
sweep — the unit-behavior cache and the persistent store both key entries
by :meth:`Extractor.raw_key` and store the raw activations exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset
from repro.hypotheses.base import HypothesisFunction
from repro.util.identity import attr_identity as _attr_identity

#: behavior transforms (Section 3: DeepBase is agnostic to the behavior
#: definition -- magnitude or temporal gradient of the activation).
_TRANSFORMS = ("activation", "gradient", "abs")


def apply_transform(states: np.ndarray, transform: str) -> np.ndarray:
    """Apply a behavior transform to (batch, time, units) activations."""
    if transform == "activation":
        return states
    if transform == "abs":
        return np.abs(states)
    if transform == "gradient":
        grad = np.diff(states, axis=1, prepend=states[:, :1])
        return grad
    raise ValueError(
        f"unknown behavior transform {transform!r}; expected {_TRANSFORMS}")


#: extractor attributes that never change the extracted behaviors
_EXECUTION_ONLY_ATTRS = frozenset({"batch_size"})


def model_dtype(model) -> np.dtype:
    """The dtype the model's activations carry.

    Inferred from the first floating-point parameter so empty extractions
    match real ones (a float32 model must not emit float64 empties, which
    would concatenate and cache inconsistently).
    """
    params = getattr(model, "parameters", None)
    if callable(params):
        try:
            for param in params():
                value = getattr(param, "value", param)
                dtype = getattr(value, "dtype", None)
                if dtype is not None and np.issubdtype(dtype, np.floating):
                    return np.dtype(dtype)
        except (TypeError, AttributeError):
            pass
    return np.dtype(np.float64)


class Extractor:
    """Base class for unit-behavior extractors.

    Subclasses either override :meth:`extract` wholesale (opaque
    extractors), or implement :meth:`raw_states` (plus :meth:`n_units`,
    and :meth:`raw_width`/:meth:`view_columns` when the raw sweep is wider
    than the extractor's own unit space) and inherit batching, transforms
    and unit selection from this class.
    """

    #: attributes that parameterize read-time *views* over the raw sweep
    #: (applied by :meth:`finalize_rows`) rather than the sweep itself
    view_attrs: frozenset[str] = frozenset({"transform"})

    # -- the public protocol -------------------------------------------
    def extract(self, model, records: np.ndarray,
                hid_units: np.ndarray | list[int] | None = None) -> np.ndarray:
        """Behaviors for ``records``: (n_records * ns, n_selected_units)."""
        if not self.supports_raw:
            raise NotImplementedError
        if hid_units is not None:
            hid_units = np.asarray(hid_units, dtype=int)
        width = (self.n_units(model) if hid_units is None
                 else hid_units.shape[0])
        return self._sweep_batches(
            model, records, width,
            lambda batch: self._apply_views(
                self.view_states(model, batch), hid_units))

    def n_units(self, model) -> int:
        """Total number of inspectable units in the model."""
        raise NotImplementedError

    # -- the raw-sweep protocol ----------------------------------------
    @property
    def supports_raw(self) -> bool:
        """Whether this extractor separates the sweep from its views."""
        return type(self).raw_states is not Extractor.raw_states

    def raw_states(self, model, records: np.ndarray) -> np.ndarray:
        """One untransformed, full-width sweep: (batch, ns, raw_width)."""
        raise NotImplementedError

    def raw_width(self, model) -> int:
        """Column count of the raw sweep (>= ``n_units`` for layer views)."""
        return int(self.n_units(model))

    def view_columns(self, model) -> np.ndarray | None:
        """Raw-sweep columns this extractor reads (None = all of them)."""
        return None

    def view_states(self, model, records: np.ndarray) -> np.ndarray:
        """Untransformed states at this extractor's own width.

        The direct-extraction path goes through here so subclasses whose
        raw sweep is wider than their view (a layer-pinned seq2seq
        extractor) can avoid materializing columns the view drops; the
        default derives the view from the raw sweep.
        """
        states = self.raw_states(model, records)
        cols = self.view_columns(model)
        return states if cols is None else states[:, :, cols]

    def raw_rows(self, model, records: np.ndarray,
                 columns: np.ndarray | None = None) -> np.ndarray:
        """Flat raw rows (n_records * ns, raw_width) for caching/storage.

        ``columns`` narrows the *materialized* matrix to a raw-column
        subset (the model still computes every unit per batch, exactly as
        ``hid_units`` narrowing always worked).  Opaque extractors fall
        back to their own full-width extraction — their ``cache_key``
        doubles as the raw identity, so "raw" simply means "before unit
        selection" for them.
        """
        if not self.supports_raw:
            if columns is not None:
                raise ValueError(
                    "column narrowing requires a raw-capable extractor")
            return self.extract(model, records, hid_units=None)
        width = (self.raw_width(model) if columns is None
                 else int(columns.shape[0]))

        def flat_raw(batch: np.ndarray) -> np.ndarray:
            states = self.raw_states(model, batch)
            if columns is not None:
                states = states[:, :, columns]
            return states.reshape(-1, states.shape[-1])

        return self._sweep_batches(model, records, width, flat_raw)

    def finalize_rows(self, model, raw: np.ndarray, n_symbols: int,
                      hid_units: np.ndarray | list[int] | None = None
                      ) -> np.ndarray:
        """Read-time view: raw flat rows -> this extractor's behaviors.

        Applies the layer/column view, the behavior transform and the
        ``hid_units`` selection without touching the model, so K extractors
        differing only in those attributes share one stored sweep.
        """
        if hid_units is not None:
            hid_units = np.asarray(hid_units, dtype=int)
        if not self.supports_raw:
            return raw if hid_units is None else raw[:, hid_units]
        states = raw.reshape(-1, n_symbols, raw.shape[-1])
        cols = self.view_columns(model)
        if cols is not None:
            states = states[:, :, cols]
        return self._apply_views(states, hid_units)

    def raw_key(self) -> str:
        """Stable identity of the *raw sweep* this extractor runs.

        Excludes view attributes (``view_attrs``) on raw-capable
        extractors: two instances with the same raw key extract identical
        raw activations and may share one forward pass.  Opaque extractors
        return their full :meth:`cache_key` — nothing about them is
        sliceable after the fact.
        """
        if not self.supports_raw:
            return self.cache_key()
        skip = _EXECUTION_ONLY_ATTRS | self.view_attrs
        parts = [f"{k}={_attr_identity(v)}"
                 for k, v in sorted(vars(self).items())
                 if k not in skip and not k.startswith("_")]
        return f"{type(self).__name__}.raw({', '.join(parts)})"

    def cache_key(self) -> str:
        """Stable identity of the *behaviors* this extractor produces.

        Used by :class:`repro.core.cache.UnitBehaviorCache`: two extractor
        instances with the same key must extract identical behaviors from the
        same model.  The default folds in every constructor attribute except
        execution-only knobs (``batch_size``), so e.g. the ``transform`` and
        a layer selector are part of the key.
        """
        parts = [f"{k}={_attr_identity(v)}"
                 for k, v in sorted(vars(self).items())
                 if k not in _EXECUTION_ONLY_ATTRS and not k.startswith("_")]
        return f"{type(self).__name__}({', '.join(parts)})"

    # -- shared plumbing ------------------------------------------------
    def _batch_size(self, records: np.ndarray) -> int:
        size = int(getattr(self, "batch_size", 0) or 0)
        return size if size > 0 else max(1, records.shape[0])

    def _sweep_batches(self, model, records: np.ndarray, empty_width: int,
                       per_batch) -> np.ndarray:
        """One batched pass over ``records``; the direct and raw paths
        share this loop so batching and the empty-input dtype rule cannot
        diverge between them."""
        batch = self._batch_size(records)
        chunks = [per_batch(records[start:start + batch])
                  for start in range(0, records.shape[0], batch)]
        if not chunks:
            return np.empty((0, empty_width), dtype=model_dtype(model))
        return np.concatenate(chunks, axis=0)

    def _apply_views(self, states: np.ndarray,
                     hid_units: np.ndarray | None) -> np.ndarray:
        """Unit selection + transform over already-view-sliced states.

        Every transform is per unit, so selecting first yields the same
        bytes and transforms only the columns that are kept.  The
        selection stays a fancy index (not ``take``): it lays the block
        out unit-major, and a measure's summation order — a score's last
        bits — follows that layout.
        """
        if hid_units is not None:
            states = states[:, :, hid_units]
        states = apply_transform(states,
                                 getattr(self, "transform", "activation"))
        return states.reshape(-1, states.shape[-1])


# ----------------------------------------------------------------------
# protocol adapters: any object with extract()/n_units() can be used as an
# extractor; these helpers supply the raw-sweep API with safe fallbacks
# ----------------------------------------------------------------------
def raw_key_of(extractor) -> str:
    """``extractor.raw_key()`` with a ``cache_key()`` fallback.

    An extractor exposing neither has no stable identity: raise instead of
    inventing one — an address-derived key would be recycled within a
    process and meaningless (or worse, aliasable) once persisted.
    """
    fn = getattr(extractor, "raw_key", None)
    if callable(fn):
        return fn()
    fn = getattr(extractor, "cache_key", None)
    if callable(fn):
        return fn()
    raise AttributeError(
        f"{type(extractor).__name__} exposes neither raw_key() nor "
        "cache_key(); behavior caching/persistence needs a stable "
        "extractor identity")


def raw_rows_of(extractor, model, records: np.ndarray,
                columns: np.ndarray | None = None) -> np.ndarray:
    """Raw rows via the protocol, however much of it exists.

    ``columns`` narrows the materialized sweep to a subset of raw columns
    (only supported by raw-capable extractors; callers pass it only when
    they computed it from the extractor's own view metadata).
    """
    fn = getattr(extractor, "raw_rows", None)
    if callable(fn):
        return fn(model, records, columns=columns)
    if columns is not None:
        raise ValueError("column narrowing requires a raw-capable extractor")
    return extractor.extract(model, records, hid_units=None)


def finalize_rows_of(extractor, model, raw: np.ndarray, n_symbols: int,
                     hid_units=None) -> np.ndarray:
    """Read-time view via the protocol; plain column selection otherwise."""
    fn = getattr(extractor, "finalize_rows", None)
    if callable(fn):
        return fn(model, raw, n_symbols, hid_units=hid_units)
    if hid_units is None:
        return raw
    return raw[:, np.asarray(hid_units, dtype=int)]


class HypothesisExtractor:
    """Evaluates hypothesis functions over dataset records.

    Output rows are symbol-major and aligned with unit extractors:
    row ``r * ns + t`` is record ``r``, symbol ``t``.
    """

    def __init__(self, hypotheses: list[HypothesisFunction]):
        self.hypotheses = hypotheses

    def extract(self, dataset: Dataset,
                indices: np.ndarray | list[int] | None = None) -> np.ndarray:
        if indices is None:
            indices = np.arange(dataset.n_records)
        columns = [h.extract(dataset, indices).reshape(-1)
                   for h in self.hypotheses]
        return np.stack(columns, axis=1) if columns else np.empty(
            (len(indices) * dataset.n_symbols, 0))

    @property
    def names(self) -> list[str]:
        return [h.name for h in self.hypotheses]
