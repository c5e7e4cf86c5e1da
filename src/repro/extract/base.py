"""Extractor protocol and the hypothesis-side extractor.

Unit extractors run the model; the hypothesis extractor runs hypothesis
functions.  Both emit "skinny and tall" matrices with ``n_records * ns``
rows, aligned row-for-row so measures can consume them directly.

Extraction is split into a *raw sweep* and *read-time views*: every
extractor runs the model once at full width (:meth:`Extractor.raw_states`)
and derives the behavior transform, a layer selection and the ``hid_units``
subset lazily (:meth:`Extractor.finalize_states` over
:meth:`Extractor.raw_columns`).  That is the one way a unit behavior is
produced — by a direct :meth:`Extractor.extract`, the unit tier, the store
and the tier-less engine alike — so extractors that differ only in those
view attributes share one model sweep: the unit-behavior cache and the
persistent store both key entries by :meth:`Extractor.raw_key` and store
the raw activations exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset
from repro.hypotheses.base import HypothesisFunction, extract_columns
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

    A subclass implements :meth:`n_units` and :meth:`raw_states` (plus the
    :meth:`raw_width`/:meth:`view_columns` pair when its raw sweep is wider
    than its own unit space).  Batching, transforms, unit selection and
    the identities the caches key by are derived here and overridden
    nowhere.
    """

    #: attributes that parameterize read-time *views* over the raw sweep
    #: (applied by :meth:`finalize_states`) rather than the sweep itself
    view_attrs: frozenset[str] = frozenset({"transform"})
    #: records per model call; 0 runs each request as one batch
    batch_size: int = 0
    #: behavior definition applied on read (see :func:`apply_transform`)
    transform: str = "activation"

    # -- what a subclass implements ------------------------------------
    def n_units(self, model) -> int:
        """Total number of inspectable units in the model."""
        raise NotImplementedError

    def raw_states(self, model, records: np.ndarray) -> np.ndarray:
        """One untransformed, full-width sweep: (batch, ns, raw_width)."""
        raise NotImplementedError

    def raw_width(self, model) -> int:
        """Column count of the raw sweep (>= ``n_units`` for layer views)."""
        return int(self.n_units(model))

    def view_columns(self, model) -> np.ndarray | None:
        """Raw-sweep columns this extractor reads (None = all of them)."""
        return None

    # -- derived: the public call, the raw rows and the views over them --
    def extract(self, model, records: np.ndarray,
                hid_units: np.ndarray | list[int] | None = None) -> np.ndarray:
        """Behaviors for ``records``: (n_records * ns, n_selected_units),
        the read-time view over each batch's raw sweep — laid out as the
        plan's block for those units is, all of them included."""
        columns = self.raw_columns(model, hid_units)
        return self._sweep_batches(
            model, records, len(columns),
            lambda batch: self.finalize_states(
                self.raw_states(model, batch), columns))

    def raw_rows(self, model, records: np.ndarray) -> np.ndarray:
        """Flat raw rows (n_records * ns, raw_width) for caching/storage.

        ``records`` is a dataset's ``(n_records, ns)`` symbol matrix; a
        sweep with any other row count is rejected here, the one sweep
        every engine path runs through.
        """
        def flat_raw(batch: np.ndarray) -> np.ndarray:
            states = self.raw_states(model, batch)
            return states.reshape(-1, states.shape[-1])

        rows = self._sweep_batches(model, records, self.raw_width(model),
                                   flat_raw)
        n, ns = records.shape[:2]
        if rows.shape[0] != n * ns:
            raise ValueError(
                f"extractor row mismatch: expected {n * ns} rows "
                f"({n} records x {ns} symbols), got {rows.shape[0]}")
        return rows

    def raw_columns(self, model, hid_units: np.ndarray | list[int] | None
                    = None) -> np.ndarray:
        """Raw-sweep columns behind ``hid_units`` of this extractor's view
        (None = every unit of it): always an index array, so a read of
        every unit is selected — laid out unit-major — as the plan's
        all-units group is."""
        view = self.view_columns(model)
        columns = (np.arange(self.n_units(model)) if view is None
                   else np.asarray(view))
        return (columns if hid_units is None
                else columns[np.asarray(hid_units, dtype=int)])

    def finalize_states(self, states: np.ndarray,
                        columns: np.ndarray | None = None) -> np.ndarray:
        """Column selection + transform over (batch, ns, width) states,
        flattened to rows — the one read-time view every path ends in.

        Every transform is per unit, so selecting first yields the same
        bytes and transforms only the columns that are kept.  The
        selection stays a fancy index (not ``take``): it lays the block
        out unit-major, and a measure's summation order — a score's last
        bits — follows that layout (the unit cache holds its entries so,
        and hands in states already selected).
        """
        if columns is not None:
            states = states[:, :, columns]
        states = apply_transform(states, self.transform)
        return states.reshape(-1, states.shape[-1])

    def raw_key(self) -> str:
        """Stable identity of the *raw sweep* this extractor runs.

        Excludes view attributes (``view_attrs``): two instances with the
        same raw key extract identical raw activations and may share one
        forward pass.
        """
        return self._identity(".raw", _EXECUTION_ONLY_ATTRS | self.view_attrs)

    def cache_key(self) -> str:
        """Stable identity of the *behaviors* this extractor produces.

        Two extractor instances with the same key must extract identical
        behaviors from the same model.  Folds in every constructor
        attribute except execution-only knobs (``batch_size``), so e.g.
        the ``transform`` and a layer selector are part of the key.
        """
        return self._identity("", _EXECUTION_ONLY_ATTRS)

    # -- shared plumbing ------------------------------------------------
    def _identity(self, suffix: str, skip: frozenset[str]) -> str:
        parts = [f"{k}={_attr_identity(v)}"
                 for k, v in sorted(vars(self).items())
                 if k not in skip and not k.startswith("_")]
        return f"{type(self).__name__}{suffix}({', '.join(parts)})"

    def _sweep_batches(self, model, records: np.ndarray, empty_width: int,
                       per_batch) -> np.ndarray:
        """One batched pass over ``records``; the direct and raw paths
        share this loop so batching and the empty-input dtype rule cannot
        diverge between them.  A lone batch is returned as is, uncopied:
        callers only read the block."""
        batch = (self.batch_size if self.batch_size > 0
                 else max(1, records.shape[0]))
        chunks = [per_batch(records[start:start + batch])
                  for start in range(0, records.shape[0], batch)]
        if not chunks:
            return np.empty((0, empty_width), dtype=model_dtype(model))
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def require_extractor(value, where: str) -> None:
    """The one typed rejection of a non-:class:`Extractor` at an entry point."""
    if not isinstance(value, Extractor):
        raise TypeError(
            f"{where} must be a repro.extract.Extractor (a subclass "
            f"implementing n_units and raw_states), got "
            f"{type(value).__name__}")


class HypothesisExtractor:
    """Evaluates hypothesis functions over dataset records.

    Output rows are symbol-major and aligned with unit extractors:
    row ``r * ns + t`` is record ``r``, symbol ``t``.
    """

    def __init__(self, hypotheses: list[HypothesisFunction]):
        self.hypotheses = hypotheses

    def extract(self, dataset: Dataset,
                indices: np.ndarray | list[int] | None = None) -> np.ndarray:
        block = extract_columns(self.hypotheses, dataset, indices)
        n, ns, k = block.shape
        return block.reshape(n * ns, k)

    @property
    def names(self) -> list[str]:
        return [h.name for h in self.hypotheses]
