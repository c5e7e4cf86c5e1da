"""The behavior-source operator: aligned unit/hypothesis blocks (the
engine's pieces are introduced in :mod:`repro.core.pipeline`)."""

from __future__ import annotations

import threading
from concurrent.futures import Future

import numpy as np

from repro.core.cache import HypothesisCache, model_fingerprint
from repro.core.config import InspectConfig
from repro.core.groups import UnitGroup
from repro.core.schedulers import Scheduler, gathering
from repro.data.datasets import Dataset
from repro.extract.base import Extractor, HypothesisExtractor
from repro.hypotheses.base import HypothesisFunction
from repro.util.blocks import iter_blocks
from repro.util.trace import span


#: rows squared at once when a block's sums of squares are taken
_SQUARE_ROWS = 256


def block_moments(block: np.ndarray):
    """A thunk for the column sums and sums of squares of ``block``, or
    ``None`` where sharing them is unsafe: summed on the first call, so
    the score tasks of one statement that read this block sum it once.

    Layout decides a sum's last bits — two or more C-ordered columns sum
    row by row whichever other columns are present, one column or a
    column slice pairwise — so the thunk holds for this very array, never
    for a slice of it.  Row by row is also why the squares can be summed
    ``_SQUARE_ROWS`` at a time, the running sum carried into the next
    chunk's first row: bit for bit ``(block**2).sum(axis=0)``, without a
    temporary the size of the block.
    """
    if block.shape[1] < 2 or not block.flags.c_contiguous:
        return None
    lock, got = threading.Lock(), []

    def moments() -> tuple[np.ndarray, np.ndarray]:
        with lock:
            if not got:
                sum_sq = np.zeros(block.shape[1], dtype=block.dtype)
                for start in range(0, block.shape[0], _SQUARE_ROWS):
                    squares = np.square(block[start:start + _SQUARE_ROWS])
                    squares[0] += sum_sq
                    sum_sq = squares.sum(axis=0)
                got.append((block.sum(axis=0), sum_sq))
            return got[0]
    return moments


def _extract_hypotheses(hypotheses: list[HypothesisFunction],
                        dataset: Dataset, indices: np.ndarray,
                        cache: HypothesisCache | None) -> tuple:
    """The hypothesis block and its moments thunk (None without a cache)."""
    if cache is None:
        return HypothesisExtractor(hypotheses).extract(dataset, indices), None
    block = cache.extract_block(hypotheses, dataset, indices)
    return block, block_moments(block)


class BehaviorSource:
    """Serves aligned behavior blocks for record positions in ``order``.

    ``materialize=False`` (streaming) extracts lazily per request;
    ``materialize=True`` extracts everything on :meth:`prepare` and then
    serves row slices.  Either way unit extraction runs once per distinct
    (model, raw sweep) pair, at full width, and each group's behaviors are
    a read-time view over it (:meth:`Extractor.finalize_states`).  With a
    :class:`UnitBehaviorCache` configured the sweep is kept in the tier,
    so its entries reuse across runs regardless of which groups were
    active when they were filled.
    """

    def __init__(self, dataset: Dataset, hypotheses: list[HypothesisFunction],
                 groups: list[UnitGroup], default_extractor: Extractor,
                 config: InspectConfig, order: np.ndarray):
        self.dataset = dataset
        self.hypotheses = hypotheses
        self.groups = groups
        self.default_extractor = default_extractor
        self.config = config
        self.order = order
        self.materialize = config.mode in ("materialized", "full")
        self._h_all: np.ndarray | None = None
        self._u_all: dict[int, np.ndarray] | None = None
        self._keys: list[tuple[object, str]] = []

    def key_of(self, obj, compute) -> str:
        """``compute(obj)`` — a model's fingerprint, an extractor's raw key
        — once per plan execution, so warm cache hits don't re-hash model
        parameters (or large extractor attributes) on every block.  Found
        by identity: each entry pins its referent, an address is no key."""
        for pinned, key in self._keys:
            if pinned is obj:
                return key
        self._keys.append((obj, compute(obj)))
        return self._keys[-1][1]

    # -- plumbing ------------------------------------------------------
    @property
    def n_records(self) -> int:
        return int(self.order.shape[0])

    def stores(self) -> list:
        """The distinct disk stores this run reads and writes: the ones its
        memory tiers were built over (usually one, or none)."""
        found = [tier.store for tier in (self.config.cache,
                                         self.config.unit_cache)
                 if tier is not None and tier.store is not None]
        if len(found) == 2 and found[0] is found[1]:
            found.pop()
        return found

    def block_slices(self):
        """Record-position slices the executor iterates over."""
        if self.config.mode == "full":
            yield slice(0, self.n_records)
            return
        yield from iter_blocks(self.n_records, self.config.block_size)

    def _extract_units_for_pair(self, members: list[tuple[int, UnitGroup]],
                                indices: np.ndarray) -> dict[int, np.ndarray]:
        """One forward sweep for all groups sharing a (model, raw-key) pair.

        Members may carry *different* extractors — the grouping key is the
        raw sweep identity, so extractors differing only in transform,
        layer view or unit subset are fused here: the model runs once and
        each member's behaviors are derived as read-time views.
        """
        _, first = members[0]
        model = first.model
        out: dict[int, np.ndarray] = {}
        if self.config.unit_cache is not None:
            # cache raw behaviors at full width: entry keys stay independent
            # of the transform, the unit subset and which groups happen to
            # be active, so warm hits survive different views and
            # convergence trajectories; views are applied on read.  The
            # first extractor's miss runs the sweep; the rest hit memory.
            by_ext: dict[int, tuple[Extractor, list]] = {}
            for gi, group in members:
                ext = group.extractor or self.default_extractor
                by_ext.setdefault(id(ext), (ext, []))[1].append((gi, group))
            for ext, ext_members in by_ext.values():
                # members reading the same units (the one group every SQL
                # statement compiles to) have the read-time view select
                # them once, before the transform; members that differ
                # share one full-width read
                ids = ext_members[0][1].unit_ids
                shared = all(np.array_equal(group.unit_ids, ids)
                             for _, group in ext_members[1:])
                block = self.config.unit_cache.extract(
                    model, ext, self.dataset, indices,
                    hid_units=ids if shared else None,
                    model_key=self.key_of(model, model_fingerprint),
                    raw_key=self.key_of(ext, Extractor.raw_key))
                for gi, group in ext_members:
                    out[gi] = block if shared else block[:, group.unit_ids]
            return out
        # no tier to share through: one full-width sweep of the pair, and
        # each member's block is the read-time view the tier would apply
        rep = first.extractor or self.default_extractor
        with span("sweep", first.model_id):
            raw = rep.raw_rows(model, self.dataset.symbols[indices])
        states = raw.reshape(-1, self.dataset.n_symbols, raw.shape[-1])
        for gi, group in members:
            ext = group.extractor or self.default_extractor
            out[gi] = ext.finalize_states(
                states, ext.raw_columns(model, group.unit_ids))
        return out

    def extraction_pairs(self, groups: list[tuple[int, UnitGroup]] | None
                         = None) -> dict:
        """Members grouped by shared (model, raw-sweep) identity.

        Each key is one forward sweep — extractors differing only in
        transform, layer view or unit subset fuse under one key — and
        carries the ``(gi, group)`` members it serves: one future of
        :meth:`submit_sweeps` per key.
        """
        if groups is None:
            groups = list(enumerate(self.groups))
        by_pair: dict[tuple[int, str], list[tuple[int, UnitGroup]]] = {}
        for gi, group in groups:
            ext = group.extractor or self.default_extractor
            raw_key = self.key_of(ext, Extractor.raw_key)
            by_pair.setdefault((id(group.model), raw_key),
                               []).append((gi, group))
        return by_pair

    def submit_sweeps(self, groups: list[tuple[int, UnitGroup]],
                      indices: np.ndarray,
                      scheduler: Scheduler) -> list[Future]:
        """Unit extraction for ``indices``: one future per extraction pair,
        each resolving to that pair's ``{gi: block}``, submitted in pair
        order from the calling thread, never from inside a worker, so a
        pool spreads the pairs over every worker it has (an inline
        scheduler sweeps each at submission)."""
        return [scheduler.submit(
                    lambda m=members: self._extract_units_for_pair(m, indices))
                for members in self.extraction_pairs(groups).values()]

    # -- executor interface --------------------------------------------
    def prepare(self, scheduler: Scheduler) -> None:
        if not self.materialize:
            return
        with span("hypothesis_extraction"):
            self._h_all, _ = _extract_hypotheses(
                self.hypotheses, self.dataset, self.order, self.config.cache)
        with span("unit_extraction"), gathering(self.submit_sweeps(
                list(enumerate(self.groups)), self.order,
                scheduler)) as gather:
            self._u_all = {gi: block for pair in gather()
                           for gi, block in pair.items()}

    def hypothesis_block(self, sl: slice,
                         columns: np.ndarray | None = None,
                         moments: bool = False) -> tuple:
        """Hypothesis behaviors for the slice, and their moments thunk
        (``None`` unless a hypothesis cache gathered the block).

        ``columns`` narrows lazy extraction to the still-active hypothesis
        columns (the hypothesis-side mirror of ``hid_units``): frozen
        hypotheses are not re-evaluated for the remaining blocks.  Ignored
        when materialized — everything was extracted up front.
        ``moments`` sums the block's moments here, on the calling thread,
        for a caller whose score tasks will read them.
        """
        ns = self.dataset.n_symbols
        if self.materialize:
            assert self._h_all is not None
            return self._h_all[sl.start * ns:sl.stop * ns], None
        hyps = (self.hypotheses if columns is None
                else [self.hypotheses[int(c)] for c in columns])
        with span("hypothesis_extraction"):
            block, thunk = _extract_hypotheses(
                hyps, self.dataset, self.order[sl], self.config.cache)
            if moments and thunk is not None:
                thunk()
            return block, thunk

    def unit_blocks(self, sl: slice, groups: list[tuple[int, UnitGroup]]
                    ) -> dict[int, np.ndarray]:
        """Materialized unit behaviors for the slice (a streamed block's
        are swept through :meth:`submit_sweeps`)."""
        ns = self.dataset.n_symbols
        return {gi: self._u_all[gi][sl.start * ns:sl.stop * ns]
                for gi, _ in groups}

    def describe(self) -> str:
        parts = [f"materialize={self.materialize}",
                 f"block_size={self.config.block_size}",
                 f"hyp_cache={'on' if self.config.cache else 'off'}",
                 f"unit_cache={'on' if self.config.unit_cache else 'off'}",
                 f"store={'on' if self.stores() else 'off'}"]
        return f"BehaviorSource({', '.join(parts)})"
