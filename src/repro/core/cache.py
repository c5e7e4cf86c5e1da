"""Tiered behavior caches (Section 5.1.2 / Figure 9).

During model development one side of the inspection workload is usually
fixed while the other changes, so behaviors can be extracted once and reused
across inspection runs:

* :class:`HypothesisCache` — the hypothesis library is fixed while models
  are retrained.  Entries are keyed by (dataset content hash, hypothesis
  content identity — ``cache_key()``).  Everything cached for one dataset
  sits in one symbol-major **arena** (row ``r * ns + t`` = record ``r``,
  symbol ``t``; one column per hypothesis, plus a per-column fill mask) —
  Section 5.2's "all hypotheses in one matrix", kept between statements —
  so a block of the hypothesis matrix is one row gather under the lock
  (:meth:`HypothesisCache.extract_block`): from a column slice when the
  request is an ascending run of the arena's columns, plus one ``take``
  when it is a scattered subset or a permutation.  Reads are owned arrays,
  never views into the arena; cold cells are evaluated in the block being
  returned (:func:`repro.hypotheses.base.extract_columns`: one call per
  set of columns missing the same records, a family's members in one pass)
  and commit as one stacked write; the LRU and the byte budget work on
  columns.
* :class:`UnitBehaviorCache` — the model is fixed while hypotheses, measures
  or thresholds change (interactive debugging).  Entries hold the **raw**
  (untransformed, full-width) activations keyed by (model parameter
  fingerprint, raw extractor identity, dataset content hash); the behavior
  transform, layer views and ``hid_units`` selection are applied lazily on
  read via :meth:`repro.extract.base.Extractor.finalize_states`, the view
  every other extraction path applies too.  K extractors that differ only
  in those view attributes therefore trigger exactly one forward sweep and
  share one entry.

Both caches are *memory tiers* over a common store protocol: give them a
:class:`repro.store.DiskBehaviorStore` and every extraction is written
through to memory-mapped shards on disk, while misses consult the disk tier
before running the extractor — a second process (or a restarted session)
serves previously-inspected workloads with zero model forward passes and
zero hypothesis evaluations (the hypothesis tier writes each evaluation
through as one *panel* and reads with one gather per panel touched).
Both tiers fill at record granularity, so streaming runs that stopped
early still contribute partial contents, and the memory tiers are
byte-bounded, lock-protected LRUs the thread-pool scheduler can share.

In the connection-style API one :class:`repro.session.Session` owns a pair
of these caches and threads them through every Python-builder and SQL
query it executes, so interleaved queries share each extraction, also when
they arrive cold and together: the first read to find a unit entry cold
claims its sweep, the first to find a panel's cells cold claims their
columns, and the first block to miss a score task's statistics claims
them — one helper, :class:`_Claims`, and one timeout, :data:`LEASE_WAIT_S`.
:meth:`_ByteBoundedLRU.reset_counters` zeroes the observability counters
without dropping the cached behaviors.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import threading
import weakref
from collections import OrderedDict

import numpy as np

from repro.data.datasets import Dataset
from repro.extract.base import Extractor
from repro.hypotheses.base import HypothesisFunction, extract_columns
from repro.store import DiskBehaviorStore
from repro.util.debuglog import degraded
from repro.util.trace import current, span


#: process-unique tokens for parameter-less models (id() can be recycled
#: after garbage collection, so raw id() may alias two different models)
_FALLBACK_TOKENS = itertools.count()

#: tokens for models that cannot be stamped (slots/frozen); keyed weakly
#: so the token dies with the model and can never alias a successor
_UNSTAMPABLE_TOKENS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: seconds any claim's waiter (:class:`_Claims`: a sweep, a panel's
#: labelling, a block's statistics) waits before doing the work itself: a
#: stalled claimant costs duplicate work, not a wedged statement
LEASE_WAIT_S = 120.0


def _compact(identity: str, max_len: int = 64) -> str:
    """Bound an identity string for use inside persistent store keys.

    Long content identities (recursive attribute walks) keep a readable
    prefix plus a content digest, so manifests stay small without losing
    exactness.
    """
    if len(identity) <= max_len:
        return identity
    digest = hashlib.sha1(identity.encode()).hexdigest()[:16]
    return f"{identity[:40]}...{digest}"


def hyp_store_key(dataset_key: str, identity: str) -> str:
    """Persistent *member* key of one (dataset, hypothesis) column: what a
    store panel lists per column and what a reader asks the store for."""
    return f"hyp/{dataset_key}/{_compact(identity)}"


def panel_store_key(dataset_key: str, members: list[str]) -> str:
    """Persistent store key of the panel whose columns are exactly
    ``members``: the same columns, block after block, extend one entry."""
    digest = hashlib.sha1("\n".join(members).encode()).hexdigest()[:16]
    return f"panel/{dataset_key}/{len(members)}x{digest}"


def unit_store_key(model_key: str, raw_key: str, dataset_key: str) -> str:
    """Persistent store key for one (model, raw sweep, dataset) entry."""
    return f"unit/{model_key}/{_compact(raw_key)}/{dataset_key}"


def model_id(model) -> str:
    """What the model calls itself (its class name when it does not)."""
    return getattr(model, "model_id", type(model).__name__)


def _param_digest(values: list[np.ndarray]) -> str:
    """SHA-1 over parameter arrays: shape, dtype unless float64, and the
    float64 bytes of each (float64 keys, and the stores written under them,
    stay what they were)."""
    digest = hashlib.sha1()
    for raw in values:
        value = np.ascontiguousarray(raw, dtype=np.float64)
        digest.update(str(value.shape).encode())
        if raw.dtype != np.float64:
            # equal values in another dtype behave differently
            digest.update(str(raw.dtype).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


#: unsigned integer words, by width: how :func:`_same_bytes` reads a dtype
_WORDS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _same_bytes(kept: np.ndarray, value: np.ndarray) -> bool:
    """Shape, dtype and every byte equal — ``-0.0`` is not ``0.0``, a NaN
    equals its own bit pattern — compared as unsigned words of the dtype's
    width, so the one temporary is a bool per element.  Other widths and
    object arrays never compare equal: they are hashed on every call."""
    word = _WORDS.get(kept.dtype.itemsize)
    return (word is not None and not kept.dtype.hasobject
            and kept.shape == value.shape and kept.dtype == value.dtype
            and bool((kept.view(word) == value.view(word)).all()))


def model_fingerprint(model) -> str:
    """Content identity of a model for unit-behavior caching.

    Hashes the parameter tensors when the model exposes a ``parameters()``
    walk (every :class:`repro.nn.Module` does), so retraining — even in
    place — invalidates cached behaviors.  The model keeps a copy of the
    arrays last hashed beside their digest (``_repro_param_digest``): a
    later call compares the live parameters with that copy byte for byte
    and hashes again only when one differs.  The digest is taken of the
    copy, never of the live arrays, so a write racing the call can cost a
    re-hash but never pair a digest with other bytes.  Parameter-less
    models get a process-unique token stamped onto the object, so a model
    allocated at a recycled address never aliases a dead one.
    """
    mid = model_id(model)
    params = getattr(model, "parameters", None)
    if callable(params):
        try:
            values = [np.asarray(getattr(param, "value", param))
                      for param in params()]
            kept = getattr(model, "_repro_param_digest", None)
            if kept is None or len(kept[0]) != len(values) or not all(
                    map(_same_bytes, kept[0], values)):
                copies = [value.copy() for value in values]
                kept = (copies, _param_digest(copies))
                try:
                    model._repro_param_digest = kept
                except (AttributeError, TypeError):
                    pass   # unstampable: hashed on every call
            return f"{mid}:{kept[1]}"
        except (TypeError, AttributeError):
            pass
    token = getattr(model, "_repro_cache_token", None)
    if token is None:
        try:
            token = _UNSTAMPABLE_TOKENS.get(model)
        except TypeError:  # unhashable / not weakly referenceable
            token = None
    if token is None:
        token = f"{mid}#{next(_FALLBACK_TOKENS)}"
        try:
            model._repro_cache_token = token
        except (AttributeError, TypeError):
            try:
                _UNSTAMPABLE_TOKENS[model] = token
            except TypeError:
                # nowhere to pin an identity: fresh token per call, so the
                # model re-extracts (slow) but can never alias another
                # object's cached behaviors the way raw id() could
                degraded("cache.fingerprint-unstable", mid)
    return token


def _column_nbytes(n_records: int, n_symbols: int) -> int:
    """Bytes one cached hypothesis accounts for: a float64 arena column
    plus its row of the fill mask."""
    return n_records * n_symbols * 8 + n_records


class _Arena:
    """One dataset's hypothesis behaviors, laid side by side (Section 5.2).

    A float64 symbol-major matrix — row ``r * ns + t`` is record ``r``,
    symbol ``t``, the row order every extractor emits; one column per
    cached hypothesis — held as ``(n_records, ns, capacity)`` so a record's
    ``ns`` rows move as one run, plus a ``(capacity, n_records)`` fill
    mask.  Columns are recycled: ``free`` lists the ones no hypothesis
    owns.  A cell is read only where its mask is set (a block's cold
    cells are written over before it leaves the tier), so the matrix
    grows uninitialised: zeroing reused memory is a memset under the GIL,
    which stalls every sweep in flight (≈ 1.5 ms for 1,024 records x 30
    symbols x 72 columns).  Not thread-safe — the owning tier calls every
    method under its lock.
    """

    def __init__(self, dataset_key: str, n_records: int, n_symbols: int):
        self.dataset_key = dataset_key
        self.cells = np.zeros((n_records, n_symbols, 0))
        self.filled = np.zeros((0, n_records), dtype=bool)
        self.free: list[int] = []
        self.live = 0  # hypotheses holding (or about to claim) a column

    def claim(self, n: int, ceiling: int) -> list[int]:
        """Take ``n`` unowned columns, lowest first (so a hypothesis list
        declared together lands on one ascending run), growing the matrix
        when the free list runs short: to exactly what is asked for, or by
        half — single-column callers must not regrow per call — while that
        stays under ``ceiling`` columns."""
        short = n - len(self.free)
        if short > 0:
            n_records, n_symbols, old = self.cells.shape
            new = max(old + short, min(old + old // 2, ceiling))
            cells = np.empty((n_records, n_symbols, new))
            cells[:, :, :old] = self.cells
            filled = np.zeros((new, n_records), dtype=bool)
            filled[:old] = self.filled
            self.cells, self.filled = cells, filled
            self.free.extend(range(old, new))
        self.free.sort()
        taken = self.free[:n]
        del self.free[:n]
        return taken

    def release(self, col: int) -> None:
        """Return a column; its fill mask is cleared so the next owner
        never sees this one's rows."""
        self.filled[col] = False
        self.free.append(col)
        self.live -= 1

    def _window(self, cols: np.ndarray):
        """The narrowest contiguous column window holding ``cols`` (a view)
        and their positions inside it — ``None`` when ``cols`` *is* the
        window, left to right."""
        lo, hi = int(cols.min()), int(cols.max()) + 1
        window = self.cells[:, :, lo:hi]
        if hi - lo == cols.shape[0] and (np.diff(cols) == 1).all():
            return window, None
        return window, cols - lo

    def gather(self, records: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Owned ``(len(records) * ns, len(cols))`` block: one row gather,
        plus one ``take`` when ``cols`` is not an ascending run."""
        window, local = self._window(cols)
        block = window[records]
        block = block.reshape(block.shape[0] * block.shape[1], block.shape[2])
        return block if local is None else block.take(local, axis=1)

    def scatter(self, records: np.ndarray, cols: np.ndarray,
                values: np.ndarray) -> None:
        """One stacked write of ``values`` ``(len(records), ns, len(cols))``
        and the matching fill-mask cells."""
        window, local = self._window(cols)
        if local is None:
            window[records] = values
        else:
            window[records[:, None], :, local] = values.transpose(0, 2, 1)
        self.filled[cols[:, None], records] = True


class _ByteBoundedLRU:
    """Shared plumbing for the two behavior caches: a lock-protected,
    byte-bounded LRU memory tier with hit/miss accounting and an optional
    persistent tier underneath.  Subclass helpers must be called while
    holding ``self._lock``."""

    def __init__(self, max_bytes: int,
                 store: DiskBehaviorStore | None = None):
        self.max_bytes = max_bytes
        self.store = store
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0  # running total of entry.nbytes
        self._lock = threading.Lock()
        self.hits = 0      # records served from memory-tier rows
        self.misses = 0    # records absent from the memory tier
        self.disk_hits = 0    # records served from the disk tier
        self.disk_misses = 0  # records absent from both tiers
        self.extractions = 0  # underlying extractor invocations

    def _evict(self) -> None:
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self._release(evicted)

    def _release(self, entry) -> None:
        """An entry left the map (eviction): free what it held."""

    def _count(self, **moved: int) -> None:
        """Move this tier's counters (the lock is held), and the same
        counters of the trace span the caller runs under."""
        on_span = current()
        for name, n in moved.items():
            if n:
                setattr(self, name, getattr(self, name) + n)
                on_span.count(name, n)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "disk_hits": self.disk_hits,
                "disk_misses": self.disk_misses,
                "extractions": self.extractions,
                "entries": len(self._entries),
                "bytes": self._bytes}

    def _reset_counters_locked(self) -> None:
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.extractions = 0

    def reset_counters(self) -> None:
        """Zero the hit/miss/extraction counters, keeping every entry.

        Cached behaviors stay warm — only the observability counters
        restart, so callers can assert what one *specific* query cost
        (e.g. "the second query on this model performed zero
        extractions") instead of diffing running totals.
        """
        with self._lock:
            self._reset_counters_locked()

    def _clear_locked(self) -> None:
        self._entries.clear()
        self._bytes = 0
        self._reset_counters_locked()

    def clear(self) -> None:
        """Drop the memory tier (the disk tier, if any, is untouched)."""
        with self._lock:
            self._clear_locked()


class _Claims(dict):
    """Single-flight for one tier: claimed key -> the event set when its
    claimant is done (unit sweeps, ``_inflight``; block statistics,
    ``_computing``; panel columns being labelled, ``_labelling``).

    :meth:`hold` probes under the tier's lock and claims every cold key the
    probe names, or none while another call holds any: then it counts a
    wait (the tier's ``waits``), waits outside the lock and probes again.
    A wait past :data:`LEASE_WAIT_S` emits the tier's ``degraded`` event
    and proceeds unclaimed.  Claims end, waking their waiters, however the
    block ends.  No wait closes a cycle: a sweep or panel claimant never
    waits on any claim while it holds one (it sweeps or labels, probing no
    tier); only a block's statistics claim spans waits, on the other two
    kinds, and no sweep or panel claimant waits on a statistics claim.
    """

    def __init__(self, waits: str, event: str):
        super().__init__()
        self._waits, self._event = waits, event

    @contextlib.contextmanager
    def hold(self, tier: _ByteBoundedLRU, probe, settle=None):
        """``probe()`` returns ``(cold keys, found)`` under ``tier``'s lock;
        the block gets the last ``found``, as ``settle(found, waited,
        timed_out, claimed)`` makes it in that lock hold (a tier counts).
        The tier is passed, not kept: a kept one would make a reference
        cycle, and a dropped tier's arenas would wait for the collector."""
        waited = timed_out = False
        while True:
            with tier._lock:
                cold, found = probe()   # repro: allow[REP002]
                busy = [self[key] for key in cold if key in self]
                if not busy or timed_out:
                    claimed = [] if busy else list(dict.fromkeys(cold))
                    self.update((key, threading.Event()) for key in claimed)
                    if settle is not None:
                        found = settle(  # repro: allow[REP002]
                            found, waited, timed_out, bool(claimed))
                    break
                tier._count(**{self._waits: 1})
            waited, timed_out = True, not busy[0].wait(LEASE_WAIT_S)
            if timed_out:
                degraded(self._event)
        try:
            yield found
        finally:
            if claimed:
                with tier._lock:
                    released = [self.pop(key) for key in claimed]
                for event in released:
                    event.set()


class _Column:
    """A cached hypothesis: the handle of one column of its dataset's
    arena.  Keeps the compacted store key, so a store-backed session
    digests each identity once rather than once per block."""

    __slots__ = ("arena", "identity", "col", "_store_key")

    def __init__(self, arena: _Arena, identity: str):
        self.arena = arena
        self.identity = identity
        self.col: int | None = None  # claimed right after creation
        self._store_key: str | None = None

    @property
    def nbytes(self) -> int:
        n_records, n_symbols, _ = self.arena.cells.shape
        return _column_nbytes(n_records, n_symbols)

    def store_key(self) -> str:
        if self._store_key is None:
            self._store_key = hyp_store_key(self.arena.dataset_key,
                                            self.identity)
        return self._store_key


#: bytes of score-task block statistics a hypothesis tier keeps: a block's
#: cross moments grow with units x hypotheses (about 9 KB at 16 x 72)
_STAT_BYTES = 16 * 1024 * 1024


class HypothesisCache(_ByteBoundedLRU):
    """Byte-bounded LRU over hypothesis behaviors, one arena per dataset.

    All hypotheses cached for a dataset share one symbol-major matrix
    (:class:`_Arena`), so a block of the hypothesis matrix ``H`` is one
    row gather (:meth:`extract_block`) instead of a per-hypothesis loop.
    ``_entries`` maps ``(dataset hash, hypothesis content identity)`` to a
    column handle: the LRU order, the byte budget and
    ``stats()["entries"]`` / ``["bytes"]`` are per hypothesis.  Eviction
    frees a column for the next hypothesis to reuse (the matrix keeps its
    width); an arena whose last column goes is dropped.
    """

    def __init__(self, max_bytes: int = 512 * 1024 * 1024,
                 store: DiskBehaviorStore | None = None):
        super().__init__(max_bytes, store=store)
        self._arenas: dict[str, _Arena] = {}
        # score-task key -> one block's sufficient statistics, LRU within
        # _STAT_BYTES (:meth:`block_stats`)
        self._stat_memo: OrderedDict = OrderedDict()
        self._stat_bytes = 0
        self._computing = _Claims("stat_waits", "cache.stat-wait-timeout")
        self._labelling = _Claims("panel_waits", "cache.panel-wait-timeout")
        self.stat_hits = 0      # task blocks folded from kept statistics
        self.stat_misses = 0    # task blocks whose statistics were computed
        self.stat_waits = 0     # waits on another block's computation
        self.panel_waits = 0    # waits on another read's labelling

    # ------------------------------------------------------------------
    @staticmethod
    def _hypothesis_identity(hypothesis) -> str:
        """Content identity when exposed; the bare name otherwise.

        Persisting under the name alone would let an edited hypothesis
        silently serve a previous session's behaviors.
        """
        key_of = getattr(hypothesis, "cache_key", None)
        if callable(key_of):
            return key_of()
        return getattr(hypothesis, "name", type(hypothesis).__name__)

    def _release(self, column: _Column) -> None:
        arena = column.arena
        arena.release(column.col)
        if arena.live == 0:
            del self._arenas[arena.dataset_key]

    def _clear_locked(self) -> None:
        super()._clear_locked()
        self._arenas.clear()
        self._stat_memo.clear()
        self._stat_bytes = 0

    def stats(self) -> dict[str, int]:
        return {**super().stats(), "stat_hits": self.stat_hits,
                "stat_misses": self.stat_misses,
                "stat_waits": self.stat_waits,
                "panel_waits": self.panel_waits}

    def _reset_counters_locked(self) -> None:
        super()._reset_counters_locked()
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_waits = 0
        self.panel_waits = 0

    def _panel_width(self, dataset: Dataset) -> int:
        """Columns of this dataset the byte budget holds at once."""
        return max(1, self.max_bytes // _column_nbytes(dataset.n_records,
                                                       dataset.n_symbols))

    def _columns(self, dataset: Dataset, keys: list[tuple]
                 ) -> tuple[_Arena, list[_Column], np.ndarray]:
        """The arena, column handles and column ids behind ``keys`` (at
        most a panel of them), most recently used last.

        Hypotheses the tier does not hold (never seen, or evicted since)
        are given columns: least-recently-used ones are evicted first, so
        freed columns are reused before the matrix grows.
        """
        dataset_key = keys[0][0]
        arena = self._arenas.get(dataset_key)
        if arena is None:
            arena = self._arenas[dataset_key] = _Arena(
                dataset_key, dataset.n_records, dataset.n_symbols)
        columns, fresh = [], []
        for key in keys:
            column = self._entries.get(key)
            if column is None:
                column = self._entries[key] = _Column(arena, key[1])
                self._bytes += column.nbytes
                arena.live += 1
                fresh.append(column)
            self._entries.move_to_end(key)
            columns.append(column)
        if fresh:
            self._evict()
            taken = arena.claim(len(fresh), self._panel_width(dataset))
            for column, col in zip(fresh, taken):
                column.col = col
        return arena, columns, np.array([c.col for c in columns], dtype=int)

    # ------------------------------------------------------------------
    def extract(self, hypothesis: HypothesisFunction, dataset: Dataset,
                indices: np.ndarray) -> np.ndarray:
        """Behavior rows for ``indices``, computing only the missing ones:
        the one-column case of :meth:`extract_block`."""
        block = self.extract_block([hypothesis], dataset, indices)
        return block.reshape(-1, dataset.n_symbols)

    def extract_block(self, hypotheses: list, dataset: Dataset,
                      indices: np.ndarray) -> np.ndarray:
        """The ``(len(indices) * ns, len(hypotheses))`` block of the
        hypothesis matrix, computing only the missing cells.

        Byte for byte ``np.stack([h.extract(dataset, indices).reshape(-1)
        for h in hypotheses], axis=1)`` as float64.  The block is owned by
        the caller — gathered under the lock, never a view into the arena
        — so a column evicted and recycled later cannot alias it.  (A
        freshly evaluated block is also what an open ``deferred_commits``
        scope of the store commits after its exit, uncopied: read-only
        until that commit ends.)  A request wider than the byte budget is
        served panel by panel, so the tier never holds more than
        ``max_bytes`` beside it.
        Cells the disk tier serves are float64 too, whatever width their
        panel has on disk (see :meth:`_read_store_panels`).
        """
        indices = np.asarray(indices, dtype=int)
        hypotheses = list(hypotheses)
        panel = self._panel_width(dataset)
        if len(hypotheses) <= panel:
            return self._read_panel(hypotheses, dataset, indices)
        block = np.empty((indices.shape[0] * dataset.n_symbols,
                          len(hypotheses)))
        for start in range(0, len(hypotheses), panel):
            block[:, start:start + panel] = self._read_panel(
                hypotheses[start:start + panel], dataset, indices)
        return block

    def block_stats(self, keys: list):
        """Within the block: the statistics kept under each of ``keys``
        (``None`` where none are), the missing ones claimed for the block
        to compute (the task that folds or keeps them counts,
        :meth:`count_stats`).  ``keys`` name a block's score-task
        computations by content, never a slice of a wider product, whose
        last bits depend on its shape
        (:meth:`repro.core.plan.InspectionPlan.stat_key`)."""
        def probe():
            found = [self._stat_memo.get(key) for key in keys]
            for key, stats in zip(keys, found):
                if stats is not None:
                    self._stat_memo.move_to_end(key)
            return [key for key, stats in zip(keys, found)
                    if stats is None], found
        return self._computing.hold(self, probe)

    def keep_block_stats(self, key, stats: tuple) -> None:
        """Keep a block's freshly computed statistics (read-only from
        here on) and count the miss.  Two tasks may compute one key (twin
        models in a statement, or a timed-out wait), and their values are
        bit-equal."""
        nbytes = sum(part.nbytes for part in stats)
        for part in stats:
            part.setflags(write=False)
        with self._lock:
            self._count(stat_misses=1)
            if key in self._stat_memo or nbytes > _STAT_BYTES:
                return
            self._stat_memo[key] = stats
            self._stat_bytes += nbytes
            while self._stat_bytes > _STAT_BYTES:
                _, gone = self._stat_memo.popitem(last=False)
                self._stat_bytes -= sum(part.nbytes for part in gone)

    def count_stats(self) -> None:
        """Count one block folded from kept statistics."""
        with self._lock:
            self._count(stat_hits=1)

    def _read_panel(self, hypotheses: list, dataset: Dataset,
                    indices: np.ndarray) -> np.ndarray:
        n, ns, k = indices.shape[0], dataset.n_symbols, len(hypotheses)
        if k == 0:
            return np.empty((n * ns, 0))
        # ``_entries`` keys, outside the lock (an identity may be a
        # first-time content walk)
        dataset_key = dataset.cache_key()
        keys = [(dataset_key, self._hypothesis_identity(hypothesis))
                for hypothesis in hypotheses]

        def probe():
            arena, columns, cols = self._columns(dataset, keys)
            have = arena.filled[cols].take(indices, axis=1)
            return ([keys[j] for j in np.flatnonzero(~have.all(axis=1))],
                    (arena, columns, cols, have))

        def settle(found, *_):
            arena, columns, cols, have = found
            n_hit = int(np.count_nonzero(have))
            self._count(hits=n_hit, misses=have.size - n_hit)
            return columns, have, (arena.gather(indices, cols) if n_hit
                                   else np.empty((n * ns, k)))  # filled below

        with self._lock:
            cold, found = probe()
            if not cold:
                return settle(found)[2]

        # cold columns are claimed and filled in the caller's block: the
        # disk tier per panel, then one evaluation per set of columns still
        # missing the same records; none is written through until all are
        with self._labelling.hold(self, probe, settle) as found:
            columns, have, block = found
            cells = block.reshape(n, ns, k)
            cold = np.flatnonzero(~have.all(axis=1))
            absent = ~have[cold]
            if self.store is not None:
                cells = self._read_store_panels(
                    [columns[j].store_key() for j in cold], cold, absent,
                    indices, cells)
            extracted = [(at, np.array(js)) for at, js
                         in _same_records(absent, cold) if at.shape[0]]
            for at, js in extracted:
                whole = at.shape[0] == n and len(js) == k
                fresh = extract_columns([hypotheses[j] for j in js], dataset,
                                        indices[at],
                                        out=cells if whole else None)
                if not whole:
                    _assign(cells, at, js, fresh)
            if self.store is not None:
                # one panel per evaluation: on a cold run the block, uncopied
                for at, js in extracted:
                    members = [columns[j].store_key() for j in js]
                    rows = cells[_span(at)][:, :, _span(js)]
                    self.store.append(
                        panel_store_key(dataset_key, members), indices[at],
                        rows.reshape(at.shape[0], -1), dataset.n_records,
                        members=members)
            with self._lock:
                self._count(extractions=sum(len(js) for _, js in extracted))
                # resolved again: an insert may have recycled columns
                arena, _, cols = self._columns(dataset, keys)
                for at, js in _same_records(~have[cold], cold):
                    values = cells if at.shape[0] == n else cells[at]
                    if len(js) < k:
                        values = values[:, :, js]
                    arena.scatter(indices[at], cols[js], values)
        return cells.reshape(n * ns, k)

    def _read_store_panels(self, members: list[str], js: np.ndarray,
                           absent: np.ndarray, indices: np.ndarray,
                           cells: np.ndarray) -> np.ndarray:
        """Fill what the disk tier holds of the ``absent`` cells — a
        ``(len(js), n)`` mask over columns ``js`` (member keys ``members``)
        of ``cells``, cleared where served — with one gather per panel
        touched, and count every consulted (hypothesis, record) as a disk
        hit or miss.  Returns the cells: the gather itself when one panel
        holds the whole block.  Runs outside the lock.

        A panel on disk may be narrower than float64 (a ``uint8`` shard of
        0/1 labels, or whatever a public ``append`` wrote): the cells are
        float64 either way — a gather adopted whole is widened once, a
        partial one is cast by the assignment into ``cells``."""
        ns = cells.shape[1]
        consulted = int(np.count_nonzero(absent))
        for reader, pos, pcols in self.store.panels(members, ns):
            need = absent[pos] & reader.filled_mask(indices)
            for at, sel in _same_records(need, np.arange(pos.shape[0])):
                if not at.shape[0]:
                    continue
                sel = np.array(sel)
                values = reader.rows(indices[at]).reshape(
                    at.shape[0], ns, -1)[:, :, _span(pcols[sel])]
                absent[pos[sel][:, None], at] = False
                if values.shape == cells.shape and (
                        values.flags.c_contiguous
                        or values.dtype != np.float64):
                    # a narrow panel is widened here, once
                    cells = np.ascontiguousarray(values, dtype=np.float64)
                else:
                    _assign(cells, at, js[pos[sel]], values)
        served = consulted - int(np.count_nonzero(absent))
        with self._lock:
            self._count(disk_hits=served, disk_misses=consulted - served)
        return cells


def _span(ids: np.ndarray):
    """``ids`` as a slice when they are an ascending run, else as given."""
    run = ids.shape[0] and (np.diff(ids) == 1).all()
    return slice(int(ids[0]), int(ids[-1]) + 1) if run else ids


def _assign(cells: np.ndarray, at: np.ndarray, js: np.ndarray,
            values: np.ndarray) -> None:
    """``cells[at, :, js] = values`` for ``(len(at), ns, len(js))`` values
    — a slice assignment wherever ``at`` or ``js`` is a run."""
    recs, cols = _span(at), _span(js)
    if isinstance(recs, slice) or isinstance(cols, slice):
        cells[recs, :, cols] = values
    else:
        cells[at[:, None], :, js] = values.transpose(0, 2, 1)


def _same_records(masks: np.ndarray, js: np.ndarray) -> list:
    """Columns ``js`` grouped by equal rows of ``masks``: one ``(positions
    the row marks, its columns)`` pair per distinct row."""
    together: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for mask, j in zip(masks, js.tolist()):
        group = together.get(key := mask.tobytes())
        if group is None:   # positions only for a row not seen before
            group = together[key] = (np.flatnonzero(mask), [])
        group[1].append(j)
    return list(together.values())


class _UnitEntry:
    """Unit-major raw unit behaviors, ``(raw_width, n_records, ns)``: the
    layout scoring reads (a read is one gather) and the layout the disk
    tier stores, so only an extractor's record-major sweep is transposed,
    once, on fill; dtype follows the first committed rows (the model's
    dtype).  A matrix that is read-only is a store shard holding every
    record, mapped: :attr:`mapped`, and nothing is ever written into it."""

    def __init__(self, n_records: int, n_symbols: int):
        self.n_symbols = n_symbols
        self.matrix: np.ndarray | None = None  # allocated on first fill
        self.filled = np.zeros(n_records, dtype=bool)
        self.store_key: str | None = None  # compacted once, on first use

    @property
    def mapped(self) -> bool:
        """Whether the matrix maps the whole entry from the disk tier."""
        return self.matrix is not None and not self.matrix.flags.writeable

    @property
    def nbytes(self) -> int:
        matrix_bytes = 0 if self.matrix is None else self.matrix.nbytes
        return matrix_bytes + self.filled.nbytes

    def states(self, records: np.ndarray,
               columns: np.ndarray) -> np.ndarray:
        """Array for array what ``raw[:, :, columns]`` selects from the
        record-major ``(len(records), ns, width)`` sweep: a fancy index
        lays its result out unit-major."""
        return self.matrix[columns[:, None], records].transpose(1, 2, 0)


class UnitBehaviorCache(_ByteBoundedLRU):
    """Byte-bounded LRU over extracted raw unit behaviors.

    The mirror image of :class:`HypothesisCache` for the other half of the
    Figure 9 story: repeated inspection runs against the *same* model (new
    hypotheses, different measures, thresholds, transforms or unit subsets)
    skip the forward passes entirely.  Keys carry the model's parameter
    fingerprint, the extractor's
    :meth:`~repro.extract.base.Extractor.raw_key` and the dataset content
    hash — deliberately *not* the transform or unit selection, which are
    read-time views — so a retrained model or a different architecture
    never aliases, while every view over one sweep shares one entry.

    An entry's matrix spans the whole dataset at raw width (the fill mask
    is what makes partial streaming runs reusable), so ``max_bytes`` is
    accounted at full-matrix size.  Only records the mask marks are ever
    read, so the matrix is allocated uninitialised, as the hypothesis
    arena is.
    """

    def __init__(self, max_bytes: int = 1024 * 1024 * 1024,
                 store: DiskBehaviorStore | None = None):
        super().__init__(max_bytes, store=store)
        self._inflight = _Claims("waits", "cache.sweep-lease-timeout")
        self.leads = 0     # reads that claimed a cold entry
        self.joins = 0     # reads that waited, then found their records warm
        self.waits = 0     # waits on another call's claim
        self.timeouts = 0  # waits that gave up and proceeded unclaimed

    # ------------------------------------------------------------------
    def _get_or_create(self, key, dataset: Dataset) -> _UnitEntry:
        entry = self._entries.get(key)
        if entry is None:
            entry = _UnitEntry(dataset.n_records, dataset.n_symbols)
            self._entries[key] = entry
            self._bytes += entry.nbytes
            self._evict()
        self._entries.move_to_end(key)
        return entry

    def _commit_rows(self, key, entry: _UnitEntry, rows_idx: np.ndarray,
                     units: np.ndarray, whole: bool = False) -> None:
        """Write records ``rows_idx`` into an entry from ``units``: their
        unit-major ``(raw_width, len(rows_idx), ns)`` values, or —
        ``whole`` — a mapping of every record's, which becomes the matrix
        of an entry that has none yet; re-accounting bytes.

        The entry may have been evicted (or even displaced) by a concurrent
        insert while rows were produced without the lock, so bytes are
        re-accounted against the map's actual contents.
        """
        listed = self._entries.get(key) is entry
        if listed:
            self._bytes -= entry.nbytes
        if whole and entry.matrix is None:
            entry.matrix = units
        elif not entry.mapped:   # a mapped matrix holds every record
            if whole:
                units = units.take(rows_idx, axis=1)
            if entry.matrix is None:
                entry.matrix = np.empty(
                    (units.shape[0], entry.filled.shape[0], entry.n_symbols),
                    dtype=units.dtype)
            entry.matrix[:, rows_idx] = units
        entry.filled[rows_idx] = True
        if not listed:
            displaced = self._entries.get(key)
            if displaced is not None:
                self._bytes -= displaced.nbytes
            self._entries[key] = entry
        self._bytes += entry.nbytes
        self._entries.move_to_end(key)
        self._evict()

    def _reset_counters_locked(self) -> None:
        super()._reset_counters_locked()
        self.leads = 0
        self.joins = 0
        self.waits = 0
        self.timeouts = 0

    def stats(self) -> dict[str, int]:
        return {**super().stats(), "leads": self.leads, "joins": self.joins,
                "waits": self.waits, "timeouts": self.timeouts,
                "inflight": len(self._inflight)}

    @staticmethod
    def _store_key(key, entry: _UnitEntry) -> str:
        if entry.store_key is None:
            entry.store_key = unit_store_key(*key)
        return entry.store_key

    def extract(self, model, extractor: Extractor, dataset: Dataset,
                indices: np.ndarray,
                hid_units: np.ndarray | list[int] | None = None,
                model_key: str | None = None,
                raw_key: str | None = None) -> np.ndarray:
        """Unit behaviors for ``indices``: (len(indices) * ns, width).

        Only records without cached raw rows are run through the extractor
        (one full-width sweep covers every transform and unit subset); the
        result is always derived from the cached raw matrix, so repeated
        runs cost one slice plus the read-time view.  ``model_key`` /
        ``raw_key`` let callers that fingerprint once per run (the plan
        executor) skip re-hashing parameters and attributes per block.

        Single-flight (:class:`_Claims`): a call that finds records
        missing claims the entry for its disk read and sweep.  Hits and
        misses are counted at the final probe, so a call that waited and
        found its records warm counts what serial execution would (and a
        join).
        """
        indices = np.asarray(indices, dtype=int)
        if model_key is None:
            model_key = model_fingerprint(model)
        if raw_key is None:
            raw_key = extractor.raw_key()
        ns = dataset.n_symbols
        key = (model_key, raw_key, dataset.cache_key())

        def probe():
            entry = self._get_or_create(key, dataset)
            missing = indices[~entry.filled[indices]]
            return ([key] if missing.shape[0] and not entry.mapped
                    else []), (entry, missing)

        def settle(found, waited, timed_out, claimed):
            entry, missing = found
            self._count(hits=int(indices.shape[0] - missing.shape[0]),
                        misses=int(missing.shape[0]),
                        joins=int(waited and not missing.shape[0]),
                        leads=int(claimed), timeouts=int(timed_out))
            if missing.shape[0] and entry.mapped:
                # the disk tier's whole entry, mapped: every record is there
                entry.filled[missing] = True
                self._count(disk_hits=int(missing.shape[0]))
                missing = missing[:0]
            return entry, missing

        with self._inflight.hold(self, probe, settle) as (entry, missing):
            if self.store is not None and missing.shape[0]:
                # the disk tier; a width mismatch (stale or foreign entry)
                # is wholly absent, never served
                reader = self.store.reader(self._store_key(key, entry))
                have = np.zeros(missing.shape[0], dtype=bool)
                if reader is not None and reader.n_symbols == ns and \
                        reader.row_width == extractor.raw_width(model) * ns:
                    have = reader.filled_mask(missing)
                served = missing[have]
                whole = None if reader is None else reader.whole
                units = (reader.rows(served)
                         if served.shape[0] and whole is None else whole)
                with self._lock:
                    self._count(disk_hits=int(served.shape[0]),
                                disk_misses=int(missing.shape[0]
                                                - served.shape[0]))
                    if served.shape[0]:
                        self._commit_rows(key, entry, served, units,
                                          whole=whole is not None)
                missing = missing[~have]
            if missing.shape[0]:
                with span("sweep", model_id(model)):
                    block = extractor.raw_rows(model,
                                               dataset.symbols[missing])
                units = np.asarray(block).reshape(missing.shape[0], ns, -1)
                with self._lock:
                    self._count(extractions=1)
                    self._commit_rows(key, entry, missing,
                                      units.transpose(2, 0, 1))
                    matrix = entry.matrix
                if self.store is not None:
                    self.store.append_units(self._store_key(key, entry),
                                            missing, matrix)
        if entry.matrix is None:
            # only reachable for an empty index set (nothing was ever
            # filled); let the extractor produce the correctly-shaped
            # (0, width) result instead of guessing the width
            return extractor.extract(model, dataset.symbols[indices],
                                     hid_units=hid_units)
        columns = extractor.raw_columns(model, hid_units)
        with self._lock:
            states = entry.states(indices, columns)
        return extractor.finalize_states(states)
