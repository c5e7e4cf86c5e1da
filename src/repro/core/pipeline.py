"""The plan-based inspection engine: extraction + measures as operators.

An inspection run compiles into an :class:`InspectionPlan` of explicit
operators, mirroring Section 5's view of neural inspection as a
query-optimizable workload:

* :class:`BehaviorSource` — produces aligned unit/hypothesis behavior
  blocks.  The paper's three designs are *configurations* of this one
  operator: ``full`` and ``materialized`` extract everything up front
  (Section 5.1.2), ``streaming`` extracts lazily per block and narrows unit
  extraction to the units still-active groups need (Section 5.2.3).  Both
  behavior sides can be served from caches (:class:`HypothesisCache` /
  :class:`UnitBehaviorCache`).
* :class:`ScoreTask` — one (unit group, measure) pair driving an
  incremental :class:`~repro.measures.base.MeasureState`.  Measures whose
  statistics factor across hypothesis columns converge *per hypothesis*:
  a converged column freezes its scores and drops out of ``process_block``
  compute, instead of the coarse max-over-all-pairs criterion.
* :class:`Scheduler` — executes independent operator invocations.  The
  serial scheduler reproduces single-threaded execution exactly; the
  thread-pool scheduler parallelizes unit extraction across (model,
  extractor) pairs and score updates across tasks (numpy releases the GIL,
  so multi-model workloads scale across cores) while producing bit-identical
  results.  The process-pool scheduler goes further: cold extraction is
  *described* as picklable shard tasks (:mod:`repro.core.shard`) and
  executed across worker processes, with the mmap'd disk store as the
  exchange medium — scoring stays on the coordinator, so frames remain
  bit-identical to serial there too.

Wall-clock is charged to ``unit_extraction``, ``hypothesis_extraction`` and
``inspection`` buckets, reproducing Figure 8's runtime breakdown.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import shutil
import tempfile
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import (HypothesisCache, UnitBehaviorCache,
                              model_fingerprint)
from repro.core.groups import UnitGroup
from repro.data.datasets import Dataset
from repro.extract.base import (Extractor, HypothesisExtractor,
                                require_extractor)
from repro.hypotheses.base import HypothesisFunction
from repro.measures.base import Measure, MeasureResult
from repro.store import DiskBehaviorStore
from repro.util.blocks import iter_blocks
from repro.util.rng import new_rng
from repro.util.timing import Stopwatch

MODES = ("streaming", "materialized", "full")

#: default convergence thresholds (Section 6.2: e=0.025 for correlation,
#: 0.01 for logistic regression; 0.01 elsewhere).
DEFAULT_THRESHOLDS = {"corr": 0.025, "logreg": 0.01}
FALLBACK_THRESHOLD = 0.01


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------
class Scheduler:
    """Executes a batch of independent operator invocations.

    ``map`` must return results in input order, so plans produce identical
    frames under every scheduler.

    Beyond bare ``map``, schedulers expose a *task-graph surface* for
    shard-parallel extraction: a scheduler with ``executes_shards = True``
    accepts self-contained :class:`~repro.core.shard.ShardTask` values via
    :meth:`submit_shards` and runs them out of process.  In-process
    schedulers keep the flag off and the plan executor never builds shard
    tasks for them — closures over live objects remain the fast path.
    """

    name = "scheduler"

    #: whether submit_shards dispatches picklable shard tasks to workers
    executes_shards = False

    #: whether submit() overlaps work with the caller — the block
    #: executor's double-buffered prefetch only arms on schedulers that
    #: actually run the submitted sweep concurrently
    supports_prefetch = False

    def map(self, fn, items: list) -> list:
        raise NotImplementedError

    def submit(self, fn) -> Future:
        """Hand ``fn()`` to a worker; a Future over its result
        (``supports_prefetch`` schedulers only — the rest run in ``map``)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not overlap submitted work")

    def shard_workers(self) -> int:
        """Worker slots available to shard tasks (sizes task chunking)."""
        return 1

    def submit_shards(self, tasks: list) -> list:
        """Submit shard tasks; returns one future per task."""
        raise NotImplementedError(
            f"{type(self).__name__} does not execute shard tasks")

    def shutdown(self) -> None:
        pass

    # schedulers own worker threads: support explicit lifecycle scoping
    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class SerialScheduler(Scheduler):
    """Runs every invocation inline on the calling thread."""

    name = "serial"

    def map(self, fn, items: list) -> list:
        return [fn(item) for item in items]


class ThreadPoolScheduler(Scheduler):
    """Fans invocations out over a shared thread pool.

    Each work item touches disjoint state (one task's measure state, one
    (model, extractor) pair's extraction), and results are collected in
    input order, so execution is deterministic.
    """

    name = "threads"
    supports_prefetch = True

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._pool: ThreadPoolExecutor | None = None
        # session-owned schedulers are shared by every query the session
        # runs; concurrent first-touch (the server's many clients) must
        # not race two pools into existence and leak one
        self._pool_lock = threading.Lock()

    def map(self, fn, items: list) -> list:
        items = list(items)
        # no parallelism to exploit (single item or single worker):
        # skip dispatch cost and GIL contention, run inline
        if len(items) <= 1 or self.max_workers <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def submit(self, fn) -> Future:
        # always through the pool: even a 1-worker pool overlaps a
        # prefetched sweep with the caller's hypothesis extraction (numpy
        # releases the GIL inside BLAS and ufunc loops)
        return self._ensure_pool().submit(fn)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def shutdown(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class ProcessPoolScheduler(Scheduler):
    """Executes shard tasks across worker processes (cold extraction).

    The coordinator describes extraction as picklable
    :class:`~repro.core.shard.ShardTask` values; workers run the raw
    sweeps and write shard files into the exchange store; the coordinator
    mmaps the results back into the memory-tier caches and runs scoring
    inline (``map`` stays serial on the calling thread), so frames are
    bit-identical to the serial scheduler's.

    ``mp_context`` picks the multiprocessing start method (``"fork"``,
    ``"spawn"``, ``"forkserver"`` or a context object); tasks carry
    models by content (arch spec + parameter arrays) rather than
    pickle-by-reference, so both fork and spawn work.  A session without
    its own disk store borrows :meth:`scratch_store` — a temp-dir
    exchange store that lives (and keeps behaviors warm) until
    :meth:`shutdown` removes it.
    """

    name = "processes"
    executes_shards = True

    def __init__(self, max_workers: int | None = None,
                 mp_context: str | None = None):
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._scratch: tuple[str, DiskBehaviorStore] | None = None
        # concurrent queries on one session share this scheduler: pool and
        # scratch-store creation must be single-flight or one of the two
        # racing pools (or temp dirs) leaks
        self._pool_lock = threading.Lock()

    def map(self, fn, items: list) -> list:
        # scoring and fallback extraction run inline on the coordinator:
        # closures over live measure states cannot (and should not) cross
        # the process boundary
        return [fn(item) for item in items]

    def shard_workers(self) -> int:
        return self.max_workers

    def submit_shards(self, tasks: list) -> list:
        from repro.core.shard import run_shard_task
        with self._pool_lock:
            if self._pool is None:
                context = self.mp_context
                if isinstance(context, str):
                    context = multiprocessing.get_context(context)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=context)
            pool = self._pool
        return [pool.submit(run_shard_task, task) for task in tasks]

    def scratch_store(self) -> DiskBehaviorStore:
        """The temp-dir exchange store for sessions without one.

        Created lazily, reused across runs (cross-query warm reads), and
        deleted on :meth:`shutdown`.
        """
        with self._pool_lock:
            if self._scratch is None:
                root = tempfile.mkdtemp(prefix="repro-shard-exchange-")
                self._scratch = (root, DiskBehaviorStore(root))
            return self._scratch[1]

    def shutdown(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            scratch, self._scratch = self._scratch, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if scratch is not None:
            shutil.rmtree(scratch[0], ignore_errors=True)


def default_scheduler(store: DiskBehaviorStore | None = None) -> Scheduler:
    """The scheduler a session should run with on this machine.

    Selection rules:

    * ``REPRO_SCHEDULER`` (``serial`` / ``threads`` / ``processes``)
      overrides everything — the CI lever that forces the whole suite
      through one scheduler.
    * A single-core host gets the serial scheduler: neither pool can win
      there, and GIL/spawn overhead makes both strictly slower.
    * On a multi-core host *with* a disk store the process pool is
      chosen: raw sweeps fan out across cores and exchange through the
      store's mmap'd shards.  Spawn and pickling are a constant, sweeps
      grow with records x units^2: at the benchmark's base scale this is
      the *slowest* of the three on a cold store-backed statement (PR
      18); ROADMAP direction 2 owns the decision.
    * Multi-core without a store falls back to the thread pool — numpy
      releases the GIL for scoring and multi-model extraction, and there
      is no exchange medium for shard tasks to write through.
    """
    forced = os.environ.get("REPRO_SCHEDULER", "").strip()
    if forced:
        return _resolve_scheduler(forced)[0]
    if (os.cpu_count() or 1) <= 1:
        return SerialScheduler()
    if store is not None:
        return ProcessPoolScheduler()
    return ThreadPoolScheduler()


_SCHEDULERS = {"serial": SerialScheduler, "threads": ThreadPoolScheduler,
               "processes": ProcessPoolScheduler}

#: guards InspectConfig._store_tiers memoization (one pair per config even
#: when concurrent runs share the config object)
_STORE_TIER_LOCK = threading.Lock()


def _resolve_scheduler(spec) -> tuple[Scheduler, bool]:
    """Returns (scheduler, owned); owned schedulers are shut down after use."""
    if spec is None:
        return SerialScheduler(), True
    if isinstance(spec, Scheduler):
        return spec, False
    if isinstance(spec, str):
        try:
            return _SCHEDULERS[spec](), True
        except KeyError:
            raise ValueError(
                f"unknown scheduler {spec!r}; expected one of "
                f"{tuple(_SCHEDULERS)} or a Scheduler instance") from None
    raise TypeError(f"scheduler must be a name or Scheduler, got {spec!r}")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass
class InspectConfig:
    """Execution knobs for one inspection run."""

    mode: str = "streaming"
    early_stop: bool = True
    block_size: int = 512                    # records per block (paper: 512)
    error_threshold: float | dict | None = None
    shuffle: bool = True
    seed: int = 0
    cache: HypothesisCache | None = None     # hypothesis-behavior cache
    unit_cache: UnitBehaviorCache | None = None
    store: DiskBehaviorStore | None = None   # persistent disk tier
    scheduler: Scheduler | str | None = None  # None -> serial
    partition: bool = True      # per-hypothesis-column early stopping
    #: a block's raw sweeps are submitted to the scheduler, one future per
    #: (model, raw sweep) pair, before the calling thread labels the
    #: block's hypotheses (overlapping schedulers only; no block is swept
    #: ahead of the one being processed; frames stay bit-identical — see
    #: InspectionPlan._run_blocks)
    prefetch: bool = True
    #: cross-query single-flight gate over cold raw sweeps.  Anything
    #: exposing ``lease(keys, cold=predicate) -> context manager`` works
    #: (the inspection server installs a
    #: :class:`repro.server.dedup.SweepRegistry`): the plan executor
    #: leases its sweep identities for the duration of the run, so
    #: concurrent queries needing the same cold extraction attach to one
    #: in-flight sweep instead of racing the caches.  ``None`` (the
    #: default) leaves runs ungated.
    sweep_gate: object | None = None
    stopwatch: Stopwatch | None = None
    max_records: int | None = None
    # memoized store-backed tiers (see with_store_tiers); never replace()d
    _store_tiers: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scheduler is not None and not isinstance(
                self.scheduler, (str, Scheduler)):
            raise TypeError("scheduler must be a name or Scheduler, "
                            f"got {self.scheduler!r}")
        if isinstance(self.scheduler, str) \
                and self.scheduler not in _SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{tuple(_SCHEDULERS)} or a Scheduler instance")
        # a memory tier wired to one store while config.store names another
        # would silently split the persistent state across directories —
        # reject the conflict here, where every with_*() copy re-validates
        for label, tier in (("cache", self.cache),
                            ("unit_cache", self.unit_cache)):
            tier_store = getattr(tier, "store", None)
            if (tier_store is not None and self.store is not None
                    and tier_store is not self.store):
                raise ValueError(
                    f"conflicting store wiring: {label} is backed by a "
                    "different DiskBehaviorStore than config.store; pass "
                    "one store object to both (or drop store=)")
        if self.stopwatch is None:
            self.stopwatch = Stopwatch()

    def with_defaults(
            self, cache: HypothesisCache | None = None,
            unit_cache: UnitBehaviorCache | None = None,
            scheduler: Scheduler | str | None = None,
            store: DiskBehaviorStore | None = None,
            sweep_gate: object | None = None) -> "InspectConfig":
        """A copy with unset sharing knobs filled from session defaults.

        The session layer keeps per-session caches, a persistent behavior
        store and a thread-pool scheduler; a config that did not pin those
        fields inherits them, so repeated queries in one session share
        extracted behaviors (and across sessions, through the store), while
        an explicitly-configured run is left untouched.  The operation is
        idempotent: fields filled by one call are pinned, so a second call
        (with the same or another session's defaults) changes nothing.
        """
        if (cache is None or self.cache is not None) \
                and (unit_cache is None or self.unit_cache is not None) \
                and (store is None or self.store is not None) \
                and (scheduler is None or self.scheduler is not None) \
                and (sweep_gate is None or self.sweep_gate is not None):
            return self  # nothing to fill: don't build a copy per query
        return dataclasses.replace(
            self,
            cache=self.cache if self.cache is not None else cache,
            unit_cache=(self.unit_cache if self.unit_cache is not None
                        else unit_cache),
            store=self.store if self.store is not None else store,
            scheduler=(self.scheduler if self.scheduler is not None
                       else scheduler),
            sweep_gate=(self.sweep_gate if self.sweep_gate is not None
                        else sweep_gate))

    def with_store_tiers(self) -> "InspectConfig":
        """A copy whose caches sit on top of ``store``, when one is set.

        A configured disk tier implies caching: runs that did not pin their
        own memory tiers get fresh ones backed by the store, so behaviors
        persist (and warm reads come back) even across processes that never
        share a cache object.  The derived tiers are memoized on this
        config, so repeated calls (every plan build re-applies this) hand
        back the *same* memory tiers instead of silently stacking a fresh
        pair per run — repeated runs of one config share their memory tier
        and report coherent hit counters.
        """
        if self.store is None or (self.cache is not None
                                  and self.unit_cache is not None):
            return self
        with _STORE_TIER_LOCK:  # configs are shared across pool threads
            if self._store_tiers is None \
                    or self._store_tiers[0] is not self.store:
                self._store_tiers = (self.store,
                                     HypothesisCache(store=self.store),
                                     UnitBehaviorCache(store=self.store))
            _, hyp_tier, unit_tier = self._store_tiers
        return dataclasses.replace(
            self,
            cache=self.cache or hyp_tier,
            unit_cache=self.unit_cache or unit_tier)

    def threshold_for(self, score_id: str) -> float:
        if isinstance(self.error_threshold, (int, float)):
            return float(self.error_threshold)
        table = dict(DEFAULT_THRESHOLDS)
        if isinstance(self.error_threshold, dict):
            table.update(self.error_threshold)
        prefix = score_id.split(":")[0]
        return table.get(prefix, FALLBACK_THRESHOLD)


@dataclass
class GroupMeasureOutcome:
    """Result of one (unit group, measure) pair over all hypotheses."""

    group: UnitGroup
    measure: Measure
    result: MeasureResult
    hypothesis_names: list[str]
    records_processed: int = 0


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------
def _extract_hypotheses(hypotheses: list[HypothesisFunction],
                        dataset: Dataset, indices: np.ndarray,
                        cache: HypothesisCache | None) -> tuple:
    """The hypothesis block and its moments thunk (None without a cache)."""
    if cache is None:
        return HypothesisExtractor(hypotheses).extract(dataset, indices), None
    block = cache.extract_block(hypotheses, dataset, indices)
    return block, cache.block_moments(hypotheses, dataset, indices, block)


def gather_sweeps(futures: list[Future]) -> dict[int, np.ndarray]:
    """The merged ``{gi: block}`` of a block's pair futures (the calling
    thread's wait on them; :meth:`InspectionPlan._run_blocks` sees to it
    that none is left running if one raises)."""
    merged: dict[int, np.ndarray] = {}
    for future in futures:
        merged.update(future.result())
    return merged


class BehaviorSource:
    """Serves aligned behavior blocks for record positions in ``order``.

    ``materialize=False`` (streaming) extracts lazily per request;
    ``materialize=True`` extracts everything on :meth:`prepare` and then
    serves row slices.  Either way unit extraction runs once per distinct
    (model, raw sweep) pair and — when the requesting groups cover a strict
    subset of the sweep's columns — is narrowed to the union of the columns
    they read, so behaviors nobody asked for are never materialized.
    With a :class:`UnitBehaviorCache` configured, extraction instead runs at
    full width and slices columns on read: cache entries then reuse across
    runs regardless of which groups were active when they were filled.
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
        # no cache to share through: one sweep narrowed to the union of
        # *raw* columns the members read (each member's unit ids mapped
        # through its layer view), so behaviors nobody asked for are never
        # materialized; each member's block is a read-time view over it
        rep = first.extractor or self.default_extractor
        ns = self.dataset.n_symbols
        views = []      # (gi, extractor, the raw columns its group reads)
        for gi, group in members:
            ext = group.extractor or self.default_extractor
            views.append((gi, ext, ext.raw_columns(model, group.unit_ids)))
        union = np.unique(np.concatenate([cols for _, _, cols in views]))
        narrow = union.shape[0] < rep.raw_width(model)
        raw = rep.raw_rows(model, self.dataset.symbols[indices],
                           columns=union if narrow else None)
        if raw.shape[0] != indices.shape[0] * ns:
            raise ValueError(
                "extractor row mismatch: expected "
                f"{indices.shape[0] * ns} rows ({indices.shape[0]} records "
                f"x {ns} symbols), got {raw.shape[0]}")
        states = raw.reshape(-1, ns, raw.shape[-1])
        for gi, ext, cols in views:
            if narrow:
                cols = np.searchsorted(union, cols)
            out[gi] = ext.finalize_states(states, cols)
        return out

    def extraction_pairs(self, groups: list[tuple[int, UnitGroup]] | None
                         = None) -> dict:
        """Members grouped by shared (model, raw-sweep) identity.

        The pure task-description half of unit extraction: each key is
        one forward-sweep shard — extractors differing only in transform,
        layer view or unit subset fuse under one key — and carries the
        ``(gi, group)`` members it serves.  Both the in-process execution
        path (:meth:`_extract_unit_blocks`) and the shard-task builder
        (:class:`repro.core.shard.ShardExchange`) partition work on it,
        so they can never disagree about what one sweep covers.
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

    def _extract_unit_blocks(self, groups: list[tuple[int, UnitGroup]],
                             indices: np.ndarray,
                             scheduler: Scheduler) -> dict[int, np.ndarray]:
        by_pair = self.extraction_pairs(groups)
        results = scheduler.map(
            lambda members: self._extract_units_for_pair(members, indices),
            list(by_pair.values()))
        merged: dict[int, np.ndarray] = {}
        for chunk in results:
            merged.update(chunk)
        return merged

    def submit_sweeps(self, groups: list[tuple[int, UnitGroup]],
                      indices: np.ndarray,
                      scheduler: Scheduler) -> list[Future]:
        """The prefetch form of :meth:`_extract_unit_blocks`: one future per
        extraction pair (:func:`gather_sweeps` merges them), submitted from
        the calling thread, never from inside a worker, so an overlapping
        scheduler spreads the pairs over every worker it has."""
        return [scheduler.submit(
                    lambda m=members: self._extract_units_for_pair(m, indices))
                for members in self.extraction_pairs(groups).values()]

    # -- executor interface --------------------------------------------
    def prepare(self, scheduler: Scheduler, watch: Stopwatch) -> None:
        if not self.materialize:
            return
        with watch.charge("hypothesis_extraction"):
            self._h_all, _ = _extract_hypotheses(
                self.hypotheses, self.dataset, self.order, self.config.cache)
        with watch.charge("unit_extraction"):
            self._u_all = self._extract_unit_blocks(
                list(enumerate(self.groups)), self.order, scheduler)

    def hypothesis_block(self, sl: slice, watch: Stopwatch,
                         columns: np.ndarray | None = None) -> tuple:
        """Hypothesis behaviors for the slice, and their moments thunk
        (``None`` unless a hypothesis cache gathered the block).

        ``columns`` narrows lazy extraction to the still-active hypothesis
        columns (the hypothesis-side mirror of ``hid_units``): frozen
        hypotheses are not re-evaluated for the remaining blocks.  Ignored
        when materialized — everything was extracted up front.
        """
        ns = self.dataset.n_symbols
        if self.materialize:
            assert self._h_all is not None
            return self._h_all[sl.start * ns:sl.stop * ns], None
        hyps = (self.hypotheses if columns is None
                else [self.hypotheses[int(c)] for c in columns])
        with watch.charge("hypothesis_extraction"):
            return _extract_hypotheses(hyps, self.dataset,
                                       self.order[sl], self.config.cache)

    def unit_blocks(self, sl: slice, groups: list[tuple[int, UnitGroup]],
                    scheduler: Scheduler,
                    watch: Stopwatch) -> dict[int, np.ndarray]:
        ns = self.dataset.n_symbols
        if self.materialize:
            assert self._u_all is not None
            return {gi: self._u_all[gi][sl.start * ns:sl.stop * ns]
                    for gi, _ in groups}
        with watch.charge("unit_extraction"):
            return self._extract_unit_blocks(groups, self.order[sl],
                                             scheduler)

    def describe(self) -> str:
        parts = [f"materialize={self.materialize}",
                 f"block_size={self.config.block_size}",
                 f"hyp_cache={'on' if self.config.cache else 'off'}",
                 f"unit_cache={'on' if self.config.unit_cache else 'off'}",
                 f"store={'on' if self.config.store else 'off'}"]
        return f"BehaviorSource({', '.join(parts)})"


class ScoreTask:
    """One (unit group, measure) pair: state, convergence, freezing.

    With a partition-capable measure and early stopping on, hypothesis
    columns converge individually: a column whose error bound drops under
    the threshold has its scores snapshotted, is removed from the measure
    state's sufficient statistics, and stops being fed — later blocks only
    pay for the still-active columns.  The task finishes when every column
    is frozen (or, for non-partition measures, when the scalar criterion
    fires).
    """

    def __init__(self, gi: int, group: UnitGroup, mi: int, measure: Measure,
                 n_hyps: int, config: InspectConfig):
        self.gi = gi
        self.mi = mi
        self.group = group
        self.measure = measure
        self.n_hyps = n_hyps
        self.threshold = config.threshold_for(measure.score_id)
        self.single_shot = config.mode == "full"
        self.early_stop = (config.early_stop and measure.supports_early_stop
                           and not self.single_shot)
        self.partition = (self.early_stop and config.partition
                          and measure.supports_partition)
        self.state = (None if self.single_shot
                      else measure.new_state(group.n_units, n_hyps))
        self.active_cols = np.arange(n_hyps)
        self.col_rows = np.zeros(n_hyps, dtype=np.int64)
        self.col_converged = np.zeros(n_hyps, dtype=bool)
        self._frozen_unit: np.ndarray | None = None
        self._frozen_group: np.ndarray | None = None
        self._last: MeasureResult | None = None
        self.records_processed = 0
        self.last_error = float("inf")  # error bound after the last block
        self.done = False

    # ------------------------------------------------------------------
    def process(self, u_block: np.ndarray, h_block: np.ndarray,
                n_records: int, h_moments=None) -> None:
        """Consume one aligned block.

        ``h_block`` must already be restricted to this task's active
        hypothesis columns (the executor slices once per task, which lets
        the source skip extracting globally-frozen columns altogether);
        ``h_moments`` are the moments of exactly that array, if kept.
        """
        if self.single_shot:
            self._last = self.measure.compute(u_block, h_block)
            self.col_rows[:] = u_block.shape[0]
            self.col_converged[:] = True
            self.records_processed = n_records
            self.last_error = 0.0
            self.done = True
            return
        result, err = self.measure.process_block(self.state, u_block,
                                                 h_block, h_moments)
        self._last = result
        self.last_error = float(err)
        self.records_processed += n_records
        self.col_rows[self.active_cols] += u_block.shape[0]
        if not self.early_stop:
            return
        if self.partition:
            self._freeze_converged()
        elif err <= self.threshold:
            result.converged = True
            self.col_converged[:] = True
            self.done = True

    def _freeze_converged(self) -> None:
        errors = self.state.column_errors()
        if errors is None:  # state opted out at runtime: scalar fallback
            if self.state.error() <= self.threshold:
                self._last.converged = True
                self.col_converged[:] = True
                self.done = True
            return
        # NaN marks a vacuous column (score pinned at a default but not
        # final, e.g. a hypothesis with no contrast yet): never freeze it --
        # later blocks may revive it -- but don't let it keep the task alive
        # once every informative column has converged.
        with np.errstate(invalid="ignore"):
            ready = errors <= self.threshold
        vacuous = np.isnan(errors)
        if ready.any():
            scores = self.state.unit_scores()
            group = self.state.group_scores()
            if self._frozen_unit is None:
                self._frozen_unit = np.zeros(
                    (self.group.n_units, self.n_hyps))
                if group is not None:
                    self._frozen_group = np.zeros(self.n_hyps)
            frozen_global = self.active_cols[ready]
            self._frozen_unit[:, frozen_global] = scores[:, ready]
            if group is not None and self._frozen_group is not None:
                self._frozen_group[frozen_global] = group[ready]
            self.col_converged[frozen_global] = True
            keep = ~ready
            self.active_cols = self.active_cols[keep]
            if self.active_cols.shape[0]:
                self.state.restrict_columns(np.flatnonzero(keep))
            vacuous = vacuous[keep]
        if self.active_cols.shape[0] == 0:
            self.done = True
        elif vacuous.all():
            # only vacuous columns remain: the task is converged the same
            # way the scalar criterion treats an all-degenerate state; their
            # live (pinned) scores are stitched into the result
            self.col_converged[self.active_cols] = True
            if self._last is not None:
                self._last.converged = True
            self.done = True

    # ------------------------------------------------------------------
    def outcome(self, names: list[str]) -> GroupMeasureOutcome:
        if self._frozen_unit is not None:
            result = self._stitched_result()
        elif self._last is not None:
            result = self._last
        else:  # zero blocks processed (empty dataset, or a progressive
            # snapshot taken before this task's first block — single-shot
            # tasks have no state yet, so build a throwaway empty one)
            state = (self.state if self.state is not None
                     else self.measure.new_state(self.group.n_units,
                                                 self.n_hyps))
            result = state.result()
        result.col_rows_seen = self.col_rows.copy()
        result.col_converged = self.col_converged.copy()
        return GroupMeasureOutcome(
            group=self.group, measure=self.measure, result=result,
            hypothesis_names=names,
            records_processed=self.records_processed)

    def _stitched_result(self) -> MeasureResult:
        """Merge frozen column snapshots with the live state's columns."""
        unit = self._frozen_unit.copy()
        group = (None if self._frozen_group is None
                 else self._frozen_group.copy())
        extras = None
        if self.active_cols.shape[0]:
            live = self.state.result()
            unit[:, self.active_cols] = live.unit_scores
            if group is not None and live.group_scores is not None:
                group[self.active_cols] = live.group_scores
            extras = live.extras
        return MeasureResult(
            unit_scores=unit, group_scores=group,
            n_rows_seen=int(self.col_rows.max(initial=0)),
            converged=bool(self.col_converged.all()),
            extras=extras)

    def describe(self) -> str:
        policy = ("single-shot" if self.single_shot
                  else "per-column" if self.partition
                  else "scalar" if self.early_stop else "exhaustive")
        return (f"ScoreTask({self.group.model_id}/{self.group.name} x "
                f"{self.measure.score_id}, stop={policy})")


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
@dataclass
class InspectionPlan:
    """A compiled inspection run: source + tasks + scheduling policy."""

    groups: list[UnitGroup]
    dataset: Dataset
    measures: list[Measure]
    hypotheses: list[HypothesisFunction]
    config: InspectConfig
    order: np.ndarray
    source: BehaviorSource = field(init=False)
    tasks: list[ScoreTask] = field(init=False)

    @classmethod
    def build(cls, groups: list[UnitGroup], dataset: Dataset,
              measures: list[Measure],
              hypotheses: list[HypothesisFunction],
              extractor: Extractor, config: InspectConfig) -> "InspectionPlan":
        if not groups:
            raise ValueError("need at least one unit group")
        if not measures:
            raise ValueError("need at least one measure")
        if not hypotheses:
            raise ValueError("need at least one hypothesis function")
        require_extractor(extractor, "extractor")
        for group in groups:
            n_units = (group.extractor or extractor).n_units(group.model)
            if group.unit_ids.max() >= n_units:
                raise ValueError(
                    f"unit group {group.name!r} names unit "
                    f"{group.unit_ids.max()}, but its extractor exposes "
                    f"{n_units} units of {group.model_id}")
        config = config.with_store_tiers()
        rng = new_rng(config.seed)
        n_records = dataset.n_records
        if config.max_records is not None:
            n_records = min(n_records, config.max_records)
        order = np.arange(n_records)
        if config.shuffle:
            rng.shuffle(order)
        plan = cls(groups=groups, dataset=dataset, measures=measures,
                   hypotheses=hypotheses, config=config, order=order)
        plan.source = BehaviorSource(dataset, hypotheses, groups, extractor,
                                     config, order)
        n_hyps = len(hypotheses)
        plan.tasks = [ScoreTask(gi, g, mi, m, n_hyps, config)
                      for gi, g in enumerate(groups)
                      for mi, m in enumerate(measures)]
        return plan

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Readable operator tree (the EXPLAIN of an inspection run)."""
        sched = self.config.scheduler
        sched_name = (sched.name if isinstance(sched, Scheduler)
                      else sched or "serial")
        lines = [f"InspectionPlan(mode={self.config.mode}, "
                 f"records={self.source.n_records}, "
                 f"scheduler={sched_name})",
                 f"  {self.source.describe()}"]
        lines += [f"  {task.describe()}" for task in self.tasks]
        return "\n".join(lines)

    def execute(self) -> list[GroupMeasureOutcome]:
        for _ in self.execute_blocks():
            pass
        return self.outcomes()

    # -- sweep identity (cross-query dedup surface) --------------------
    def sweep_keys(self) -> list[tuple[str, str, str]]:
        """Stable identities of the raw forward sweeps this run may issue.

        One ``(model fingerprint, raw-extractor key, dataset hash)`` triple
        per fused extraction pair — the exact granularity the
        :class:`~repro.core.cache.UnitBehaviorCache` and the disk store
        key entries by, so two plans that would fill the same cache entry
        report the same key.
        """
        dataset_key = self.dataset.cache_key()
        keys: set[tuple[str, str, str]] = set()
        for (_, raw_key), members in self.source.extraction_pairs().items():
            _, group = members[0]
            keys.add((self.source.key_of(group.model, model_fingerprint),
                      raw_key, dataset_key))
        return sorted(keys)

    def sweep_is_cold(self, key: tuple[str, str, str]) -> bool:
        """Whether serving ``key`` for this run still needs extraction.

        Probes the memory tier only (no counters move): a warm key must
        not be leased by a sweep gate, or concurrent warm queries would
        serialize behind each other for no benefit.  Without a unit cache
        there is nothing to share a sweep through, so everything counts
        as cold.
        """
        cache = self.config.unit_cache
        if cache is None:
            return True
        model_key, raw_key, _ = key
        missing = cache.missing_records(self.dataset, self.order,
                                        model_key=model_key,
                                        raw_key=raw_key)
        return bool(missing.shape[0])

    def execute_blocks(self):
        """Drive the executor loop, yielding once after each block.

        The run's full lifecycle rides on the generator: the scheduler is
        resolved up front (and an owned one shut down at exhaustion *or*
        abandonment), and the whole run shares one store commit scope —
        one manifest rewrite per run, not one per (entry, block); shard
        files still land (fsynced) as they are extracted, they just become
        visible together when the scope closes.  Callers snapshot whatever
        task state they need between steps (:meth:`outcomes`, or
        individual tasks for cheaper partial reads).

        With ``config.sweep_gate`` set, the run first leases its sweep
        identities: if another in-flight run is already extracting one of
        them, this run waits for that sweep to land in the shared caches
        instead of racing a duplicate forward pass (the server's
        cross-client dedup).  The lease is released — and waiters woken —
        even when the consumer abandons this generator mid-run.

        A consumer of this generator may stop after any block, and a
        block's sweep is launched only once the consumer has asked for it:
        abandoning the run costs exactly the blocks delivered.
        """
        scheduler, owned = _resolve_scheduler(self.config.scheduler)
        store_scope = (self.config.store.deferred_commits()
                       if self.config.store is not None
                       else contextlib.nullcontext())
        gate = self.config.sweep_gate
        gate_scope = (gate.lease(self.sweep_keys(), cold=self.sweep_is_cold)
                      if gate is not None else contextlib.nullcontext())
        try:
            with gate_scope, store_scope:
                yield from self._block_steps(scheduler)
        finally:
            if owned:
                scheduler.shutdown()

    def outcomes(self) -> list[GroupMeasureOutcome]:
        """Current (possibly partial) outcome snapshot of every task."""
        names = [h.name for h in self.hypotheses]
        return [task.outcome(names) for task in self.tasks]

    def _block_steps(self, scheduler: Scheduler):
        """The executor loop; yields once after each processed block.

        With a shard-executing scheduler, cold extraction is dispatched
        to worker processes up front (:class:`~repro.core.shard
        .ShardExchange`) and integrated just-in-time per block; the loop
        below then reads everything out of the (now warm) caches, so the
        scoring path — and therefore the frame — is the same under every
        scheduler.
        """
        from repro.core.shard import ShardExchange
        watch = self.config.stopwatch
        n_hyps = len(self.hypotheses)
        exchange = ShardExchange.build(self.source, scheduler)
        try:
            if exchange is not None:
                with watch.charge("unit_extraction"):
                    exchange.dispatch()
                if self.source.materialize:
                    exchange.ensure_all(watch)
            yield from self._run_blocks(scheduler, exchange, watch, n_hyps)
        finally:
            if exchange is not None:
                exchange.close()

    def _run_blocks(self, scheduler: Scheduler, exchange, watch,
                    n_hyps: int):
        """The per-block loop, double-buffered on overlapping schedulers.

        With ``config.prefetch`` on and a scheduler whose :meth:`Scheduler
        .submit` runs concurrently, a block's raw unit sweep is one future
        per extraction pair (:meth:`BehaviorSource.submit_sweeps`),
        submitted before the block's hypothesis extraction: every worker
        sweeps while the calling thread labels, which charges only its wait
        on the futures to ``unit_extraction``.  Invariants:

        * **Frames are bit-identical** to serial execution: block order,
          per-block record slices and per-group behavior values are
          unchanged (a group's block does not depend on which other groups
          share the extraction call).
        * **Counters are exact**: the futures *are* the block's extraction
          (the loop does not re-probe the caches) and no block is swept
          ahead of the one being processed — a run abandoned after block t
          has swept exactly t blocks x pairs.
        * **No future outlives the run**, however it ends: a sweep may
          write through the caches, so it finishes (or is cancelled unrun)
          inside the run's store scope.
        * Shard-exchange runs keep their own overlap (``exchange`` already
          dispatched all cold work to worker processes), and materialized
          runs extracted everything in :meth:`BehaviorSource.prepare`, so
          both leave prefetch off.
        """
        self.source.prepare(scheduler, watch)
        use_prefetch = (self.config.prefetch
                        and scheduler.supports_prefetch
                        and not self.source.materialize
                        and exchange is None)
        sweeps: list[Future] = []   # of the block being processed
        try:
            for sl in self.source.block_slices():
                pending = [t for t in self.tasks if not t.done]
                if not pending:
                    break
                if exchange is not None:
                    exchange.ensure(sl, watch)
                needed: dict[int, UnitGroup] = {}
                for task in pending:
                    needed.setdefault(task.gi, task.group)
                needed_items = sorted(needed.items())
                if use_prefetch:
                    sweeps = self.source.submit_sweeps(
                        needed_items, self.source.order[sl], scheduler)
                # hypothesis columns frozen in *every* pending task need no
                # further extraction (streaming only; materialized already
                # paid)
                cols_union = None
                if not self.source.materialize:
                    if any(t.active_cols.shape[0] < n_hyps for t in pending):
                        cols_union = np.unique(np.concatenate(
                            [t.active_cols for t in pending]))
                        if cols_union.shape[0] == n_hyps:
                            cols_union = None
                h_block, h_moments = self.source.hypothesis_block(
                    sl, watch, columns=cols_union)

                if use_prefetch:
                    with watch.charge("unit_extraction"):
                        u_blocks = gather_sweeps(sweeps)
                else:
                    u_blocks = self.source.unit_blocks(
                        sl, needed_items, scheduler, watch)
                n_records = sl.stop - sl.start

                def score(task):
                    """Feed the task its active columns of h_block; its
                    moments go along (shared) only with the whole block —
                    a column slice sums in another order."""
                    local = (task.active_cols if cols_union is None else
                             np.searchsorted(cols_union, task.active_cols))
                    if local.shape[0] == h_block.shape[1]:
                        task.process(u_blocks[task.gi], h_block, n_records,
                                     h_moments)
                    else:
                        task.process(u_blocks[task.gi], h_block[:, local],
                                     n_records)

                with watch.charge("inspection"):
                    scheduler.map(score, pending)
                yield sl
        finally:
            # a sibling sweep or the hypothesis block raised, or the consumer
            # left: cancel what has not started and wait for what has
            for future in sweeps:
                if not future.cancel():
                    future.exception()
