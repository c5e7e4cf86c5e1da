"""The connection-style entry point: one :class:`Session` for Python + SQL.

DeepBase frames Deep Neural Inspection as a declarative query system
(Section 4): users *connect*, register models, datasets and hypothesis
functions, and issue queries the engine optimizes and answers
incrementally.  :class:`Session` is that connection.  It owns the resource
lifecycle every query shares —

* a :class:`~repro.core.cache.HypothesisCache` and a
  :class:`~repro.core.cache.UnitBehaviorCache` (memory tiers),
* optionally a persistent :class:`~repro.store.DiskBehaviorStore`
  (``store_path=``), which the caches write through to with run-scoped
  deferred commits (one manifest rewrite per query, run after its frame),
* one scheduler pool (:func:`~repro.core.pipeline.default_scheduler`
  unless pinned: threads on two or more usable CPUs, with or without a
  store, so a store-backed statement extracts and commits in-process),

— and carries name registries (:meth:`register_model`,
:meth:`register_dataset`, :meth:`register_hypotheses`) addressable from
both query surfaces:

* the fluent Python builder ::

      with Session("behavior_store") as session:
          session.register_model("m0", model)
          session.register_dataset("d0", dataset)
          session.register_hypotheses(hyps)
          frame = (session.inspect("m0", "d0")
                   .using("corr", "logreg")
                   .hypotheses(hyps)
                   .top_k(20)
                   .run())
          for partial in (session.inspect("m0", "d0").using("corr")
                          .hypotheses(hyps).stream()):
              ...  # scores refine as blocks arrive

* the SQL frontend — :meth:`Session.sql` compiles ``SELECT ... INSPECT``
  statements through :mod:`repro.db.inspect_clause` against the same
  caches, store and scheduler, so interleaved Python and SQL queries on
  one model share a single forward pass and one store commit per run.

``close()`` (or leaving the ``with`` block) flushes the store — waiting
for the commit the last statement left running — and shuts the scheduler
pool down.  A session is the only stateful way in;
:func:`repro.inspect` is the stateless one-liner over the same
:class:`~repro.core.pipeline.InspectionPlan` engine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
import threading
import weakref
from collections import OrderedDict
from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.cache import HypothesisCache, UnitBehaviorCache
from repro.core.groups import UnitGroup, model_groups
from repro.core.inspect import outcomes_to_frame
from repro.core.pipeline import (InspectConfig, InspectionPlan, Scheduler,
                                 _resolve_scheduler, default_scheduler)
from repro.data.datasets import Dataset
from repro.db.engine import Database, next_version
from repro.db.executor import execute_select
from repro.db.inspect_clause import (_compile_inspect, run_inspect_spec,
                                     stream_inspect_spec)
from repro.db.sqlparser import InspectSpec, parse_sql
from repro.extract.base import Extractor, require_extractor
from repro.extract.rnn import RnnActivationExtractor
from repro.hypotheses.base import HypothesisFunction
from repro.measures.base import Measure
from repro.measures.registry import get_measure
from repro.store import DiskBehaviorStore
from repro.util.debuglog import degradation_counts
from repro.util.frame import Frame
from repro.util.trace import span

#: statements a session keeps parsed (and, INSPECTs, compiled)
_STATEMENT_SLOTS = 256


class Session:
    """A long-lived inspection connection: resources + registries.

    Parameters
    ----------
    store_path:
        Directory for a persistent :class:`DiskBehaviorStore`; the session
        caches become memory tiers over it.
    db:
        Catalog database for the SQL frontend; created empty on first use
        when omitted (``register_*`` fills it).
    db_path:
        Directory of a persistent on-disk catalog instead (see :attr:`db`).
    extractor:
        Default unit-behavior extractor for both query surfaces; defaults
        to :class:`~repro.extract.rnn.RnnActivationExtractor`.
    config:
        Base :class:`InspectConfig` every query derives from.  Fields it
        pins (an explicit cache, scheduler...) override the session's
        resources for every query.  It is resolved once, here:
        :attr:`config` holds the tiers (:attr:`hyp_cache`,
        :attr:`unit_cache`) and the scheduler every statement runs on.
    scheduler:
        A :class:`Scheduler` or scheduler name for every query.  One spec
        is resolved: ``config.scheduler`` if pinned, else this, else
        :func:`~repro.core.pipeline.default_scheduler`.  The result is
        :attr:`scheduler`, the instance every statement runs on (a name
        becomes one the session owns) and the one :meth:`close` shuts
        down.
    """

    def __init__(self, store_path=None, *,
                 db: Database | None = None,
                 db_path: str | None = None,
                 extractor: Extractor | None = None,
                 config: InspectConfig | None = None,
                 scheduler: Scheduler | str | None = None):
        self.config = config or InspectConfig()
        # registration checks, then publishes catalog rows and registry
        # entries: concurrent registrations must not interleave those
        # steps.  RLock: _register -> db property nests.
        self._reg_lock = threading.RLock()
        # per-query observability counters (served by Session.stats() and
        # the server's /stats endpoint)
        self._query_lock = threading.Lock()
        self._query_counts = {"started": 0, "completed": 0, "failed": 0,
                              "cancelled": 0, "streams_abandoned": 0}
        # SQL text -> parsed statement, in LRU order (under _query_lock);
        # counts: text found / parsed afresh / found, compilation stale
        self._statements: OrderedDict = OrderedDict()
        self._statement_counts = {"hits": 0, "misses": 0, "invalidated": 0}
        # redrawn by every register_*: compilations hold resolved objects
        self._registry_version = next_version()
        self.models: dict = {}
        self.hypotheses: dict[str, HypothesisFunction] = {}
        self.datasets: dict[str, Dataset] = {}
        # every argument is checked before the store directory is made
        if db is not None and db_path is not None:
            raise ValueError("pass either db= or db_path=, not both")
        self._db = db
        self._db_path = db_path
        self.extractor = extractor or RnnActivationExtractor()
        require_extractor(self.extractor, "extractor")
        # a scheduler pinned on config= wins over scheduler=, like every
        # pinned field; whichever names it, statements run on self.scheduler
        spec = (self.config.scheduler if self.config.scheduler is not None
                else scheduler)
        if spec is None:
            self.scheduler, owned = default_scheduler(), True
        else:
            self.scheduler, owned = _resolve_scheduler(spec)
        #: what the session's own tiers sit on; kept for stats()/close()/gc
        self.store = (DiskBehaviorStore(store_path)
                      if store_path is not None else None)
        if owned:
            # release the pool the session built when the session is
            # collected, not only on close()
            weakref.finalize(self, self.scheduler.shutdown)
        self._closed = False
        # a tier pinned on config= serves every query; an unpinned one is
        # the session's own, over its store
        cache, unit_cache = self.config.cache, self.config.unit_cache
        self.config = dataclasses.replace(
            self.config, scheduler=self.scheduler,
            cache=(HypothesisCache(store=self.store) if cache is None
                   else cache),
            unit_cache=(UnitBehaviorCache(store=self.store)
                        if unit_cache is None else unit_cache))
        #: the memory tiers every statement runs on: ``config``'s
        self.hyp_cache = self.config.cache
        self.unit_cache = self.config.unit_cache

    # -- lifecycle ------------------------------------------------------
    @property
    def db(self) -> Database:
        """The SQL catalog (created lazily on first use).

        ``db_path=`` opens a persistent on-disk catalog at that directory —
        reopening the same path restores every committed table, indexes
        included.  Without it, the ``REPRO_DB_PATH`` environment variable
        forces default sessions onto persistent catalogs (each under a
        fresh directory), so the whole test suite can exercise the table
        storage unchanged.
        """
        with self._reg_lock:  # concurrent first touch builds one catalog
            if self._db is None:
                path = self._db_path
                if path is None:
                    env = os.environ.get("REPRO_DB_PATH")
                    if env:
                        os.makedirs(env, exist_ok=True)
                        path = tempfile.mkdtemp(prefix="db-", dir=env)
                self._db = Database(path) if path is not None else Database()
            return self._db

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush the store and shut the scheduler pool down.

        A store-backed statement returns its frame before its behaviours
        are durable: its commit runs after it, and the flush here waits
        for that commit first, raising what it raised (a full disk).
        Idempotent; after closing, issuing queries through this session
        raises :class:`RuntimeError` (a shut-down pool would otherwise
        silently respawn its worker threads).  The held scheduler is shut
        down even when the caller supplied it; a scheduler shared with
        another *live* session stays usable there, lazily respawning its
        pool on next use.  Each of the three steps runs whatever an earlier
        one raised (a full disk under the flush must not leave the pool
        alive and the catalog uncommitted); the error then propagates.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self.store is not None:
                self.store.flush()
        finally:
            try:
                if self._db is not None:
                    self._db.close()  # commits staged catalog/score tables
            finally:
                self.scheduler.shutdown()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- registries -----------------------------------------------------
    def _register(self, what: str, registry: dict, objects: dict,
                  tables: dict) -> None:
        """Put ``objects`` in ``registry`` and their rows in the catalog.

        ``tables`` maps a catalog table to ``(key column, first-use
        columns, rows)``, rows as ``{column: value}`` dicts (``None``: only
        remove the keys' rows).  Every row is checked against the columns
        the first registration fixed before anything changes, so a refused
        call changes nothing.  Then each table publishes in one step: one
        append when no row holds a key yet (the table decides, not the
        registry: a reopened catalog has rows an empty registry lacks),
        else one swap of the table rebuilt with the keys' rows last.
        """
        self._check_open()
        keys = set(objects)
        with self._reg_lock:
            writes = []
            for name, (key, columns, rows) in tables.items():
                table = self.db.tables.get(name)
                if table is not None:
                    columns = table.columns
                elif rows is None:
                    continue
                expected = set(columns)
                for row in rows or ():
                    if row.keys() != expected:
                        raise ValueError(
                            f"{what} attributes {sorted(set(row) - {key})} "
                            f"do not match the catalog columns "
                            f"{sorted(expected - {key})} fixed by the "
                            f"first registration; register every {what} "
                            f"with the same attribute set")
                new = [[row[c] for c in columns] for row in rows or ()]
                if table is not None and not keys.isdisjoint(
                        table.column(key).tolist()):
                    at = table.col_index(key)
                    new = [r for r in table.rows if r[at] not in keys] + new
                    table = None
                writes.append((name, columns, table, new))
            for name, columns, table, rows in writes:
                if table is None:
                    self.db.create_table(name, columns, rows, replace=True)
                else:
                    table.insert_many(rows)
            registry.update(objects)
            self._registry_version = next_version()

    def register_model(self, mid: str, model, *, units=None, layer=0,
                       catalog: bool = True, **attrs) -> None:
        """Register a model under ``mid`` for both query surfaces.

        Also inserts catalog rows for the SQL frontend: one ``models`` row
        (``mid`` + ``attrs``) and — unless ``units=False`` — one ``units``
        row ``(mid, uid, layer)`` per hidden unit.  ``units`` may be an
        explicit unit-id sequence, a unit count, or ``None`` to take every
        unit the session extractor exposes.  ``catalog=False`` registers
        the Python object only.  Registering an existing ``mid`` again
        (e.g. a re-run notebook cell with a retrained model) replaces its
        catalog rows in one step, mirroring the registry overwrite.  A
        call whose ``attrs`` differ from the first registration's raises
        ``ValueError`` and changes nothing.
        """
        tables = {}
        if catalog:
            if units is None:
                units = self._n_units_of(model)  # None: Python surface only
            unit_rows = None if units is None or units is False else [
                {"mid": mid, "uid": int(u), "layer": layer} for u in
                (range(int(units)) if np.isscalar(units) else units)]
            tables = {"models": ("mid", ["mid"] + sorted(attrs),
                                 [{"mid": mid, **attrs}]),
                      "units": ("mid", ["mid", "uid", "layer"], unit_rows)}
        self._register("model", self.models, {mid: model}, tables)

    def _n_units_of(self, model) -> int | None:
        try:
            return int(self.extractor.n_units(model))
        except (AttributeError, NotImplementedError, TypeError):
            pass
        n = getattr(model, "n_units", None)
        return int(n) if n is not None else None

    def register_dataset(self, did: str, dataset: Dataset,
                         catalog: bool = True, **attrs) -> None:
        """Register a dataset under ``did`` (and as an ``inputs`` row);
        re-registering a ``did`` replaces its row in one step, and a call
        whose ``attrs`` differ from the first registration's raises
        ``ValueError`` and changes nothing."""
        attrs.setdefault("seq", "seq")
        tables = {"inputs": ("did", ["did"] + sorted(attrs),
                             [{"did": did, **attrs}])} if catalog else {}
        self._register("dataset", self.datasets, {did: dataset}, tables)

    def register_hypotheses(self, hypotheses, catalog: bool = True,
                            **attrs) -> None:
        """Register hypothesis functions by name (single or iterable).

        Each hypothesis lands in the registry under ``hypothesis.name`` and
        as a ``hypotheses`` catalog row ``(h, name, *attrs)``; ``name``
        defaults to the hypothesis's own name and serves as the label
        column queries filter on (``WHERE H.name = 'keywords'``).
        Re-registering names replaces their rows in one step; a call whose
        ``attrs`` differ from the first registration's raises
        ``ValueError`` and registers none of its hypotheses.
        """
        if isinstance(hypotheses, HypothesisFunction) \
                or not isinstance(hypotheses, Iterable):
            hypotheses = [hypotheses]
        # dedupe within the call exactly like the registry does (last
        # object under a name wins) so catalog rows match the registry
        by_name = {hyp.name: hyp for hyp in hypotheses}
        columns = ["h", "name"] + sorted(set(attrs) - {"name"})
        rows = [{"name": h, **attrs, "h": h} for h in by_name]
        self._register("hypothesis", self.hypotheses, by_name,
                       {"hypotheses": ("h", columns, rows)} if catalog else {})

    # -- name resolution ------------------------------------------------
    def _lookup(self, what: str, registry: dict, ref):
        """A registered object by name; anything else is taken as given."""
        if not isinstance(ref, str):
            return ref
        try:
            return registry[ref]
        except KeyError:
            raise KeyError(f"{what} {ref!r} is not registered with the "
                           f"session") from None

    def model(self, ref):
        """Resolve a model reference (registered name or live object)."""
        return self._lookup("model", self.models, ref)

    def dataset(self, ref=None) -> Dataset:
        """Resolve a dataset reference; ``None`` picks the sole registered
        dataset."""
        if ref is None:
            if len(self.datasets) != 1:
                raise ValueError(
                    f"dataset is required: the session registers "
                    f"{len(self.datasets)} datasets")
            return next(iter(self.datasets.values()))
        return self._lookup("dataset", self.datasets, ref)

    def hypothesis(self, ref) -> HypothesisFunction:
        """Resolve a hypothesis reference (registered name or object)."""
        return self._lookup("hypothesis", self.hypotheses, ref)

    # -- query surfaces -------------------------------------------------
    def effective_config(self) -> InspectConfig:
        """The per-run config: :attr:`config`, resolved in ``__init__``.

        Raises once the session is closed — every query path (builder,
        ``sql()``, and the lower-level ``run_inspect_spec`` entry points
        that take the session) takes its config here, so none of them
        can silently respawn a shut-down pool.
        """
        self._check_open()
        return self.config

    def inspect(self, models=None, dataset=None, *,
                extractor: Extractor | None = None) -> "InspectionQuery":
        """Start a fluent, lazy inspection query.

        ``models`` is one model (or registered name) or a list of them;
        ``dataset`` likewise resolves through the registry.  Nothing
        executes until :meth:`InspectionQuery.run` /
        :meth:`InspectionQuery.stream`.
        """
        self._check_open()
        return InspectionQuery(self, models=models, dataset=dataset,
                               extractor=extractor)

    def sql(self, statement: str) -> Frame:
        """Execute one SQL statement against the session catalog.

        Statements with an ``INSPECT`` clause compile through the shared
        inspection planner wired to this session's caches, store and
        scheduler; plain ``SELECT`` statements run on the columnar engine.
        """
        self._check_open()
        with self._track_query():
            return self._run(self._parsed(statement))

    def _parsed(self, statement: str):
        """The parsed statement, from the session's bounded statement
        cache: a parse depends on the text alone, and an INSPECT spec
        carries its compilation from run to run (:meth:`compiled`)."""
        with span("parse"), self._query_lock:
            parsed = self._statements.get(statement)
            self._statement_counts["misses" if parsed is None else "hits"] += 1
            if parsed is None:
                parsed = self._statements[statement] = parse_sql(statement)
                if len(self._statements) > _STATEMENT_SLOTS:
                    self._statements.popitem(last=False)
            else:
                self._statements.move_to_end(statement)
        return parsed

    def compiled(self, spec: InspectSpec):
        """``spec``'s compilation, reused from its last run while what it
        read is unchanged: the registry generation and the content stamps
        of exactly its FROM tables (``INTO scores`` leaves statements that
        never read ``scores`` compiled).  Stamps are taken before compiling:
        a concurrent change can only force a recompile, never a stale join."""
        with self._reg_lock:
            token = (self._registry_version,
                     *(getattr(self.db.tables.get(name), "version", None)
                       for name, _ in spec.tables))
        cached = spec.compiled
        if cached is None or cached[0] != token:
            if cached is not None:
                with self._query_lock:
                    self._statement_counts["invalidated"] += 1
            cached = spec.compiled = (token, _compile_inspect(self, spec))
        return cached[1]

    def _run(self, parsed) -> Frame:
        if isinstance(parsed, InspectSpec):
            return run_inspect_spec(self, parsed)
        with span("select"):
            rows = execute_select(self.db, parsed)
            return Frame.from_records(
                rows, columns=[item.alias for item in parsed.items])

    def stream_sql(self, statement: str) -> Iterator[Frame]:
        """Execute one SQL statement progressively.

        ``INSPECT`` statements yield one partial frame per processed
        behavior block — scores refining as records arrive — with the
        final frame bit-identical to :meth:`sql`'s result for the same
        statement (same planning path, same executor states).  Plain
        ``SELECT`` statements yield their single final frame.  Abandoning
        the iterator stops the run cleanly (no further extraction; the
        pending store scope flushes, an owned scheduler pool shuts down)
        and is counted as a cancelled query — the server's client-initiated
        cancellation rides on exactly this.
        """
        self._check_open()
        parsed = self._parsed(statement)
        if isinstance(parsed, InspectSpec):
            inner = stream_inspect_spec(self, parsed)
        else:
            inner = self._select_frames(parsed)
        return self._tracked_stream(inner)

    def _select_frames(self, parsed) -> Iterator[Frame]:
        yield self._run(parsed)

    # -- query accounting ----------------------------------------------
    def _count_query(self, *keys: str) -> None:
        with self._query_lock:
            for key in keys:
                self._query_counts[key] += 1

    @contextlib.contextmanager
    def _track_query(self):
        """Count one query's lifecycle (started -> completed/failed)."""
        self._count_query("started")
        try:
            yield
        except BaseException:
            self._count_query("failed")
            raise
        self._count_query("completed")

    def _tracked_stream(self, frames: Iterator[Frame]) -> Iterator[Frame]:
        """Wrap a progressive run with lifecycle counters.

        A consumer that abandons the iterator (``close()``, ``break``, a
        disconnecting websocket client) counts as a cancelled query and a
        stream abandonment; the inner generator's own cleanup (store
        flush, scheduler release) still runs via generator close
        propagation.
        """
        self._count_query("started")
        try:
            yield from frames
        except GeneratorExit:
            self._count_query("cancelled", "streams_abandoned")
            raise
        except BaseException:
            self._count_query("failed")
            raise
        self._count_query("completed")

    def stats(self) -> dict:
        """Cache/store/query counters for the session's shared resources.

        ``queries`` counts every query issued through the session surfaces
        (:meth:`sql`, :meth:`stream_sql`, the fluent builder): started,
        completed, failed, cancelled (abandoned streams included), plus
        ``streams_abandoned`` specifically — the numbers the server's
        ``/stats`` endpoint reports per deployment.  ``degraded`` is the
        process-wide count of graceful-degradation fallbacks per event
        (:func:`repro.util.debuglog.degradation_counts`).
        """
        out: dict = {
            "hypothesis_cache": self.hyp_cache.stats(),
            "unit_cache": self.unit_cache.stats()}
        if self.store is not None:
            out["store"] = self.store.stats()
        with self._query_lock:
            out["queries"] = dict(self._query_counts)
            out["statement_cache"] = {"entries": len(self._statements),
                                      **self._statement_counts}
        out["degraded"] = degradation_counts()
        return out

    def reset_counters(self) -> None:
        """Zero the cache counters; cached behaviors stay warm.

        Bracket a query with this and :meth:`stats` to see what that one
        query cost (hits served vs. fresh extractions).
        """
        self.hyp_cache.reset_counters()
        self.unit_cache.reset_counters()


class InspectionQuery:
    """A fluent, lazy inspection query bound to a :class:`Session`.

    Builder methods mutate and return the same query, so they chain::

        session.inspect("m0", "d0").using("corr").hypotheses(hyps).run()

    Compilation to an :class:`~repro.core.pipeline.InspectionPlan` happens
    in :meth:`plan`; :meth:`run` executes it to one result
    :class:`~repro.util.frame.Frame`, :meth:`stream` executes the same
    plan progressively, yielding a partial frame after every block (the
    final one bit-identical to :meth:`run`'s).
    """

    def __init__(self, session: Session, models=None, dataset=None,
                 extractor: Extractor | None = None):
        self._session = session
        self._models = models
        self._dataset = dataset
        self._extractor = extractor
        self._measures: list = []
        self._hypotheses: list = []
        self._units = None
        self._groups: list[UnitGroup] | None = None
        self._top_k: int | None = None
        self._overrides: dict = {}

    # -- builder steps --------------------------------------------------
    def using(self, *measures) -> "InspectionQuery":
        """Add affinity measures: registry names or Measure objects."""
        for measure in self._flatten(measures):
            if isinstance(measure, str):
                measure = get_measure(measure)
            elif not isinstance(measure, Measure):
                raise TypeError(f"expected a measure name or Measure, "
                                f"got {measure!r}")
            self._measures.append(measure)
        return self

    def hypotheses(self, *hypotheses) -> "InspectionQuery":
        """Add hypothesis functions: registered names or objects."""
        for hyp in self._flatten(hypotheses):
            self._hypotheses.append(self._session.hypothesis(hyp))
        return self

    def where(self, units=None,
              groups: list[UnitGroup] | None = None) -> "InspectionQuery":
        """Restrict the inspected units.

        ``units`` is a unit-id sequence applied to every model;
        ``groups`` supplies explicit :class:`UnitGroup` objects instead
        (and takes precedence over ``models``, which groups carry).
        """
        if units is not None:
            self._units = np.asarray(list(units), dtype=int)
        if groups is not None:
            self._groups = list(groups)
        return self

    def top_k(self, k: int) -> "InspectionQuery":
        """Keep only the ``k`` highest-|affinity| unit rows per
        (model, measure, hypothesis) in the result frame (group-affinity
        rows always survive)."""
        self._top_k = int(k)
        return self

    def with_config(self, **overrides) -> "InspectionQuery":
        """Override execution knobs (``mode=``, ``block_size=``, ...) on
        top of the session's effective config for this query only."""
        self._overrides.update(overrides)
        return self

    @staticmethod
    def _flatten(items) -> Iterator:
        for item in items:
            if isinstance(item, (str, Measure, HypothesisFunction)):
                yield item  # atoms, even if technically iterable
            elif isinstance(item, Iterable):
                yield from item
            else:
                yield item

    # -- compilation ----------------------------------------------------
    def _compile(self):
        session = self._session
        # a builder created before close() must not execute after it —
        # the shut-down scheduler pool would silently respawn its threads
        session._check_open()
        extractor = self._extractor or session.extractor
        if not self._measures:
            raise ValueError("no measures: call .using(...) first")
        if not self._hypotheses:
            raise ValueError("no hypotheses: call .hypotheses(...) first")
        groups = self._groups
        if groups is None:
            groups = model_groups(self._models, extractor, self._units,
                                  resolve=session.model)
        dataset = session.dataset(self._dataset)
        config = session.effective_config()
        if self._overrides:
            config = dataclasses.replace(config, **self._overrides)
        return groups, dataset, extractor, config

    def plan(self) -> InspectionPlan:
        """Compile (without executing) to an inspection plan."""
        groups, dataset, extractor, config = self._compile()
        return InspectionPlan.build(groups, dataset, self._measures,
                                    self._hypotheses, extractor, config)

    # -- execution ------------------------------------------------------
    def run(self) -> Frame:
        """Execute the query and return the result frame."""
        with self._session._track_query():
            return self._postprocess(outcomes_to_frame(self.plan().execute()))

    def stream(self) -> Iterator[Frame]:
        """Execute progressively: one partial frame per processed block.

        Each yielded frame carries the convergence state per row
        (``n_rows_seen`` / ``converged`` columns) plus
        ``frame.records_processed`` and ``frame.converged`` attributes;
        the final frame equals :meth:`run`'s bit for bit.  Abandoning the
        iterator stops the run cleanly (no further extraction; pending
        store commits flush) and counts as a cancelled query in
        :meth:`Session.stats`.
        """
        return self._session._tracked_stream(self._stream())

    def _stream(self) -> Iterator[Frame]:
        plan = self.plan()
        # closing(): the run's store scope flushes and owned pools stop
        # deterministically even if the consumer abandons the iterator
        with contextlib.closing(plan.execute_blocks()) as steps:
            for _ in steps:
                outcomes = plan.outcomes()
                frame = self._postprocess(outcomes_to_frame(outcomes))
                frame.records_processed = max(
                    (o.records_processed for o in outcomes), default=0)
                frame.converged = all(t.done or bool(t.col_converged.all())
                                      for t in plan.tasks)
                yield frame

    def _postprocess(self, frame: Frame) -> Frame:
        if self._top_k is None:
            return frame
        return _top_k_frame(frame, self._top_k)


def _top_k_frame(frame: Frame, k: int) -> Frame:
    """Keep the k highest-|val| unit rows per (model, score, hypothesis).

    Row order is preserved (rows are dropped, never reordered), so two
    identical frames stay identical after the cut; group-affinity rows are
    always kept.
    """
    if not len(frame):
        return frame
    kinds = frame.column("kind")
    vals = np.abs(frame.column("val", dtype=float))
    keys = list(zip(frame["model_id"], frame["score_id"], frame["hyp_id"]))
    by_group: dict[tuple, list[int]] = {}
    for i, (kind, key) in enumerate(zip(kinds, keys)):
        if kind == "unit":
            by_group.setdefault(key, []).append(i)
    keep = np.ones(len(frame), dtype=bool)
    for rows in by_group.values():
        if len(rows) <= k:
            continue
        # ties broken by original position, so the cut is deterministic
        ranked = sorted(rows, key=lambda i: (-vals[i], i))
        keep[ranked[k:]] = False
    idx = np.flatnonzero(keep)
    return Frame({name: [frame[name][i] for i in idx]
                  for name in frame.columns})
