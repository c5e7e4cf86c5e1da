"""Schedulers: who runs a plan's independent operator invocations (the
engine's pieces are introduced in :mod:`repro.core.pipeline`)."""

from __future__ import annotations

import contextlib
import contextvars
import multiprocessing
import os
import shutil
import tempfile
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor

from repro.store import DiskBehaviorStore


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a container pinned to one core of a many-core machine is a
    one-CPU host), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def gathering(futures: list[Future]):
    """A scope over submitted ``futures`` yielding their gatherer:
    ``gather()`` returns their results in order.  However the scope ends
    — gathered, a result raised, or the body raised first — what has not
    started is cancelled and what has is waited for on the way out: a
    sweep may write through the caches, so none outlives the caller's
    store scope."""
    try:
        yield lambda: [future.result() for future in futures]
    finally:
        for future in futures:
            if not future.cancel():
                future.exception()


class Scheduler:
    """Executes a plan's independent operator invocations.

    ``map`` returns results in input order, so plans produce identical
    frames under every scheduler; ``submit`` hands over one thunk and
    returns a Future of its result.  The block executor submits a block's
    sweeps before labelling it and gathers them after, on every
    scheduler: a pool sweeps while the caller labels, an inline scheduler
    has swept by the time ``submit`` returns.
    """

    name = "scheduler"

    def map(self, fn, items: list) -> list:
        raise NotImplementedError

    def submit(self, fn) -> Future:
        """``fn()``'s result as a Future.  Inline here: ``fn`` runs at
        submission and what it raises propagates from this call, so a
        serial run stops at the first failing sweep."""
        future: Future = Future()
        future.set_result(fn())
        return future

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

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers or min(8, usable_cpus())
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
        with gathering([self._in_pool(fn, item) for item in items]) as gather:
            return gather()

    def submit(self, fn) -> Future:
        # always through the pool: even a 1-worker pool overlaps a
        # submitted sweep with the caller's hypothesis extraction (numpy
        # releases the GIL inside BLAS and ufunc loops)
        return self._in_pool(fn)

    def _in_pool(self, fn, *args) -> Future:
        """``fn(*args)`` on a pool thread, in its own copy of the caller's
        context: a trace span opened there joins the caller's tree."""
        return self._ensure_pool().submit(
            contextvars.copy_context().run, fn, *args)

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


class ProcessPoolScheduler(SerialScheduler):
    """Executes shard tasks across worker processes (cold extraction).

    The coordinator describes extraction as picklable
    :class:`~repro.core.shard.ShardTask` values; workers run the raw
    sweeps and write shard files into the exchange store; the coordinator
    mmaps the results back into the memory-tier caches and runs scoring
    inline (``map`` and ``submit`` are the serial scheduler's: closures
    over live measure states cannot cross the process boundary), so
    frames are bit-identical to the serial scheduler's.

    ``mp_context`` picks the multiprocessing start method (``"fork"``,
    ``"spawn"``, ``"forkserver"`` or a context object); tasks carry
    models by content (arch spec + parameter arrays) rather than
    pickle-by-reference, so both fork and spawn work.  A session without
    its own disk store borrows :meth:`scratch_store` — a temp-dir
    exchange store that lives (and keeps behaviors warm) until
    :meth:`shutdown` removes it.
    """

    name = "processes"

    def __init__(self, max_workers: int | None = None,
                 mp_context: str | None = None):
        self.max_workers = max_workers or usable_cpus()
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._scratch: tuple[str, DiskBehaviorStore] | None = None
        # concurrent queries on one session share this scheduler: pool and
        # scratch-store creation must be single-flight or one of the two
        # racing pools (or temp dirs) leaks
        self._pool_lock = threading.Lock()

    def shard_workers(self) -> int:
        """Worker slots available to shard tasks (sizes task chunking)."""
        return self.max_workers

    def submit_shards(self, tasks: list) -> list:
        """Submit shard tasks; returns one future per task."""
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
            # publish first: a stream still open over the scratch store
            # must find nothing pending when its scope closes afterwards
            scratch[1].close()
            shutil.rmtree(scratch[0], ignore_errors=True)


def default_scheduler(store: DiskBehaviorStore | None = None) -> Scheduler:
    """The scheduler a session should run with on this machine.

    Selection rules:

    * ``REPRO_SCHEDULER`` (``serial`` / ``threads`` / ``processes``)
      overrides everything — the CI lever that forces the whole suite
      through one scheduler.
    * One usable CPU (:func:`usable_cpus`) gets the serial scheduler:
      neither pool can win there, and GIL/spawn overhead makes both
      strictly slower.
    * Anything else gets the thread pool — numpy releases the GIL for
      sweeps, scoring and multi-model extraction, and a store-backed
      statement commits in-process: one segment, no exchange probe.
      Serial loses to it on the benchmark's ``cold_sweep`` under the
      contract command (2 CPUs: 247–254 against 153–160 ms), because the
      pool overlaps the checkpoints' sweeps with the labelling.

    ``store`` is unused (the benchmark's replay passes it): a store no
    longer enters the choice.  The process pool is opt-in, by name, and
    stays because it wins on the far side of a measured crossover (PR 23,
    cold store-backed ``inspect_one``, 2 CPUs): at the benchmark's base
    scale threads take 0.84x of processes' time — spawn, pickling and the
    exchange read-back are a constant — while at 4,096 records x 128
    units, sweeps growing with records x units^2, processes took a median
    0.80x of threads' (ahead in 6 of 8 rounds).  Choosing between them by
    cost needs a benchmark workload on each side (ROADMAP direction 2).
    """
    forced = os.environ.get("REPRO_SCHEDULER", "").strip()
    if forced:
        return _resolve_scheduler(forced)[0]
    if usable_cpus() <= 1:
        return SerialScheduler()
    return ThreadPoolScheduler()


_SCHEDULERS = {"serial": SerialScheduler, "threads": ThreadPoolScheduler,
               "processes": ProcessPoolScheduler}


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
