"""Picklable shard tasks + the process-pool exchange (coordinator side).

The process scheduler cannot ship closures over live plan objects to
workers, so a plan's extraction work is first *described* as
self-contained :class:`ShardTask` values — plain data: store keys, record
ids, symbol sub-matrices, and models/extractors/hypotheses encoded by
content (:func:`repro.nn.serialize.model_to_spec` for registry models,
pickle-by-value otherwise) — and only then *executed*.  One task is one
dataset-block chunk of one (model, raw-extractor) pair, or a bundle of
hypothesis columns.

The mmap'd :class:`~repro.store.DiskBehaviorStore` is the exchange
medium, with a strict division of labor:

* **workers** (:func:`run_shard_task`) run the raw sweeps and write one
  fsynced segment file per task (a 36-hypothesis bundle is one file, one
  fsync) straight into the store's shard directory — they never touch
  the manifest, so the flock'd single-commit-point protocol is untouched;
* the **coordinator** (:class:`ShardExchange`) adopts the returned shard
  descriptors into the store's pending queue (one manifest rewrite per
  run, exactly as serial), which maps the segment once and hands back
  validated views to fill the session's memory-tier caches from, and
  folds worker-side counters (extractions, forward sweeps) back into the
  live objects so extraction-once assertions stay meaningful.

Scoring and convergence never leave the coordinator: once the caches are
filled, the unchanged serial executor loop reads behaviors out of them,
which is what keeps process-scheduler frames bit-identical to serial.

Anything that cannot be described — an unpicklable model, extractor or
hypothesis, a failed worker — simply stays out of the task list (or is
dropped on collect): the records are then extracted inline by the
executor exactly as under the serial scheduler, so degradation is graceful
and never changes results.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.cache import (HypothesisCache, hyp_store_key,
                              model_fingerprint, model_id, panel_store_key,
                              unit_store_key)
from repro.core.schedulers import ProcessPoolScheduler
from repro.hypotheses.base import extract_columns
from repro.store.disk import SHARD_DIR, write_segment
from repro.store.segment import CorruptEntryError
from repro.util.debuglog import degraded
from repro.util.trace import current, span

#: hypothesis columns a worker evaluates (and holds) at once, in bytes
_HYP_PANEL_BYTES = 16 * 1024 * 1024

#: per-worker-process sequence for segment file names
_WORKER_SEQ = itertools.count()

#: per-worker-process decode cache: store-key prefix -> (model, extractor),
#: ("ds", dataset_key) -> dataset.  Pools are long-lived, so one pair
#: shipped in k chunks is decoded once per worker, not once per task.
_WORKER_OBJECTS: dict = {}


# ----------------------------------------------------------------------
# payload encoding (coordinator) / decoding (worker)
# ----------------------------------------------------------------------
def encode_model(model) -> dict:
    """Model as plain data: an arch spec when possible, pickle otherwise.

    Registry models (anything with ``architecture()`` +
    ``named_parameters()``) travel as content — arch dict + exact
    parameter arrays — so spawn contexts rebuild them without importing
    the coordinator's live state; everything else falls back to
    pickle-by-value.  Raises when neither works (the caller then leaves
    those records to inline extraction).
    """
    arch = getattr(model, "architecture", None)
    named = getattr(model, "named_parameters", None)
    # an instance shadowing a class attribute with a callable (a patched
    # method) is not the model its arch spec rebuilds: by value or inline
    patched = any(callable(value) and hasattr(type(model), name)
                  for name, value in getattr(model, "__dict__", {}).items())
    if callable(arch) and callable(named) and not patched:
        try:
            from repro.nn.serialize import model_to_spec
            return {"kind": "spec", "spec": model_to_spec(model)}
        except Exception as exc:  # non-registry arch: fall through to pickle
            degraded("shard.model-spec-fallback",
                     type(model).__name__, exc=exc)
    return {"kind": "pickle", "blob": pickle.dumps(model)}


def decode_model(payload: dict):
    if payload["kind"] == "spec":
        from repro.nn.serialize import model_from_spec
        return model_from_spec(payload["spec"])
    return pickle.loads(payload["blob"])


class _SweepCounter:
    """Delegating wrapper counting ``hidden_states`` sweeps in a worker.

    The count travels back in the task result so the coordinator can fold
    it into the live model (see ``ShardExchange._collect``), keeping
    ``forward_calls``-style instrumentation meaningful across processes.
    """

    def __init__(self, model):
        self._model = model
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def hidden_states(self, ids):
        self.calls += 1
        return self._model.hidden_states(ids)


# ----------------------------------------------------------------------
# the task (plain, picklable data)
# ----------------------------------------------------------------------
@dataclass
class ShardTask:
    """One self-contained unit of extraction work for a worker process.

    ``kind == "unit"``: run one raw sweep over ``symbols`` (the dataset
    rows for ``indices``, already sliced so workers never need the full
    dataset) and persist it unit-major under ``store_key``.

    ``kind == "hyp"``: evaluate a bundle of hypothesis columns
    (``items``, with the hypotheses themselves in ``hypotheses_blob``)
    over the pickled dataset.
    """

    kind: str                       # "unit" | "hyp"
    store_root: str                 # exchange store root directory
    n_records: int                  # dataset record count (entry geometry)
    n_symbols: int
    # unit tasks
    store_key: str | None = None
    model_payload: dict | None = None
    extractor_blob: bytes | None = None
    indices: np.ndarray | None = None   # record ids to extract
    symbols: np.ndarray | None = None   # dataset.symbols[indices]
    # hypothesis tasks: items = [(member key, record ids), ...], aligned
    # with the list pickled *as one value* in hypotheses_blob, so objects
    # the bundle's hypotheses share (a ParseProvider and its trees) cross
    # the process boundary, and are rebuilt in the worker, once
    dataset_key: str | None = None
    dataset_blob: bytes | None = None
    hypotheses_blob: bytes | None = None
    items: list = field(default_factory=list)


def _write_task_segment(task: ShardTask, entries) -> list[dict]:
    """Write a task's ``(store key, record ids, rows, members)`` results
    as one fsynced segment; return its adoption descriptors.

    Names carry a ``w`` prefix plus pid, a per-process sequence and a
    random component, so concurrent workers (and leftovers of crashed
    runs) can never collide with each other or with the coordinator's
    clock-named segments.
    """
    shard_dir = Path(task.store_root) / SHARD_DIR
    shard_dir.mkdir(parents=True, exist_ok=True)
    name = f"w{os.getpid()}-{next(_WORKER_SEQ)}-{uuid.uuid4().hex[:8]}.seg"
    return write_segment(
        shard_dir / name,
        ((key, task.n_records, [indices], [rows], members)
         for key, indices, rows, members in entries))


def run_shard_task(task: ShardTask) -> dict:
    """Worker entry point: execute one task, return descriptors + counts.

    Module-level (importable) so both fork and spawn pool contexts can
    run it.  Returns ``{"descriptors": [...], "extractions": n,
    "forward_sweeps": n, "spans": [(name, seconds), ...]}`` — the spans
    are what the task timed of itself, for the coordinator's trace.
    """
    if task.kind == "unit":
        return _run_unit_task(task)
    if task.kind == "hyp":
        return _run_hyp_task(task)
    raise ValueError(f"unknown shard task kind {task.kind!r}")


def _run_unit_task(task: ShardTask) -> dict:
    pair_key = task.store_key.rsplit("/", 1)[0]
    cached = _WORKER_OBJECTS.get(pair_key)
    if cached is None:
        cached = (decode_model(task.model_payload),
                  pickle.loads(task.extractor_blob))
        _WORKER_OBJECTS[pair_key] = cached
    model, extractor = cached
    counter = _SweepCounter(model)
    ns = task.n_symbols
    start = time.perf_counter()
    block = extractor.raw_rows(counter, task.symbols)
    swept = time.perf_counter() - start
    if block.shape[0] != task.indices.shape[0] * ns:
        raise ValueError(
            f"extractor row mismatch: expected {task.indices.shape[0] * ns} "
            f"rows, got {block.shape[0]}")
    # the layout the unit tier holds and the store keeps: unit-major,
    # records in id order
    order = np.argsort(task.indices)
    units = np.asarray(block).reshape(task.indices.shape[0], ns, -1)
    return {"descriptors": _write_task_segment(
                task, [(task.store_key, task.indices[order],
                        units.transpose(2, 0, 1).take(order, axis=1),
                        None)]),
            "extractions": 1, "forward_sweeps": counter.calls,
            "spans": [(f"sweep[{model_id(model)}]", swept)]}


def _run_hyp_task(task: ShardTask) -> dict:
    ds_key = ("ds", task.dataset_key)
    dataset = _WORKER_OBJECTS.get(ds_key)
    if dataset is None:
        dataset = pickle.loads(task.dataset_blob)
        _WORKER_OBJECTS[ds_key] = dataset
    hypotheses = pickle.loads(task.hypotheses_blob)
    start = time.perf_counter()
    descriptors = _write_task_segment(
        task, _hyp_entries(task, hypotheses, dataset))
    return {"descriptors": descriptors,
            "extractions": len(task.items), "forward_sweeps": 0,
            "spans": [("hypothesis_bundle", time.perf_counter() - start)]}


def _hyp_entries(task: ShardTask, hypotheses: list, dataset):
    """A bundle's ``(panel key, record ids, rows, members)``, evaluated —
    and stored — a panel at a time: neighbours missing the same records,
    ``_HYP_PANEL_BYTES`` of float64 columns at most.  A generator: a panel
    is written, then released, before the next, so a worker never holds
    the whole bundle."""
    paired = zip(task.items, hypotheses)
    for _, run in itertools.groupby(paired, key=lambda e: e[0][1].tobytes()):
        run = list(run)
        indices = run[0][0][1]
        width = max(1, _HYP_PANEL_BYTES
                    // max(1, 8 * indices.shape[0] * dataset.n_symbols))
        for start in range(0, len(run), width):
            panel = run[start:start + width]
            block = extract_columns([hyp for _, hyp in panel], dataset,
                                    indices)
            members = [member for (member, _), _ in panel]
            yield (panel_store_key(task.dataset_key, members), indices,
                   block.reshape(indices.shape[0], -1), members)


# ----------------------------------------------------------------------
# task description (pure: no execution, no side effects beyond probing)
# ----------------------------------------------------------------------
def _store_missing(store, wanted: list[tuple]) -> list[np.ndarray]:
    """Per ``(store key, missing records, row width)``: the records the
    committed store lacks too (warm runs dispatch nothing) — one manifest
    check for the lot, and none for keys with nothing missing."""
    keys = [key for key, missing, _ in wanted if missing.shape[0]]
    readers = dict(zip(keys, store.readers(keys)))
    return [missing if (reader := readers.get(key)) is None
            or reader.row_width != row_width
            else missing[~reader.filled_mask(missing)]
            for key, missing, row_width in wanted]


def _chunk_spans(n_positions: int, block_size: int,
                 workers: int) -> list[tuple[int, int]]:
    """Split record positions into <= ``workers`` block-aligned spans.

    Aligning chunk boundaries to the executor's block grid means
    ``ensure(sl)`` waits on exactly the chunks a block overlaps; capping
    the chunk count at the worker count keeps worker-side extraction
    batches as large as serial's (extraction/sweep counters then match
    the serial run on single-block workloads).
    """
    n_blocks = max(1, -(-n_positions // block_size))
    n_chunks = max(1, min(n_blocks, workers))
    spans = []
    for split in np.array_split(np.arange(n_blocks), n_chunks):
        if split.shape[0] == 0:
            continue
        lo = int(split[0]) * block_size
        hi = min(int(split[-1] + 1) * block_size, n_positions)
        spans.append((lo, hi))
    return spans


def _pickle_or_none(obj) -> bytes | None:
    try:
        return pickle.dumps(obj)
    except Exception as exc:
        degraded("shard.unpicklable", type(obj).__name__, exc=exc)
        return None


class _Dispatch:
    """One in-flight task: its future, position span and fill recipe."""

    def __init__(self, future, lo: int, hi: int, kind: str, fills: dict,
                 model=None):
        self.future = future
        self.lo = lo
        self.hi = hi
        self.kind = kind
        # unit store key -> (model key, raw key); member key -> hypothesis
        self.fills = fills
        self.model = model      # live coordinator model (counter folding)
        self.collected = False


class ShardExchange:
    """Coordinator half of shard-parallel extraction.

    ``dispatch()`` describes and submits every task the caches cannot
    already serve; ``ensure(sl)`` blocks on (and integrates) the tasks a
    block slice needs before the executor reads it; ``close()`` cancels
    what never started and integrates what did, so an abandoned stream
    leaks neither processes nor uncommitted shard files.  The exchange
    holds no commit scope: adopted shards become visible in the one
    commit of the plan's scope over the same store.
    """

    def __init__(self, source, scheduler, store):
        self.source = source
        self.scheduler = scheduler
        self.store = store
        self._dispatched: list[_Dispatch] = []

    @classmethod
    def build(cls, source, scheduler) -> "ShardExchange | None":
        """An exchange for this run, or None when one cannot help.

        Requires the process scheduler and one disk store to exchange
        through: the one the run's tiers sit on (a session's own, or the
        scheduler's scratch store), whose commit scope the plan holds.
        Tiers on two stores, or on none, extract inline.
        """
        if not isinstance(scheduler, ProcessPoolScheduler):
            return None
        stores = source.stores()
        if len(stores) != 1 or source.n_records == 0:
            return None
        return cls(source, scheduler, stores[0])

    # -- dispatch --------------------------------------------------------
    def dispatch(self) -> None:
        """Describe the cold extraction work and submit it to the pool."""
        described = (self._describe_unit_tasks()
                     + self._describe_hyp_tasks())
        if not described:
            return
        futures = self.scheduler.submit_shards(
            [task for _, task, _, _ in described])
        self._dispatched = [
            _Dispatch(future, lo, hi, task.kind, fills, model)
            for future, ((lo, hi), task, fills, model)
            in zip(futures, described)]

    def _describe_unit_tasks(self) -> list:
        source = self.source
        config = source.config
        if config.unit_cache is None:
            return []
        dataset = source.dataset
        ns = dataset.n_symbols
        workers = self.scheduler.shard_workers()
        pairs = []      # (model, extractor, model_key, raw_key, store_key)
        wanted = []     # per pair, for _store_missing
        for (_, raw_key), members in source.extraction_pairs().items():
            _, first = members[0]
            model = first.model
            ext = first.extractor or source.default_extractor
            model_key = source.key_of(model, model_fingerprint)
            store_key = unit_store_key(model_key, raw_key,
                                       dataset.cache_key())
            missing = config.unit_cache.missing_records(
                dataset, source.order, model_key=model_key, raw_key=raw_key)
            pairs.append((model, ext, model_key, raw_key, store_key))
            wanted.append((store_key, missing, ext.raw_width(model) * ns))
        described = []
        for (model, ext, model_key, raw_key, store_key), missing in zip(
                pairs, _store_missing(self.store, wanted)):
            if missing.shape[0] == 0:
                continue
            try:
                payload = encode_model(model)
            except Exception as exc:
                # unpicklable model: inline extraction covers it
                degraded("shard.model-unpicklable",
                         type(model).__name__, exc=exc)
                continue
            ext_blob = _pickle_or_none(ext)
            if ext_blob is None:
                continue
            missing_mask = np.zeros(dataset.n_records, dtype=bool)
            missing_mask[missing] = True
            fills = {store_key: (model_key, raw_key)}
            for lo, hi in _chunk_spans(source.n_records, config.block_size,
                                       workers):
                ids = source.order[lo:hi]
                ids = ids[missing_mask[ids]]
                if ids.shape[0] == 0:
                    continue
                task = ShardTask(
                    kind="unit", store_root=str(self.store.root),
                    n_records=dataset.n_records, n_symbols=ns,
                    store_key=store_key, model_payload=payload,
                    extractor_blob=ext_blob, indices=ids,
                    symbols=dataset.symbols[ids])
                described.append(((lo, hi), task, fills, model))
        return described

    def _describe_hyp_tasks(self) -> list:
        source = self.source
        config = source.config
        if config.cache is None or not source.hypotheses:
            return []
        dataset = source.dataset
        # every hypothesis is about to be filled (by a worker bundle, from
        # the store, or inline): size the tier's arena once, up front
        config.cache.reserve(dataset, source.hypotheses)
        members = [hyp_store_key(dataset.cache_key(),
                                 HypothesisCache._hypothesis_identity(hyp))
                   for hyp in source.hypotheses]
        missing = [config.cache.missing_records(dataset, source.order,
                                                hypothesis=hyp)
                   for hyp in source.hypotheses]
        # nor is what a committed panel holds (warm runs dispatch nothing)
        for reader, held, _ in self.store.panels(members, dataset.n_symbols):
            for pos in held:
                missing[pos] = missing[pos][
                    ~reader.filled_mask(missing[pos])]
        # (member key, hypothesis, missing record ids)
        items = [item for item in zip(members, source.hypotheses, missing)
                 if item[2].shape[0]]
        if not items:
            return []
        dataset_blob = _pickle_or_none(dataset)
        if dataset_blob is None:
            return []  # dataset can't travel: all hyps stay inline
        workers = self.scheduler.shard_workers()
        described = []
        n_tasks = max(1, min(len(items), workers))
        # hypothesis blocks are read from position 0 on, so every bundle
        # spans the whole run: the first ensure() waits for all of them
        span = (0, source.n_records)
        for bundle_idx in np.array_split(np.arange(len(items)), n_tasks):
            bundle = [items[int(i)] for i in bundle_idx]
            try:
                blob = pickle.dumps([hyp for _, hyp, _ in bundle])
            except Exception:  # repro: allow[REP005]
                # some member can't travel (e.g. a lambda hypothesis): it
                # extracts inline — _pickle_or_none reports each one as
                # degraded — and the rest of the bundle still ships
                bundle = [item for item in bundle
                          if _pickle_or_none(item[1]) is not None]
                blob = pickle.dumps([hyp for _, hyp, _ in bundle])
            if not bundle:
                continue
            task = ShardTask(
                kind="hyp", store_root=str(self.store.root),
                n_records=dataset.n_records, n_symbols=dataset.n_symbols,
                dataset_key=dataset.cache_key(), dataset_blob=dataset_blob,
                hypotheses_blob=blob,
                items=[(key, missing) for key, _, missing in bundle])
            described.append(
                (span, task, {key: hyp for key, hyp, _ in bundle}, None))
        return described

    # -- integration -----------------------------------------------------
    def ensure(self, sl: slice) -> None:
        """Integrate every task overlapping record positions ``sl`` (plus
        any already-finished ones, opportunistically)."""
        for dispatch in self._dispatched:
            if dispatch.collected:
                continue
            overlaps = dispatch.lo < sl.stop and sl.start < dispatch.hi
            if overlaps or dispatch.future.done():
                bucket = ("unit_extraction" if dispatch.kind == "unit"
                          else "hypothesis_extraction")
                with span(bucket):
                    self._collect(dispatch)

    def _collect(self, dispatch: _Dispatch) -> None:
        dispatch.collected = True
        try:
            result = dispatch.future.result()
        except Exception as exc:
            # worker died or task failed: those records extract inline
            degraded("shard.worker-failed",
                     f"span {dispatch.lo}:{dispatch.hi}", exc=exc)
            return
        config = self.source.config
        dataset = self.source.dataset
        descriptors = result["descriptors"]
        try:
            # the task's shards join the run's pending queue and become
            # visible in its one manifest commit
            arrays = self.store.adopt_segment(descriptors)
        except CorruptEntryError as exc:
            # segment vanished (concurrent gc): extracts inline
            degraded("shard.files-vanished",
                     f"span {dispatch.lo}:{dispatch.hi}", exc=exc)
            arrays = []
        for desc, (indices, rows) in zip(descriptors, arrays):
            if desc["members"] is not None:  # a panel commits together
                config.cache.fill_block(
                    dataset, [dispatch.fills[member]
                              for member in desc["members"]], indices, rows)
            elif (fill := dispatch.fills.get(desc["key"])) is not None:
                config.unit_cache.fill_rows(dataset, indices, rows,
                                            model_key=fill[0],
                                            raw_key=fill[1])
        tier = (config.unit_cache if dispatch.kind == "unit"
                else config.cache)
        if tier is not None:
            tier.fold_counts(extractions=result["extractions"])
        for name, seconds in result["spans"]:
            current().attach(name, seconds)
        sweeps = result.get("forward_sweeps", 0)
        if sweeps and dispatch.model is not None:
            calls = getattr(dispatch.model, "forward_calls", None)
            if isinstance(calls, int):
                dispatch.model.forward_calls = calls + sweeps

    def close(self) -> None:
        """Cancel never-started tasks and integrate the rest, so their
        shards join the run's commit (idempotent)."""
        for dispatch in self._dispatched:
            if dispatch.collected:
                continue
            if dispatch.future.cancel():
                dispatch.collected = True
            else:  # running or done: integrate so its shards commit
                self._collect(dispatch)
