"""On-disk, memory-mapped behavior store.

Layout under the store root::

    manifest.json                   -- committed entry metadata (atomic rename)
    .lock                           -- advisory inter-process write lock
    shards/<seq>-<pid>.seg          -- one segment per commit

An *entry* holds behaviors for one logical key as a sequence of
append-only *shards*: a block of rows plus the record ids they belong to.
A plain entry is one thing per row.  A **unit entry** (the raw unit
behaviors of one model fingerprint, raw extractor identity, dataset hash
triple) is stored in the unit tier's own layout: a shard is one
``(raw_width, rows, n_symbols)`` blob, its records in id order, so a shard
holding every record is the tier's matrix as it stands and is served as
the mapping itself (:attr:`StoreEntryReader.whole`).  A **panel**
stores what was extracted together, together: its manifest record carries
``members`` (one key per hypothesis, in column order) and a row is a
record's ``(symbols, len(members))`` cells — the block the hypothesis tier
evaluated, appended and gathered back as it stands.  The store indexes
``member -> (panel, column)`` per manifest (:meth:`DiskBehaviorStore
.panels`); a member several panels hold is served from any that holds the
record.

A panel shard reaches disk at label width: the flush writes it in the
first of the entry's own dtype, ``uint8`` and ``float64`` that every cell
round-trips through bit for bit (``narrow.astype(float64)`` has the 64
bits of the appended cell), so a 0/1 or small-count panel is a ``|u1``
blob while ``-0.0``, NaN, ``0.5``, ``-1`` or ``256`` keep it ``<f8``.
Readers widen what they gather back to float64.  Unit and plain entries
are written in the dtype they were appended in.  A shard no dtype of its
entry holds exactly replaces the entry wholesale (see :meth:`
DiskBehaviorStore.append`), so a wrong cell is never served.

The directory is a :class:`~repro.store.segment.SegmentDirectory` with
``entries`` as its catalog, committed as the table storage commits.  The
store is a cache: a manifest this build does not read is reported once and
read as empty (:class:`_CacheDirectory`), its entries re-extract.  Manifest
version 6 (``seq``, also the recency clock, where 5 had ``clock``):
versions 1 (file pairs), 2 (an entry per hypothesis), 3 (record-major unit
rows), 4 (``<f8`` panels only: a build that old would square ``uint8``
counts with overflow) and 5 read as empty; :meth:`DiskBehaviorStore.gc`
sweeps their files.

A commit is a **group commit**: :meth:`DiskBehaviorStore.append` queues
rows; :meth:`DiskBehaviorStore.flush` writes everything queued, one shard
per entry, back to back into **one segment file** (:func:`write_segment`),
and then commits the manifest, where a shard record is ``file`` +
``file_bytes`` (the segment and its total size) and an ``[offset,
nbytes]`` span each for ``data`` and ``index``.  Standalone appends flush
immediately; the plan engine wraps a whole run in
:meth:`DiskBehaviorStore.deferred_commits` so a cold streaming inspection
pays one segment and one manifest rewrite — two fsyncs — in total, and
pays them **after its frame**: the scope's exit hands its batch to a
commit on a thread of its own (one in flight per store directory in a
process, in order), and every other entry point of every handle on that
directory — :meth:`~DiskBehaviorStore.flush`, the reads,
:meth:`~DiskBehaviorStore.gc`, :meth:`~DiskBehaviorStore.close` — waits
for it first.  That commit belongs to no statement's trace (the frame is
back before it ends); its seconds are the store's ``commit_s``.  The
store is a cache of extraction: a commit lost to a crash costs a later
session a re-extraction, never a wrong row.  A commit that fails
publishes nothing, as a synchronous one does, and its error is raised by
the next explicit :meth:`~DiskBehaviorStore.flush`,
:meth:`~DiskBehaviorStore.close`, :meth:`~DiskBehaviorStore.drop` or
:meth:`~DiskBehaviorStore.gc` — never by a read or an append.

Reads go through :class:`StoreEntryReader`, which takes validated zero-copy
views out of the directory's one read-only map per segment and gathers
requested record rows directly out of them, so serving a block slice
touches only the pages that block needs.  A segment
whose size disagrees with the manifest, a span running past it, an npy
header that disagrees with the entry's geometry (truncated write, torn
copy) or ``members`` that do not divide a panel's rows invalidates the
whole entry: it is dropped and re-extracted, never served.

Eviction is least-recently-used at entry granularity (a panel leaves
whole) against a budget on the **bytes on disk of live segment files**: a
segment is unlinked when its last entry leaves, and until then its dead
bytes count.  ``max_bytes=None`` disables automatic GC (``gc(max_bytes)``
can still be called explicitly).
"""

from __future__ import annotations

import contextlib
import contextvars
import mmap
import os
import threading
import time

import numpy as np

from repro.store.segment import (CorruptEntryError, ManifestError,
                                 SegmentDirectory, blob, write_blob)
from repro.util.debuglog import degraded

_VERSION = 6
#: what a manifest shard record keeps of a :func:`write_segment` descriptor
_SHARD_FIELDS = ("file", "file_bytes", "rows", "data", "index")


#: per store directory (real path), the commit this process handed off
#: last: each one joins the one before it, and every handle on the
#: directory settles it before it reads or commits
_HANDED_OFF: dict[str, threading.Thread] = {}
_HANDED_OFF_LOCK = threading.Lock()


def write_segment(f, name: str, entries) -> list[dict]:
    """Write ``(key, n_records, indices, rows, members)`` entries into
    segment ``name`` (open as ``f``); ``indices`` and ``rows`` are each a
    list of parts that stack into the entry's one shard (:func:`write_blob`)
    — for a unit entry one ``(raw_width, rows, n_symbols)`` part, its
    records in id order.  Rows then record ids, entry after entry.  Returns
    one descriptor per entry — the manifest shard record
    (``_SHARD_FIELDS``) plus the entry's key, geometry, ``n_symbols`` (None
    unless a unit entry) and ``members`` (None unless a panel).
    """
    descriptors = []
    for key, n_records, indices, rows, members in entries:
        rows = [np.ascontiguousarray(part) for part in rows]
        indices = [np.asarray(part, dtype=np.int64) for part in indices]
        first = rows[0]
        if first.ndim == 3:   # a unit entry's one part
            width, n_rows, ns = first.shape
            width *= ns
        else:
            width, n_rows, ns = (first.shape[1],
                                 sum(len(part) for part in rows), None)
        descriptors.append(
            {"key": key, "n_records": int(n_records), "members": members,
             "n_symbols": ns, "row_width": int(width),
             "dtype": first.dtype.str, "file": name,
             "rows": int(n_rows),
             "data": write_blob(f, rows),
             "index": write_blob(f, indices)})
    return [dict(desc, file_bytes=f.tell()) for desc in descriptors]


def _shard_arrays(segment: mmap.mmap, shard: dict, key: str, meta: dict):
    """Validated ``(record ids, rows)`` views of one shard record of the
    entry whose geometry ``meta`` gives."""
    rows, width, ns = int(shard["rows"]), int(meta["row_width"]), \
        meta["n_symbols"]
    idx = blob(segment, shard["index"], (rows,), np.dtype(np.int64),
               f"{key}: index in {shard['file']}")
    block = blob(segment, shard["data"],
                 (width // ns, rows, ns) if ns else (rows, width),
                 np.dtype(meta["dtype"]), f"{key}: rows in {shard['file']}")
    if rows and (idx.min() < 0 or idx.max() >= meta["n_records"]):
        raise CorruptEntryError(f"{key}: shard in {shard['file']} names "
                                f"records outside 0..{meta['n_records']}")
    return idx, block


def _unit_shard(key: str, n_records: int, indices: list, parts: list,
                members) -> tuple:
    """The :func:`write_segment` entry of the records ``indices`` names of
    the unit matrix ``parts[0]``: in id order, the matrix as it stands
    when they are all of its records."""
    ids = np.unique(np.concatenate(indices))
    matrix = parts[0]
    if ids.shape[0] < n_records:
        matrix = matrix.take(ids, axis=1)
    return key, n_records, [ids], [matrix], members


#: cells per slice of the bit-for-bit check that narrows a panel shard
_CHECK_CELLS = 1 << 16


def _exact_as(dtype: np.dtype, wide: list) -> list | None:
    """The float64 row blocks ``wide`` cast to ``dtype`` when every cell
    casts back to the same 64 bits (``-0.0``, NaN and anything out of range
    do not), else None.  Cast and checked a slice at a time: the first
    slice that fails ends it, and no float64 copy of a block is made."""
    if dtype == np.float64:
        return wide
    narrow = []
    for rows in wide:
        out = np.empty(rows.shape, dtype)
        bits = rows.view(np.uint64)
        step = max(1, _CHECK_CELLS // max(1, rows.shape[1]))
        for start in range(0, rows.shape[0], step):
            part = out[start:start + step]
            with np.errstate(invalid="ignore"):
                np.copyto(part, rows[start:start + step], casting="unsafe")
            if not np.array_equal(part.astype(np.float64).view(np.uint64),
                                  bits[start:start + step]):
                return None
        narrow.append(out)
    return narrow


def _panel_shard(key: str, n_records: int, indices: list, parts: list,
                 members: list, existing: str | None) -> tuple:
    """The :func:`write_segment` entry of a panel's ``parts`` in the first
    dtype they all round-trip through bit for bit: the entry's own
    (``existing``; None for a new entry), else uint8, else float64.  What
    a reader widens back to float64 is then exactly what was appended."""
    wide = [np.asarray(part, dtype=np.float64) for part in parts]
    for dtype in (existing, np.uint8):
        narrow = None if dtype is None else _exact_as(np.dtype(dtype), wide)
        if narrow is not None:
            return key, n_records, indices, narrow, members
    return key, n_records, indices, wide, members


def _live_files(manifest: dict) -> dict[str, int]:
    """Segment file -> bytes on disk, over every committed shard."""
    return {shard["file"]: shard["file_bytes"]
            for meta in manifest["entries"].values()
            for shard in meta["shards"]}


class _CacheDirectory(SegmentDirectory):
    """The store's directory: a cache, so a manifest this build does not
    read is reported (once per manifest seen) and read as empty."""

    _refused = None   # the signature of the manifest last reported

    def load(self) -> dict:
        try:
            return super().load()
        except ManifestError as exc:
            if self._refused != (sig := self.stat()):
                self._refused = sig
                degraded("store.manifest-unreadable" if exc.version is None
                         else "store.manifest-version", str(self.root),
                         exc=exc)
            return self.empty()


#: bits of a packed location reserved for the row-within-shard part
_ROW_BITS = 40
_ROW_MASK = (1 << _ROW_BITS) - 1


class StoreEntryReader:
    """Memory-mapped view over one entry's shards.

    Builds a record -> (shard, row) location table once, then serves
    ``rows(indices)`` by fancy-indexing each shard's view of its mapped
    segment — only the pages holding the requested records are faulted in.
    ``open_segment(file, file_bytes)`` is the store's shared-map lookup.

    Concurrency: readers run lock-free while :meth:`extend` may add shards
    from another thread.  The location table is therefore a *single*
    packed array — ``shard << _ROW_BITS | row`` — published by reference
    swap after the shard list has grown, so a concurrent gather can never
    pair a new shard index with a stale row offset (no torn reads), and
    whichever snapshot it captures only references shards already present
    in its shard list.
    """

    def __init__(self, key: str, meta: dict, open_segment):
        self.key = key
        self.n_records = int(meta["n_records"])
        self.row_width = int(meta["row_width"])
        self.dtype = np.dtype(meta["dtype"])
        #: a unit entry's symbols per record (its rows are unit-major);
        #: None for a record-major entry
        self.n_symbols = meta["n_symbols"]
        #: a panel's member keys in column order; () for a plain entry
        self.members = tuple(meta["members"] or ())
        #: a unit entry's one shard when it holds every record in id order:
        #: the read-only ``(raw_width, n_records, n_symbols)`` mapping
        self.whole: np.ndarray | None = None
        self._maps: list[np.ndarray] = []
        self._loc = np.full(self.n_records, -1, dtype=np.int64)
        self.extend(meta, 0, open_segment)

    def extend(self, meta: dict, from_shard: int, open_segment) -> None:
        """Map shards ``meta['shards'][from_shard:]`` into this reader: a
        cached reader picks up just the appended ones, not every index it
        already holds."""
        maps = list(self._maps)
        loc = self._loc.copy()
        for si, shard in enumerate(meta["shards"][from_shard:], from_shard):
            idx, block = _shard_arrays(
                open_segment(shard["file"], shard["file_bytes"]), shard,
                self.key, meta)
            maps.append(block)
            loc[idx] = (np.int64(si) << _ROW_BITS) | np.arange(
                idx.shape[0], dtype=np.int64)
        self.whole = maps[0] if (
            self.n_symbols and len(maps) == 1
            and maps[0].shape[1] == self.n_records
            and (loc == np.arange(self.n_records)).all()) else None
        # publish shards before locations: a reader capturing the new
        # table is guaranteed to find every shard it references
        self._maps = maps
        self._loc = loc
        self.n_shards = len(meta["shards"])

    # ------------------------------------------------------------------
    @property
    def n_filled(self) -> int:
        return int((self._loc >= 0).sum())

    def filled_mask(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=int)
        return self._loc[indices] >= 0

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Gather per-record rows (every index must be filled) in the
        entry's layout: ``(len(indices), row_width)``, or a unit entry's
        ``(raw_width, len(indices), n_symbols)``."""
        indices = np.asarray(indices, dtype=int)
        # snapshot order mirrors extend()'s publish order (see class doc):
        # capture the location table first, the shard list second
        loc_table = self._loc
        maps = self._maps
        loc = loc_table[indices]
        if loc.shape[0] and loc.min() < 0:
            raise KeyError(f"{self.key}: some requested records are not in "
                           "the store")
        shard_of = loc >> _ROW_BITS
        row_of = loc & _ROW_MASK
        axis = 1 if self.n_symbols else 0   # the record axis
        if loc.shape[0] and (shard_of == shard_of[0]).all():
            # one shard holds them all (every entry after a group commit):
            # its gather is the result, no second copy through ``out``
            return maps[shard_of[0]].take(row_of, axis=axis)
        shape = list(maps[0].shape)
        shape[axis] = indices.shape[0]
        out = np.empty(shape, dtype=self.dtype)
        for si in np.unique(shard_of):
            sel = (slice(None),) * axis + (shard_of == si,)
            out[sel] = maps[si].take(row_of[sel[axis]], axis=axis)
        return out


class DiskBehaviorStore:
    """Append-only behavior store shared by caches across processes:
    thread-safe within a process (one lock around manifest state), and
    across processes as its :class:`SegmentDirectory` commits."""

    def __init__(self, root: str | os.PathLike,
                 max_bytes: int | None = None):
        self._dir = _CacheDirectory(root, _VERSION, "entries", _live_files,
                                    "shards")
        self.root = self._dir.root
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # key -> (entry creation token, reader); the token pins the entry
        # *incarnation*, so a cross-process drop-and-recreate can never be
        # confused with an append, even at the same shard count
        self._readers: dict[str, tuple[int | None, StoreEntryReader]] = {}
        # member key -> [(panel key, column), ...]; see panels
        self._members: dict[str, list[tuple[str, int]]] | None = None
        # read-time recency bumps (manifest commits only happen on writes),
        # merged by max into every manifest read, so commits carry them
        self._touches: dict[str, int] = {}
        # rows appended but not yet flushed (the plan engine defers for a
        # whole run): invisible to every reader — a crash simply loses
        # them and the records re-extract next session — so the manifest
        # stays the single commit point; ``max_pending_bytes`` bounds the
        # buffer even inside a scope
        self._pending_rows: list[tuple] = []
        self._pending_bytes = 0
        self._defer_depth = 0
        self.max_pending_bytes = 128 * 1024 * 1024
        # _HANDED_OFF's key, and the first error a commit this handle
        # handed off raised, kept for the next explicit flush()
        self._key = os.path.realpath(self.root)
        self._failed: Exception | None = None
        # observability: served/attempted record reads and dropped entries
        self.appends = 0
        self.commit_s = 0.0
        self.evictions = 0
        self.invalid_dropped = 0

    # -- the manifest ---------------------------------------------------
    def _refresh(self) -> dict:
        """The manifest, re-read if another process committed (lock held)."""
        if self._dir.refresh():
            self._adopt(self._dir.manifest)
        return self._dir.manifest

    def _adopt(self, manifest: dict) -> None:
        """Take in a manifest just read (lock held; a commit's first step):
        keep mmap'd readers for the same entry incarnation (they can be
        extended with any appended shards), drop the rest and the maps of
        segments no entry names any more, and replay read recency."""
        self._members = None
        entries = manifest["entries"]
        self._readers = {
            key: (created, cached)
            for key, (created, cached) in self._readers.items()
            if (meta := entries.get(key)) and meta["created"] == created
            and cached.n_shards <= len(meta["shards"])}
        self._dir.prune(_live_files(manifest))
        self._touches = {key: used for key, used in self._touches.items()
                         if key in entries}
        for key, used in self._touches.items():
            entries[key]["last_used"] = max(entries[key]["last_used"], used)
            manifest["seq"] = max(manifest["seq"], used)

    # -- reads ----------------------------------------------------------
    def readers(self, keys) -> list[StoreEntryReader | None]:
        """A mmap'd reader per key, None where absent/invalid — one lock
        and one manifest check for the lot.

        An entry whose shards fail validation (truncated or missing
        segment, bad span or header) is dropped from the store so the
        caller re-extracts — partial data is never served.
        """
        self._settle()
        with self._lock:
            found, invalid = self._open(self._refresh(), list(keys))
        for key in invalid:  # under the write lock, with its own files
            self._drop(key)
        return found

    def _open(self, manifest: dict, keys: list[str],
              member_width: int | None = None) -> tuple[list, list]:
        """:meth:`readers` under the lock: the readers, and the keys that
        failed validation (a panel: whose rows are not ``member_width``
        per member) for the caller to drop."""
        found: list[StoreEntryReader | None] = []
        invalid = []
        for key in keys:
            meta = manifest["entries"].get(key)
            if meta is None:
                found.append(None)
                continue
            created = meta.get("created")
            cached = self._readers.get(key)
            entry_reader = (cached[1] if cached is not None
                            and cached[0] == created else None)
            try:
                if entry_reader is None:
                    entry_reader = StoreEntryReader(key, meta,
                                                    self._dir.mapped)
                elif entry_reader.n_shards < len(meta["shards"]):
                    entry_reader.extend(meta, entry_reader.n_shards,
                                        self._dir.mapped)
                if member_width is not None and entry_reader.row_width \
                        != member_width * len(entry_reader.members):
                    raise CorruptEntryError(f"{key}: rows are not its "
                                            f"members x {member_width}")
            except CorruptEntryError:
                self.invalid_dropped += 1
                self._readers.pop(key, None)
                invalid.append(key)
                found.append(None)
            else:
                self._readers[key] = (created, entry_reader)
                # recency, in memory; persisted by the next commit
                manifest["seq"] += 1
                self._touches[key] = meta["last_used"] \
                    = manifest["seq"]
                found.append(entry_reader)
        return found, invalid

    def panels(self, members, member_width: int) -> list[tuple]:
        """The panels holding any of ``members``: per panel its reader (as
        :meth:`readers`), the positions in ``members`` it holds and their
        columns in it — one lock and one manifest check for the lot."""
        held: dict[str, tuple[list[int], list[int]]] = {}
        self._settle()
        with self._lock:
            manifest = self._refresh()
            if self._members is None:
                self._members = {}
                for key, meta in manifest["entries"].items():
                    for col, member in enumerate(meta["members"] or ()):
                        self._members.setdefault(member, []).append((key, col))
            for pos, member in enumerate(members):
                for key, col in self._members.get(member, ()):
                    at = held.setdefault(key, ([], []))
                    at[0].append(pos)
                    at[1].append(col)
            found, invalid = self._open(manifest, list(held), member_width)
        for key in invalid:
            self._drop(key)
        return [(reader, np.array(pos), np.array(cols))
                for reader, (pos, cols) in zip(found, held.values())
                if reader is not None]

    def reader(self, key: str) -> StoreEntryReader | None:
        """:meth:`readers` for one key."""
        return self.readers([key])[0]

    # -- writes ---------------------------------------------------------
    def append(self, key: str, indices: np.ndarray, rows: np.ndarray,
               n_records: int, members: list[str] | None = None) -> None:
        """Persist ``rows`` (one row per entry record in ``indices``).

        ``members`` makes the entry a *panel*: a row is ``len(members)``
        equal-width columns, served per member (:meth:`panels`).
        Rows are queued and reach disk with the next :meth:`flush` —
        immediately by default, or at the end of a
        :meth:`deferred_commits` scope — where they become visible when
        the manifest commits.  Width and dtype are pinned by the entry's
        first shard; an append that disagrees replaces the entry wholesale
        (the identity key should have changed — a mismatch means the old
        bytes are stale).  A panel's cells are written as ``uint8`` when
        they round-trip through it bit for bit (module doc); a panel shard
        its entry's dtype cannot hold exactly is such a disagreement.
        """
        indices = np.asarray(indices, dtype=np.int64)
        rows = np.ascontiguousarray(rows)
        if rows.ndim != 2 or rows.shape[0] != indices.shape[0]:
            raise ValueError("rows must be (len(indices), row_width), got "
                             f"{rows.shape} for {indices.shape[0]} indices")
        self._queue(key, int(n_records), members and list(members), indices,
                    rows, rows.nbytes)

    def append_units(self, key: str, indices: np.ndarray,
                     matrix: np.ndarray) -> None:
        """Persist records ``indices`` of a unit tier's ``(raw_width,
        n_records, n_symbols)`` matrix as a unit entry.

        Queues a reference, not a copy: the flush writes the records it
        names, in id order, straight out of ``matrix`` — the matrix itself
        when they are all of its records — so they must not change until
        then.  Otherwise as :meth:`append`.
        """
        indices = np.asarray(indices, dtype=np.int64)
        width, n_records, ns = matrix.shape
        self._queue(key, n_records, None, indices, matrix,
                    width * ns * matrix.itemsize * indices.shape[0])

    def _queue(self, key: str, n_records: int, members, indices, rows,
               nbytes: int) -> None:
        """Queue one append of ``nbytes`` of rows; flush unless deferred."""
        if indices.shape[0] == 0:
            return
        with self._lock:
            self._pending_rows.append(
                (key, n_records, members, indices, rows))
            self._pending_bytes += nbytes + indices.nbytes
            self.appends += 1
            defer = (self._defer_depth > 0
                     and self._pending_bytes < self.max_pending_bytes)
        if not defer:
            self._flush()

    def flush(self) -> None:
        """Group commit: write pending rows — one shard per entry, its
        appends written back to back, all in one segment — and publish
        them in one manifest rewrite.

        Synchronous: it first waits for a commit a deferred scope handed
        off, and raises, once, what one of this handle's raised (rows
        still queued stay queued for the next call)."""
        self._settle()
        with self._lock:
            failed, self._failed = self._failed, None
        if failed is not None:
            raise failed
        self._flush()

    def _flush(self) -> None:
        """:meth:`flush` without raising a handed-off commit's error: what
        a read, a standalone append and the ``max_pending_bytes`` overflow
        run, so an earlier statement's full disk never fails a later one."""
        self._settle()
        with self._lock:
            self._commit(self._take_pending())

    def _take_pending(self) -> list[tuple]:
        """Empty the queue; its appends (lock held)."""
        pending, self._pending_rows = self._pending_rows, []
        self._pending_bytes = 0
        return pending

    def _commit(self, pending: list[tuple]) -> None:
        """The group commit of ``pending`` appends (lock held)."""
        if not pending:
            return
        start = time.perf_counter()
        # one shard per entry: within one scope the cache only appends
        # records it found missing, so an entry's parts are disjoint;
        # the parts naming records of one unit matrix are one shard
        entries: dict[tuple, tuple] = {}
        for key, n_records, members, indices, rows in pending:
            entry = entries.setdefault(
                (key, id(rows)) if rows.ndim == 3
                else (key, n_records, rows.shape[1], rows.dtype.str),
                (key, n_records, [], [], members))
            entry[2].append(indices)
            if rows.ndim == 2 or not entry[3]:
                entry[3].append(rows)
        entries = [_unit_shard(*entry) if entry[3][0].ndim == 3
                   else entry for entry in entries.values()]
        with self._dir.locked() as manifest:
            self._adopt(manifest)
            # a panel's dtype is chosen against the committed entry
            current = manifest["entries"]
            entries = [
                _panel_shard(*entry, current.get(entry[0], {}).get(
                    "dtype")) if entry[4] else entry
                for entry in entries]
            with self._dir.new_segment() as (name, f):
                descriptors = write_segment(f, name, entries)
            for desc in descriptors:
                manifest["seq"] += 1
                self._register_shard(manifest, manifest["seq"], desc)
            if self.max_bytes is not None:
                self._evict(manifest, self.max_bytes,
                            protect={desc["key"] for desc in descriptors})
            # cached readers survive appends: the same incarnation
            # extends itself with the new shards on the next read
        self.commit_s += time.perf_counter() - start

    def _commit_after(self, previous: threading.Thread | None,
                      pending: list[tuple]) -> None:
        """A deferred scope's commit, on its own thread once the scope
        has ended: after ``previous`` (the commit handed off before it on
        this directory), the :meth:`flush` body.  What it raises is kept
        for the next explicit :meth:`flush`."""
        if previous is not None:
            previous.join()
        try:
            with self._lock:
                self._commit(pending)
        except Exception as exc:
            degraded("store.async-commit-failed", str(self.root), exc=exc)
            with self._lock:
                self._failed = self._failed or exc
        finally:
            with _HANDED_OFF_LOCK:
                if _HANDED_OFF.get(self._key) is threading.current_thread():
                    del _HANDED_OFF[self._key]

    def _settle(self) -> None:
        """Wait for the commit handed off last on this directory, by any
        handle in this process, and so for every one before it (not under
        the lock: commits take it)."""
        with _HANDED_OFF_LOCK:
            writer = _HANDED_OFF.get(self._key)
        if writer is not None:
            writer.join()

    def _register_shard(self, manifest: dict, seq: int, desc: dict) -> None:
        """Attach one shard record to its entry (lock + write lock held).

        A geometry mismatch with the existing entry replaces it wholesale
        — ``seq`` then becomes the new incarnation token, which is what
        invalidates cached readers in *other* processes too: they compare
        ``created`` on every manifest refresh.
        """
        entries = manifest["entries"]
        key = desc["key"]
        meta = entries.get(key)
        if meta is not None and (
                meta["row_width"] != desc["row_width"]
                or np.dtype(meta["dtype"]) != np.dtype(desc["dtype"])
                or meta["n_records"] != desc["n_records"]
                or meta["n_symbols"] != desc["n_symbols"]
                or meta["members"] != desc["members"]):
            meta = None
        if meta is None:
            meta = {"n_records": desc["n_records"],
                    "row_width": desc["row_width"], "dtype": desc["dtype"],
                    "n_symbols": desc["n_symbols"],
                    "members": desc["members"],
                    "created": seq,  # incarnation token
                    "nbytes": 0, "last_used": seq, "shards": []}
            entries[key] = meta
        meta["shards"].append({name: desc[name] for name in _SHARD_FIELDS})
        meta["nbytes"] += desc["data"][1] + desc["index"][1]
        meta["last_used"] = seq

    @contextlib.contextmanager
    def deferred_commits(self):
        """Scope within which appends share one segment and one commit.

        The plan engine wraps a whole inspection run in this.  Nesting is
        allowed; the outermost exit hands what is queued to a commit that
        runs after the scope, on a thread of its own with an empty context
        (it opens no span in a trace the caller may have handed back: its
        seconds add to ``commit_s``), after any commit handed off before
        it on this directory; a scope that queued nothing starts none.
        Appends are queued by reference, so what they name must not change
        until that commit ends.  A crash before it loses only what it had
        not committed (at most an orphan segment, swept by gc) — those
        records simply re-extract next session.
        """
        with self._lock:
            self._defer_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._defer_depth -= 1
                if self._defer_depth == 0 and self._pending_rows:
                    pending = self._take_pending()
                    with _HANDED_OFF_LOCK:
                        writer = threading.Thread(
                            target=contextvars.Context().run,
                            args=(self._commit_after,
                                  _HANDED_OFF.get(self._key), pending),
                            name="repro-store-commit")
                        writer.start()  # a writer _settle finds is started
                        _HANDED_OFF[self._key] = writer

    def drop(self, key: str) -> None:
        """Remove one entry (the commit unlinks segments only it named);
        first raises, as :meth:`flush`, what a handed-off commit raised."""
        self.flush()
        self._drop(key)

    def _drop(self, key: str) -> None:
        """:meth:`drop` as a read drops an entry that failed validation."""
        self._flush()
        with self._lock, self._dir.locked() as manifest:
            self._adopt(manifest)
            manifest["entries"].pop(key, None)
            self._readers.pop(key, None)

    # -- garbage collection ---------------------------------------------
    def _evict(self, manifest: dict, budget: int,
               protect: frozenset | set = frozenset()) -> list[str]:
        """Drop least-recently-used entries until the live segment files
        fit the byte budget: an evicted entry frees nothing until its
        segment's last entry leaves, and until then the dead bytes count.

        ``protect`` (the keys a flush just appended to) is never evicted —
        the newest data must survive its own commit.
        """
        entries = manifest["entries"]
        evicted: list[str] = []
        while sum(_live_files(manifest).values()) > budget:
            candidates = [k for k in entries if k not in protect]
            if not candidates:
                break
            victim = min(candidates, key=lambda k: entries[k]["last_used"])
            del entries[victim]
            self._readers.pop(victim, None)
            evicted.append(victim)
            self.evictions += 1
        return evicted

    def gc(self, max_bytes: int | None = None) -> dict:
        """Apply a byte budget and sweep orphan files (segments never
        committed, e.g. after a crash; files of a manifest version this
        build does not read): ``{"evicted": [keys...], "orphans_removed":
        n}``."""
        budget = self.max_bytes if max_bytes is None else max_bytes
        self.flush()  # what this handle has pending is committed first
        with self._lock, self._dir.locked() as manifest:
            self._adopt(manifest)
            orphans = self._dir.sweep()
            evicted = [] if budget is None else self._evict(manifest, budget)
        return {"evicted": evicted, "orphans_removed": orphans}

    # -- introspection ---------------------------------------------------
    def keys(self) -> list[str]:
        self._settle()
        with self._lock:
            return list(self._refresh()["entries"])

    def stats(self) -> dict:
        """``bytes``: what live entries hold; ``file_bytes``: what the
        ``files`` they sit in take on disk (what eviction budgets);
        ``commit_s``: seconds this handle's group commits took, whichever
        thread ran them (a deferred scope's runs after its frame)."""
        self._settle()
        with self._lock:
            manifest = self._refresh()
            entries = manifest["entries"]
            files = _live_files(manifest)
            return {"entries": len(entries),
                    "bytes": sum(m["nbytes"] for m in entries.values()),
                    "shards": sum(len(m["shards"]) for m in entries.values()),
                    "files": len(files),
                    "file_bytes": sum(files.values()),
                    "appends": self.appends,
                    "commits": self._dir.commits,
                    "evictions": self.evictions,
                    "invalid_dropped": self.invalid_dropped,
                    "commit_s": self.commit_s}

    def close(self) -> None:
        """Publish pending state — after waiting for a commit a deferred
        scope handed off, raising what one of this handle's raised, as
        :meth:`flush` does — then release every cached reader and segment
        map (:meth:`SegmentDirectory.prune`); the store stays usable
        afterwards (reads re-map on demand)."""
        try:
            self.flush()
        finally:
            with self._lock:
                self._readers.clear()
                self._dir.prune(())
