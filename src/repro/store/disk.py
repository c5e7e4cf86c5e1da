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
record.  Manifest version 4: a version-1 (file pairs), version-2 (an
entry per hypothesis) or version-3 (record-major unit rows) directory
reads as empty, says so once, re-extracts.

A commit is a **group commit**: :meth:`DiskBehaviorStore.append` queues
rows; :meth:`DiskBehaviorStore.flush` writes everything queued, one shard
per entry, back to back into **one segment file**
(:func:`write_segment`: every array a complete npy blob on a 64-byte
boundary; one fsync, one rename), and then commits by atomically rewriting
the manifest, where a shard record is ``file`` + ``file_bytes`` (the segment
and its total size) and an ``[offset, nbytes]`` span each for ``data`` and
``index``.  Standalone appends flush immediately; the plan engine wraps a
whole run in :meth:`DiskBehaviorStore.deferred_commits` so a cold streaming
inspection pays one segment and one manifest rewrite — two fsyncs — in
total.  The manifest is the single commit point: a crash before it renames
leaves at most an orphan segment that garbage collection removes, never a
half-visible entry.  The file primitives — publish, lock, aligned blobs,
validated views — are :mod:`repro.store.segment`'s, shared with the
relational engine's table storage.

Reads go through :class:`StoreEntryReader`, which takes validated zero-copy
views out of one shared read-only map per segment (kept by the store, keyed
by file name) and gathers requested record rows directly out of them, so
serving a block slice touches only the pages that block needs.  A segment
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
import json
import mmap
import os
import threading
from pathlib import Path

import numpy as np

from repro.store.segment import (CorruptEntryError, blob, commit_lock,
                                 map_segment, published, write_blob)
from repro.util.debuglog import degraded
from repro.util.trace import span

MANIFEST = "manifest.json"
SHARD_DIR = "shards"
_VERSION = 4
#: what a manifest shard record keeps of a :func:`write_segment` descriptor
_SHARD_FIELDS = ("file", "file_bytes", "rows", "data", "index")


def write_segment(path: Path, entries) -> list[dict]:
    """Write ``(key, n_records, indices, rows, members)`` entries as one
    segment; ``indices`` and ``rows`` are each a list of parts that stack
    into the entry's one shard (:func:`write_blob`) — for a unit entry one
    ``(raw_width, rows, n_symbols)`` part, its records in id order.

    Rows then record ids, entry after entry, each a complete npy blob; one
    fsync, one rename.  Returns one descriptor per entry — the manifest
    shard record (``_SHARD_FIELDS``) plus the entry's key, geometry,
    ``n_symbols`` (None unless a unit entry) and ``members`` (None unless
    a panel).
    """
    descriptors = []
    with published(path) as f:
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
                 "dtype": first.dtype.str, "file": path.name,
                 "rows": int(n_rows),
                 "data": write_blob(f, rows),
                 "index": write_blob(f, indices)})
        file_bytes = f.tell()
    return [dict(desc, file_bytes=file_bytes) for desc in descriptors]


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
    """Append-only behavior store shared by caches across processes.

    Thread-safe within a process (one lock around manifest state) and
    crash/concurrency-safe across processes: writers serialize on an
    advisory file lock and commit via atomic manifest replacement, readers
    only ever observe committed manifests.
    """

    def __init__(self, root: str | os.PathLike,
                 max_bytes: int | None = None):
        self.root = Path(root)
        self.max_bytes = max_bytes
        (self.root / SHARD_DIR).mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._manifest: dict | None = None
        self._manifest_sig: tuple | None = None
        # key -> (entry creation token, reader); the token pins the entry
        # *incarnation*, so a cross-process drop-and-recreate can never be
        # confused with an append, even at the same shard count
        self._readers: dict[str, tuple[int | None, StoreEntryReader]] = {}
        # file name -> the one read-only map every reader's views of that
        # segment come out of (names are never reused, so a map can only
        # go stale by its file being deleted; see _refresh and close)
        self._segments: dict[str, mmap.mmap] = {}
        # member key -> [(panel key, column), ...]; see panels
        self._members: dict[str, list[tuple[str, int]]] | None = None
        # read-time recency bumps not yet persisted (manifest commits only
        # happen on writes); merged back in whenever the manifest reloads
        self._pending_touches: dict[str, int] = {}
        # rows appended but not yet flushed (the plan engine defers for a
        # whole run): invisible to every reader — a crash simply loses
        # them and the records re-extract next session — so the manifest
        # stays the single commit point; ``max_pending_bytes`` bounds the
        # buffer even inside a scope
        self._pending_rows: list[tuple] = []
        self._pending_bytes = 0
        self._defer_depth = 0
        self.max_pending_bytes = 128 * 1024 * 1024
        # observability: served/attempted record reads and dropped entries
        self.appends = 0
        self.commits = 0   # manifest rewrites this process published
        self.evictions = 0
        self.invalid_dropped = 0

    # -- manifest plumbing ---------------------------------------------
    def _stat_sig(self) -> tuple | None:
        try:
            st = os.stat(self.root / MANIFEST)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size, st.st_ino)

    def _load_manifest(self, report: bool) -> dict:
        """The committed manifest, or an empty one when there is none this
        build can read: the store is a cache, so the cost is re-extraction
        — said through :func:`degraded` (once per manifest seen:
        ``report``); only a missing file, a new store, is silent."""
        try:
            with open(self.root / MANIFEST, "rb") as f:
                manifest = json.load(f)
            if manifest["version"] == _VERSION:
                return manifest
            event, why = "store.manifest-version", ValueError(
                f"version {manifest['version']}, this build reads "
                f"{_VERSION}: entries re-extract, gc() sweeps the old files")
        except FileNotFoundError:
            event = None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            event, why = "store.manifest-unreadable", exc
        if event is not None and report:
            degraded(event, str(self.root), exc=why)
        return {"version": _VERSION, "clock": 0, "entries": {}}

    def _refresh(self, force: bool = False) -> dict:
        """Re-read the manifest if another process committed (lock held);
        writers ``force`` it under the write lock, whatever ``stat`` says."""
        sig = self._stat_sig()
        stale = self._manifest is None or sig != self._manifest_sig
        if force or stale:
            self._manifest = self._load_manifest(report=stale)
            self._manifest_sig = sig
            self._members = None
            entries = self._manifest["entries"]
            # keep mmap'd readers for the same entry incarnation (they can
            # be extended with any appended shards); drop the rest, and
            # the maps of segments no entry names any more
            for key in list(self._readers):
                meta = entries.get(key)
                created, cached = self._readers[key]
                if (meta is None or meta.get("created") != created
                        or cached.n_shards > len(meta["shards"])):
                    del self._readers[key]
            live = self._live_files(self._manifest)
            for name in [n for n in self._segments if n not in live]:
                del self._segments[name]
            # replay recency observed since the last commit
            for key, last_used in self._pending_touches.items():
                meta = entries.get(key)
                if meta is not None:
                    meta["last_used"] = max(meta["last_used"], last_used)
                self._manifest["clock"] = max(self._manifest["clock"],
                                              last_used)
        return self._manifest

    def _commit(self, manifest: dict) -> None:
        """Atomically publish the manifest (lock held)."""
        with published(self.root / MANIFEST) as f:
            f.write(json.dumps(manifest, indent=0).encode())
        self.commits += 1
        self._manifest = manifest
        self._members = None
        self._manifest_sig = self._stat_sig()
        self._pending_touches.clear()

    # -- reads ----------------------------------------------------------
    def _segment(self, name: str, file_bytes: int) -> mmap.mmap:
        """The map of a segment every reader shares (lock held)."""
        segment = self._segments.get(name)
        if segment is None or len(segment) != file_bytes:
            segment = self._segments[name] = map_segment(
                self.root / SHARD_DIR / name, file_bytes)
        return segment

    def readers(self, keys) -> list[StoreEntryReader | None]:
        """A mmap'd reader per key, None where absent/invalid — one lock
        and one manifest check for the lot.

        An entry whose shards fail validation (truncated or missing
        segment, bad span or header) is dropped from the store so the
        caller re-extracts — partial data is never served.
        """
        with self._lock:
            found, invalid = self._open(self._refresh(), list(keys))
        for key in invalid:  # under the write lock, with its own files
            self.drop(key)
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
                    entry_reader = StoreEntryReader(key, meta, self._segment)
                elif entry_reader.n_shards < len(meta["shards"]):
                    entry_reader.extend(meta, entry_reader.n_shards,
                                        self._segment)
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
                # recency, in memory; persisted on the next commit
                manifest["clock"] += 1
                self._pending_touches[key] = meta["last_used"] \
                    = manifest["clock"]
                found.append(entry_reader)
        return found, invalid

    def panels(self, members, member_width: int) -> list[tuple]:
        """The panels holding any of ``members``: per panel its reader (as
        :meth:`readers`), the positions in ``members`` it holds and their
        columns in it — one lock and one manifest check for the lot."""
        held: dict[str, tuple[list[int], list[int]]] = {}
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
            self.drop(key)
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
        bytes are stale).
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
            self.flush()

    def flush(self) -> None:
        """Group commit: write pending rows — one shard per entry, its
        appends written back to back, all in one segment — and publish
        them in one manifest rewrite."""
        with self._lock:
            if not self._pending_rows:
                return
            pending, self._pending_rows = self._pending_rows, []
            self._pending_bytes = 0
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
            with commit_lock(self.root):
                # always merge against the latest committed manifest:
                # another process may have appended since we last read it
                manifest = self._refresh(force=True)
                # the (flock-serialized, monotonic) clock makes names
                # unique for the directory's whole history — a counter or
                # pid alone recycles and publishing could clobber a
                # committed segment
                manifest["clock"] += 1
                name = f"{manifest['clock']}-{os.getpid()}.seg"
                descriptors = write_segment(self.root / SHARD_DIR / name,
                                            entries)
                touched: set[str] = set()
                for desc in descriptors:
                    manifest["clock"] += 1
                    self._register_shard(manifest, manifest["clock"], desc)
                    touched.add(desc["key"])
                if self.max_bytes is not None:
                    self._evict(manifest, self.max_bytes, protect=touched)
                self._commit(manifest)
                # cached readers survive appends: the same incarnation
                # extends itself with the new shards on the next read

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
        replaced = None
        if meta is not None and (
                meta["row_width"] != desc["row_width"]
                or np.dtype(meta["dtype"]) != np.dtype(desc["dtype"])
                or meta["n_records"] != desc["n_records"]
                or meta["n_symbols"] != desc["n_symbols"]
                or meta["members"] != desc["members"]):
            replaced, meta = entries.pop(key), None
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
        if replaced is not None:
            # after the new shard is in: it may share the old one's segment
            self._delete_entry_files(manifest, replaced)

    @contextlib.contextmanager
    def deferred_commits(self):
        """Scope within which appends share one segment and one commit.

        The plan engine wraps a whole inspection run in this.  Nesting is
        allowed; the outermost exit flushes.  A crash inside the scope
        loses only what it had not committed (at most an orphan segment,
        swept by gc) — those records simply re-extract next session.
        """
        with self._lock:
            self._defer_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._defer_depth -= 1
                outermost = self._defer_depth == 0
            if outermost:
                with span("store_commit"):
                    self.flush()

    def drop(self, key: str) -> None:
        """Remove one entry and the segment files only it named."""
        self.flush()
        with self._lock, commit_lock(self.root):
            manifest = self._refresh(force=True)
            meta = manifest["entries"].pop(key, None)
            self._readers.pop(key, None)
            if meta is None:
                return
            self._delete_entry_files(manifest, meta)
            self._commit(manifest)

    @staticmethod
    def _live_files(manifest: dict) -> dict[str, int]:
        """Segment file -> bytes on disk, over every committed shard."""
        return {shard["file"]: shard["file_bytes"]
                for meta in manifest["entries"].values()
                for shard in meta["shards"]}

    def _delete_entry_files(self, manifest: dict, meta: dict) -> None:
        """Unlink the segments only ``meta`` — already out of ``manifest``
        — named; one it shared stays until its last entry leaves."""
        live = self._live_files(manifest)
        for name in {shard["file"] for shard in meta["shards"]}:
            if name not in live:
                self._segments.pop(name, None)
                with contextlib.suppress(OSError):
                    os.unlink(self.root / SHARD_DIR / name)

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
        while sum(self._live_files(manifest).values()) > budget:
            candidates = [k for k in entries if k not in protect]
            if not candidates:
                break
            victim = min(candidates, key=lambda k: entries[k]["last_used"])
            self._delete_entry_files(manifest, entries.pop(victim))
            self._readers.pop(victim, None)
            evicted.append(victim)
            self.evictions += 1
        return evicted

    def gc(self, max_bytes: int | None = None) -> dict:
        """Apply a byte budget and clean orphan files.

        Returns ``{"evicted": [keys...], "orphans_removed": n}``.  Orphans
        (segments never committed, e.g. after a crash; files of a manifest
        version this build does not read) can only exist outside the write
        lock's critical section, so removing them here is safe.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        self.flush()  # what this handle has pending is committed first
        with self._lock, commit_lock(self.root):
            manifest = self._refresh(force=True)
            evicted = [] if budget is None else self._evict(manifest, budget)
            live = self._live_files(manifest)
            orphans = 0
            for path in (self.root / SHARD_DIR).iterdir():
                if path.name not in live:
                    with contextlib.suppress(OSError):
                        path.unlink()
                        orphans += 1
            self._commit(manifest)
        return {"evicted": evicted, "orphans_removed": orphans}

    # -- introspection ---------------------------------------------------
    def keys(self) -> list[str]:
        with self._lock:
            return list(self._refresh()["entries"])

    def stats(self) -> dict:
        """``bytes``: what live entries hold; ``file_bytes``: what the
        ``files`` they sit in take on disk (what eviction budgets)."""
        with self._lock:
            manifest = self._refresh()
            entries = manifest["entries"]
            files = self._live_files(manifest)
            return {"entries": len(entries),
                    "bytes": sum(m["nbytes"] for m in entries.values()),
                    "shards": sum(len(m["shards"]) for m in entries.values()),
                    "files": len(files),
                    "file_bytes": sum(files.values()),
                    "appends": self.appends,
                    "commits": self.commits,
                    "evictions": self.evictions,
                    "invalid_dropped": self.invalid_dropped}

    def close(self) -> None:
        """Publish pending state, then release every cached reader and
        segment map.

        The store stays usable afterwards (reads re-map on demand).  Maps
        are dropped, not closed: ``mmap.close()`` raises while a view is
        exported, and a reader handed out earlier goes on serving from
        its views; the OS reclaims a map with the last of them.
        """
        self.flush()
        with self._lock:
            self._readers.clear()
            self._segments.clear()
