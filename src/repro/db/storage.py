"""Columnar table persistence: a table on disk *is* its column arrays.

``TableStorage`` is the storage engine behind a persistent
:class:`repro.db.engine.Database`: a
:class:`~repro.store.segment.SegmentDirectory` with ``tables`` as its
catalog and its segments at the root::

    manifest.json      -- the table catalog (atomic rename; version 2)
    .lock              -- advisory inter-process commit lock
    <seq>-<pid>.seg    -- one segment per commit

A table is one npy blob per column — ``int64``, ``float64``, or ``int64``
dictionary codes whose value list sits in the catalog (pickled, so values
round-trip exactly) — plus, per indexed column, the stable-sorted keys and
the row ids in that order (:class:`SortedIndex`).  Traffic is whole-table:
:meth:`TableStorage.create` and :meth:`TableStorage.drop` stage in memory,
and :meth:`TableStorage.commit` writes every staged table's blobs into
**one segment** and commits the catalog as the directory does; under its
lock it first sweeps a crashed commit's ``*.seg*`` files (nothing else in
the directory).

The catalog records ``[offset, nbytes, crc32]`` per blob, checked on first
touch (:func:`~repro.store.segment.blob`): any disagreement raises
:class:`~repro.store.segment.CorruptEntryError` for that array alone —
never a wrong row — and the directory's other tables keep serving.
Segments are mapped when a handle opens (or commits) them, so a handle goes
on reading the rows it saw after another handle replaces the table.

Indexes are built automatically on hot columns (unit/model/hypothesis ids,
epochs, scores).  Float columns containing NaN and dictionary columns
holding non-string values are never indexed — their comparison semantics
under numpy diverge from key order.  Tables whose values cannot be
serialized at all (unhashable or unpicklable objects, or a dictionary too
wide for the catalog) raise :class:`UnsupportedColumnError`; the engine
keeps those memory-only.  A manifest of another version (the paged 1
among them) is refused at open and at every commit, a ``ValueError``:
tables are user data, not a cache to read as empty.
"""

from __future__ import annotations

import base64
import collections
import contextlib
import pickle
import zlib

import numpy as np

from repro.store.segment import (CorruptEntryError, SegmentDirectory, blob,
                                 write_blob)

_VERSION = 2


#: hot columns of the catalog/score schemas that get automatic indexes
AUTO_INDEX_COLUMNS = frozenset({
    "uid", "mid", "hid", "h", "did", "name", "layer", "epoch",
    "unit_score", "group_score", "score",
})

#: refuse dictionaries that would bloat the manifest catalog
MAX_DICT_VALUES = 1 << 18

#: on-disk dtype of each physical column kind (``dict``: the codes)
_DTYPES = {"i8": np.dtype("<i8"), "f8": np.dtype("<f8"),
           "dict": np.dtype("<i8")}


class UnsupportedColumnError(ValueError):
    """A column cannot be serialized (unhashable / unpicklable values)."""


class DictEncoder:
    """Append-only value dictionary for one column (code = list index)."""

    def __init__(self, values: list | None = None):
        self.values: list = list(values) if values else []
        self._code: dict = {}
        for i, v in enumerate(self.values):
            self._code[_dict_key(v)] = i

    def encode(self, column: np.ndarray) -> np.ndarray:
        codes = np.empty(column.shape[0], dtype=np.int64)
        code_of = self._code
        values = self.values
        try:
            for i, v in enumerate(column.tolist()):
                key = _dict_key(v)
                code = code_of.get(key)
                if code is None:
                    code = len(values)
                    if code >= MAX_DICT_VALUES:
                        raise UnsupportedColumnError(
                            f"column exceeds {MAX_DICT_VALUES} distinct "
                            f"values; too wide for dictionary encoding")
                    values.append(v)
                    code_of[key] = code
                codes[i] = code
        except TypeError as exc:  # unhashable value
            raise UnsupportedColumnError(
                f"unhashable column value: {exc}") from exc
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        lookup = np.empty(len(self.values), dtype=object)
        lookup[:] = self.values
        return lookup[codes]

    def all_str(self) -> bool:
        return all(isinstance(v, str) for v in self.values)

    def code_for(self, value) -> int | None:
        """Dictionary code of ``value``, or None if it was never stored."""
        try:
            return self._code.get(_dict_key(value))
        except TypeError:
            return None

    def serialize(self) -> str:
        try:
            return base64.b64encode(
                pickle.dumps(self.values, protocol=4)).decode("ascii")
        except Exception as exc:
            raise UnsupportedColumnError(
                f"unpicklable column value: {exc}") from exc

    @classmethod
    def deserialize(cls, payload: str) -> "DictEncoder":
        return cls(pickle.loads(base64.b64decode(payload.encode("ascii"))))


def _dict_key(value):
    """Hash key distinguishing values numpy equality would conflate.

    ``1 == 1.0 == True`` under both ``dict`` lookup and numpy broadcasting,
    but dictionary codes must round-trip the *exact* stored value; keying
    by (type, value) keeps ``1`` and ``1.0`` as distinct dictionary
    entries.  (Such mixed columns are never indexed — only all-string
    dictionary columns are — so predicate semantics stay numpy's.)
    """
    return (type(value).__name__, value)


def derive_kinds(arrays: list[np.ndarray]) -> list[str]:
    """Physical kind of each column array (``i8`` / ``f8`` / ``dict``)."""
    kinds = []
    for arr in arrays:
        if arr.dtype.kind == "i":
            kinds.append("i8")
        elif arr.dtype.kind == "f":
            kinds.append("f8")
        else:
            kinds.append("dict")
    return kinds


class SortedIndex:
    """A column's keys in stable ascending order beside the row ids in that
    order: entries sorted by ``(key, rid)``, NaN never among the keys."""

    #: entries per scan batch — what a ``LIMIT k`` reader pays at least
    BATCH = 1024

    def __init__(self, keys: np.ndarray, order: np.ndarray):
        self.keys = keys
        self.order = order

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def scan(self, lo=None, hi=None, lo_incl: bool = True,
             hi_incl: bool = True, descending: bool = False):
        """Yield rid arrays in ``(key, rid)`` order over ``[lo, hi]``.

        Descending scans go highest key first and keep each equal-key run
        in ascending rid order (a batch never splits a run), which makes
        index-ordered output bit-identical to a stable sort.
        """
        keys, order = self.keys, self.order
        start = 0 if lo is None else int(np.searchsorted(
            keys, lo, side="left" if lo_incl else "right"))
        end = len(self) if hi is None else int(np.searchsorted(
            keys, hi, side="right" if hi_incl else "left"))
        if not descending:
            for at in range(start, end, self.BATCH):
                yield order[at:min(at + self.BATCH, end)]
            return
        while end > start:
            # back one batch, then on to where that key's run begins
            at = int(np.searchsorted(
                keys, keys[max(end - self.BATCH, start)], side="left"))
            run = np.cumsum(keys[at + 1:end] != keys[at:end - 1])
            # runs in reverse, each kept as it lies
            yield order[at:end][np.argsort(-np.r_[0, run], kind="stable")]
            end = at


class TableStorage:
    """All persistent tables of one database directory."""

    def __init__(self, path):
        self._dir = SegmentDirectory(path, _VERSION, "tables", lambda m: {
            ent["file"] for ent in m["tables"].values()})
        self.root = self._dir.root
        with self._dir.locked() as manifest:  # no sweep before the maps
            #: the committed catalog as this handle sees it: what it
            #: opened, under what it committed since
            self._tables: dict[str, dict] = manifest["tables"]
            for ent in self._tables.values():
                # one that cannot be mapped raises on first read instead
                with contextlib.suppress(CorruptEntryError):
                    self._dir.mapped(ent["file"], ent["file_bytes"])
        #: creates (a catalog entry, arrays in ``_parts``) and drops
        #: (None) waiting for commit()
        self._staged: dict[str, dict | None] = {}
        #: this handle's view, entry or None: staged over committed
        self._catalog = collections.ChainMap(self._staged, self._tables)
        #: (table, part) -> a staged array, or the checked view of a blob;
        #: a part is a column number or ``(column, "keys" | "order")`` —
        #: or ``(column, "dict")``, for the column's decoded DictEncoder
        self._parts: dict[tuple, np.ndarray | DictEncoder] = {}
        self.reads = 0    # blobs checked
        self.writes = 0   # blobs written

    # -- segments -------------------------------------------------------
    def _read(self, name: str, part) -> np.ndarray:
        """One array of a table, staged or as a checked view of its blob."""
        array = self._parts.get((name, part))
        if array is None:
            ent = self._tables[name]
            if isinstance(part, int):
                span, dtype = ent["blobs"][part], _DTYPES[ent["kinds"][part]]
            else:
                info = ent["indexes"][part[0]]
                span = info[part[1]]
                dtype = np.dtype(info["dtype"] if part[1] == "keys"
                                 else "<i8")
            array = blob(self._dir.mapped(ent["file"], ent["file_bytes"]),
                         span, (ent["n_rows"],), dtype,
                         f"table {name!r}, part {part}, in {ent['file']}")
            self.reads += 1
            self._parts[(name, part)] = array
        return array

    def _forget(self, name: str) -> None:
        for key in [key for key in self._parts if key[0] == name]:
            del self._parts[key]

    # -- catalog --------------------------------------------------------
    def _entry(self, name: str) -> dict:
        ent = self._catalog.get(name)
        if ent is None:
            raise KeyError(f"no stored table named {name!r}")
        return ent

    def table_names(self) -> list[str]:
        return [name for name, ent in self._catalog.items()
                if ent is not None]

    def __contains__(self, name: str) -> bool:
        return self._catalog.get(name) is not None

    def columns(self, name: str) -> list[str]:
        return list(self._entry(name)["columns"])

    def n_rows(self, name: str) -> int:
        return int(self._entry(name)["n_rows"])

    def encoder(self, name: str, col: str) -> DictEncoder:
        """The value dictionary of a ``dict`` column."""
        key = (name, (col, "dict"))
        if key not in self._parts:
            self._parts[key] = DictEncoder.deserialize(
                self._entry(name)["dicts"][col])
        return self._parts[key]

    def index_info(self, name: str, col: str) -> dict | None:
        """``{"dtype", "eq_only", ...}`` of the index on ``name.col``."""
        ent = self._catalog.get(name)
        return None if ent is None else ent["indexes"].get(col)

    def index(self, name: str, col: str) -> SortedIndex:
        """The index :meth:`index_info` describes (``KeyError`` if none)."""
        return SortedIndex(self._read(name, (col, "keys")),
                           self._read(name, (col, "order")))

    # -- table mutation (staged; published by commit()) -----------------
    def create(self, name: str, columns: list[str],
               arrays: list[np.ndarray]) -> None:
        """Stage a whole table and its auto-indexes, replacing any of
        that name.

        Raises :class:`UnsupportedColumnError` before anything is staged if
        a column cannot be serialized; the table is left as it was.
        """
        kinds = derive_kinds(arrays)
        parts: dict = {}
        dicts: dict[str, str] = {}
        indexes: dict[str, dict] = {}
        for ci, (col, kind, arr) in enumerate(zip(columns, kinds, arrays)):
            if kind == "dict":
                encoder = DictEncoder()
                keys = encoder.encode(arr)
                dicts[col] = encoder.serialize()
                indexable = encoder.all_str()
            else:
                keys = np.ascontiguousarray(arr, dtype=_DTYPES[kind])
                indexable = kind == "i8" or not bool(np.isnan(keys).any())
            parts[name, ci] = keys
            if col in AUTO_INDEX_COLUMNS and indexable:
                order = np.argsort(keys, kind="stable")
                parts[name, (col, "keys")] = keys[order]
                parts[name, (col, "order")] = order.astype(np.int64,
                                                           copy=False)
                indexes[col] = {"dtype": _DTYPES[kind].str,
                                "eq_only": kind == "dict"}
        self._forget(name)
        self._staged[name] = {
            "columns": list(columns), "kinds": kinds, "dicts": dicts,
            "n_rows": int(arrays[0].shape[0]) if arrays else 0,
            "indexes": indexes}
        self._parts.update(parts)

    def drop(self, name: str) -> None:
        self._forget(name)
        if name in self._tables:
            self._staged[name] = None
        else:
            self._staged.pop(name, None)

    # -- reads ----------------------------------------------------------
    def _column(self, name: str, ent: dict, col: str,
                rids=None) -> np.ndarray:
        """Column ``col`` (at ``rids``), dictionary codes decoded."""
        ci = ent["columns"].index(col)
        stored = self._read(name, ci)
        if rids is not None:
            stored = stored[rids]
        if ent["kinds"][ci] == "dict":
            return self.encoder(name, col).decode(stored)
        return stored

    def load_columns(self, name: str) -> tuple[list[str], list[np.ndarray]]:
        """A whole table as (column names, column arrays): read-only views
        of the mapped blobs, decoded only where dictionary-coded."""
        ent = self._entry(name)
        return list(ent["columns"]), [self._column(name, ent, col)
                                      for col in ent["columns"]]

    def gather(self, name: str, rids: np.ndarray,
               cols: list[str]) -> dict[str, np.ndarray]:
        """Only ``cols`` at ``rids`` (rid order preserved)."""
        ent = self._entry(name)
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size and (rids.min() < 0 or rids.max() >= ent["n_rows"]):
            raise IndexError(f"rid out of range 0..{ent['n_rows']}")
        return {col: self._column(name, ent, col, rids) for col in cols}

    # -- durability -----------------------------------------------------
    def commit(self) -> None:
        """Atomically publish every staged create and drop."""
        if not self._staged:
            return
        creates = {name: ent for name, ent in self._staged.items()
                   if ent is not None}

        def written(f, name, part) -> list[int]:
            array = self._parts[(name, part)]
            self.writes += 1
            return write_blob(f, [array]) + [zlib.crc32(array)]

        with self._dir.locked() as manifest:
            tables = manifest["tables"]
            # a crashed commit's segment: none is in flight under the lock
            self._dir.sweep()
            for name in self._staged.keys() - creates.keys():
                tables.pop(name, None)
            if creates:
                with self._dir.new_segment() as (file, f):
                    for name, ent in creates.items():
                        ent["blobs"] = [written(f, name, ci)
                                        for ci in range(len(ent["columns"]))]
                        for col, info in ent["indexes"].items():
                            info["keys"] = written(f, name, (col, "keys"))
                            info["order"] = written(f, name, (col, "order"))
                    file_bytes = f.tell()
                for ent in creates.values():
                    ent.update(file=file, file_bytes=file_bytes)
                # mapped under the lock: the next commit may sweep it
                self._dir.mapped(file, file_bytes)
                tables.update(creates)
        for name, ent in self._staged.items():
            self._forget(name)  # next read: the checked view of the blob
            if ent is None:
                self._tables.pop(name, None)
            else:
                self._tables[name] = ent
        self._staged.clear()

    def close(self) -> None:
        """Discard staged changes and release every map and cached view
        (:meth:`SegmentDirectory.prune`); the storage stays usable
        afterwards (reads re-map on demand)."""
        self._staged.clear()
        self._parts.clear()
        self._dir.prune(())

    def stats(self) -> dict:
        entries = [ent for ent in self._catalog.values() if ent is not None]
        return {"reads": self.reads, "writes": self.writes,
                "commits": self._dir.commits, "tables": len(entries),
                "indexes": sum(len(ent["indexes"]) for ent in entries)}


__all__ = ["TableStorage", "SortedIndex", "DictEncoder", "derive_kinds",
           "AUTO_INDEX_COLUMNS", "UnsupportedColumnError"]
