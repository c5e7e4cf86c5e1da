"""Tables and catalog for the mini relational engine.

Tables are stored **columnar**: each column is one numpy array (float64 /
int64 for numeric columns, ``object`` for everything else).  The columnar
executor consumes these arrays directly; the retained row engine (and the
MADLib UDAs that deliberately model row-at-a-time cost, Section 5.1.1) go
through the materialized :attr:`Table.rows` tuple view, which is rebuilt
lazily from the column arrays.

Inserts land in a small row buffer that is flushed into the column arrays
the next time a columnar (or row) view is requested, so single-row
``insert`` stays cheap while bulk loads pay one transpose.

A :class:`Database` opened with a ``path`` is **persistent**: tables are
mirrored, column for column, into a :class:`~repro.db.storage.TableStorage`
— the behaviour store's segment format.  Mutations stage in memory and
:meth:`Database.commit` publishes every table whose content moved since
its last commit, whole, atomically (one segment, one manifest rename);
reopening the path restores the catalog, with column arrays mapped lazily
on first access.  Hot columns get automatic sorted indexes that the
executor's planner step routes sargable WHERE conjuncts and ORDER BY+LIMIT
through (see :mod:`repro.db.planner`).  Tables whose values cannot be
serialized degrade to memory-only instead of failing.

PostgreSQL limits the number of columns/expressions per relation and target
list (1,600 by default); :data:`MAX_EXPRESSIONS` enforces the same limit so
the MADLib baseline must batch its correlation queries exactly as the paper
describes.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

from repro.db.storage import TableStorage, UnsupportedColumnError
from repro.util.debuglog import degraded

#: PostgreSQL's default limit on columns / target-list entries.
MAX_EXPRESSIONS = 1600

#: process-wide content stamps (``Table.version``, a session's registry
#: generation), drawn on every creation and mutation: equal stamps mean the
#: same object in the same state, also across a drop and re-create
next_version = itertools.count().__next__


def _as_column(values: list) -> np.ndarray:
    """Build a column array, preserving exact values for non-float data."""
    numeric = True
    has_float = False
    for v in values:
        if isinstance(v, bool):
            numeric = False
            break
        if isinstance(v, (float, np.floating)):
            has_float = True
        elif not isinstance(v, (int, np.integer)):
            numeric = False
            break
    if numeric:
        if has_float:
            return np.asarray(values, dtype=np.float64)
        return np.asarray(values, dtype=np.int64)
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _append_column(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    if old.shape[0] == 0:
        return new
    if new.shape[0] == 0:
        return old
    if old.dtype == object or new.dtype == object:
        out = np.empty(old.shape[0] + new.shape[0], dtype=object)
        out[:old.shape[0]] = old
        out[old.shape[0]:] = new
        return out
    return np.concatenate([old, new])


class Table:
    """A named relation: column names + numpy column arrays."""

    def __init__(self, name: str, columns: Sequence[str],
                 rows: Iterable[Sequence[Any]] | None = None, *,
                 loader: Callable[[], list[np.ndarray]] | None = None,
                 n_rows: int = 0):
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names in {name!r}")
        if len(columns) > MAX_EXPRESSIONS:
            raise ValueError(
                f"table {name!r} exceeds the {MAX_EXPRESSIONS}-column limit")
        self.name = name
        self.columns = list(columns)
        self._index = {c: i for i, c in enumerate(self.columns)}
        self._cols: list[np.ndarray] = [
            np.empty(0, dtype=np.float64) for _ in self.columns]
        self._n_stored = 0
        self._buffer: list[tuple] = []
        # guards the buffer, the fold and the row view: concurrent readers
        # fold once, and an insert beside a fold or a row-view build is
        # neither lost, folded twice nor hidden by a stale view
        self._buffer_lock = threading.Lock()
        self._rows_cache: list[tuple] | None = None
        #: content stamp (compiled statements are valid while it holds)
        self.version = next_version()
        # lazily-loaded persistent tables know their row count up front but
        # defer decoding the column arrays until something touches them
        self._loader = loader
        if loader is not None:
            self._n_stored = int(n_rows)
        if rows:
            self._buffer = [tuple(r) for r in rows]
            for i, row in enumerate(self._buffer):
                if len(row) != len(self.columns):
                    raise ValueError(
                        f"row {i} arity {len(row)} != table arity "
                        f"{len(self.columns)}")
            self._flush()

    # ------------------------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._loader is not None:
            # clear the loader only on success: a failed load (e.g. a
            # corrupt blob) must leave the table lazy, not silently empty
            self._cols = self._loader()
            self._loader = None

    @property
    def is_loaded(self) -> bool:
        """False while a persistent table's arrays are still on disk."""
        return self._loader is None

    def _flush(self) -> None:
        """Fold buffered rows into the column arrays."""
        with self._buffer_lock:
            self._fold()

    def _fold(self) -> None:
        """:meth:`_flush`'s body, for a caller holding ``_buffer_lock``."""
        self._ensure_loaded()
        if not self._buffer:
            return
        transposed = list(zip(*self._buffer)) or [
            () for _ in self.columns]
        self._cols = [_append_column(old, _as_column(list(vals)))
                      for old, vals in zip(self._cols, transposed)]
        self._n_stored += len(self._buffer)
        self._buffer = []

    def col_index(self, column: str) -> int:
        try:
            return self._index[column]
        except KeyError:
            raise KeyError(
                f"no column {column!r} in table {self.name!r} "
                f"(has {self.columns})") from None

    def column(self, name: str) -> np.ndarray:
        """The numpy array backing one column (the columnar access path)."""
        self._flush()
        return self._cols[self.col_index(name)]

    def column_arrays(self) -> list[np.ndarray]:
        """All column arrays, in schema order."""
        self._flush()
        return list(self._cols)

    @property
    def rows(self) -> list[tuple]:
        """Row-tuple view, rebuilt lazily from the column arrays."""
        with self._buffer_lock:
            if self._rows_cache is None:
                self._fold()
                self._rows_cache = list(
                    zip(*(c.tolist() for c in self._cols))) \
                    if self._n_stored else []
            return self._rows_cache

    def insert(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row arity {len(row)} != table arity {len(self.columns)}")
        with self._buffer_lock:
            self._buffer.append(tuple(row))
            self._rows_cache = None
            self.version = next_version()

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.insert(row)

    def scan(self) -> Iterable[tuple]:
        """Full sequential row scan (no indexes)."""
        return iter(self.rows)

    def __len__(self) -> int:
        with self._buffer_lock:
            return self._n_stored + len(self._buffer)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self.columns)} cols, {len(self)} rows)"


class Database:
    """A catalog of tables plus simple scan statistics.

    With a ``path`` the catalog is backed by an on-disk
    :class:`~repro.db.storage.TableStorage`: mutations (creates, drops,
    inserts) stage in memory and :meth:`commit` publishes them atomically;
    reopening the same path restores every committed table.  The planner
    consults :meth:`index_for` to route queries through the automatic
    sorted indexes — only tables whose in-memory state matches the last
    commit are served from an index, so uncommitted rows can never be
    silently missing from a result.
    """

    def __init__(self, path: str | None = None) -> None:
        self.tables: dict[str, Table] = {}
        self.full_scans = 0   # instrumentation for the benchmarks
        self.index_scans = 0  # queries answered via an index range scan
        self.use_indexes = True
        self.storage = None
        #: table name -> the content stamp (``Table.version``) it was last
        #: committed at; a table is clean iff its stamp still equals it
        self._committed: dict[str, int] = {}
        #: the same for tables found unserializable: kept in memory, not
        #: tried again until their content moves
        self._memory_only: dict[str, int] = {}
        if path is not None:
            self.storage = TableStorage(path)
            for name in self.storage.table_names():
                table = self.tables[name] = Table(
                    name, self.storage.columns(name),
                    loader=lambda name=name:
                        self.storage.load_columns(name)[1],
                    n_rows=self.storage.n_rows(name))
                self._committed[name] = table.version

    @property
    def path(self) -> str | None:
        return str(self.storage.root) if self.storage is not None else None

    def create_table(self, name: str, columns: Sequence[str],
                     rows: Iterable[Sequence[Any]] | None = None,
                     replace: bool = False) -> Table:
        if name in self.tables and not replace:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, columns, rows)
        self.tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        self.tables.pop(name, None)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    # -- persistence -----------------------------------------------------
    def commit(self) -> None:
        """Publish, atomically, every table whose content stamp moved since
        its last commit (whole) and every drop.

        A no-op for in-memory databases.  Tables whose values cannot be
        serialized degrade to memory-only rather than failing the commit.
        """
        if self.storage is None:
            return
        for name in [n for n in self._committed if n not in self.tables]:
            self.storage.drop(name)
            del self._committed[name]
        staged = {}
        for name, table in self.tables.items():
            if table.version in (self._committed.get(name),
                                 self._memory_only.get(name)):
                continue
            try:
                self.storage.create(name, table.columns,
                                    table.column_arrays())
            except UnsupportedColumnError as exc:
                degraded("db.table-memory-only", name, exc=exc)
                self.storage.drop(name)
                self._committed.pop(name, None)
                self._memory_only[name] = table.version
            else:
                staged[name] = table.version
        self.storage.commit()
        self._committed.update(staged)

    def table_clean(self, name: str) -> bool:
        """True when a table's in-memory state matches the last commit.

        Only then may the planner answer from the on-disk indexes —
        otherwise uncommitted rows would be missing from results.
        """
        table = self.tables.get(name)
        return table is not None \
            and self._committed.get(name) == table.version

    def index_for(self, name: str, col: str):
        """``(SortedIndex, info)`` for a usable index on ``name.col``, else
        None."""
        if not self.use_indexes or not self.table_clean(name):
            return None
        info = self.storage.index_info(name, col)
        if info is None:
            return None
        return self.storage.index(name, col), info

    def close(self) -> None:
        """Commit pending changes and release the storage's maps.

        Idempotent: a second call finds nothing to commit or release.
        """
        if self.storage is not None:
            self.commit()
            self.storage.close()

    def scan(self, name: str) -> Iterable[tuple]:
        self.full_scans += 1
        return self.table(name).scan()

    def scan_columns(self, name: str,
                     columns: Sequence[str] | None = None) -> list[np.ndarray]:
        """One full columnar pass: counted like :meth:`scan`."""
        self.full_scans += 1
        table = self.table(name)
        names = table.columns if columns is None else columns
        return [table.column(c) for c in names]
