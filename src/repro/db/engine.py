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

A :class:`Database` opened with ``path=`` is **persistent**: tables are
mirrored into a paged, B-tree-indexed :class:`~repro.db.storage.TableStorage`
next to the behavior store.  Mutations stage in memory and
:meth:`Database.commit` publishes them atomically (shadow-paged pages, one
manifest rename); reopening the path restores the catalog, with column
arrays loaded lazily on first access.  Hot columns get automatic B-tree
indexes that the executor's planner step routes sargable WHERE conjuncts
and ORDER BY+LIMIT through (see :mod:`repro.db.planner`).  Tables whose
values cannot be serialized degrade to memory-only instead of failing.

PostgreSQL limits the number of columns/expressions per relation and target
list (1,600 by default); :data:`MAX_EXPRESSIONS` enforces the same limit so
the MADLib baseline must batch its correlation queries exactly as the paper
describes.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

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
            # corrupt page) must leave the table lazy, not silently empty
            self._cols = self._loader()
            self._loader = None

    @property
    def is_loaded(self) -> bool:
        """False while a persistent table's arrays are still on disk."""
        return self._loader is None

    def _flush(self) -> None:
        """Fold buffered rows into the column arrays."""
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
        if self._rows_cache is None:
            self._flush()
            self._rows_cache = list(
                zip(*(c.tolist() for c in self._cols))) if self._n_stored \
                else []
        return self._rows_cache

    def insert(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row arity {len(row)} != table arity {len(self.columns)}")
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
        return self._n_stored + len(self._buffer)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self.columns)} cols, {len(self)} rows)"


class Database:
    """A catalog of tables plus simple scan statistics.

    With ``path=`` the catalog is backed by a paged on-disk
    :class:`~repro.db.storage.TableStorage`: mutations (creates, drops,
    inserts) stage in memory and :meth:`commit` publishes them atomically;
    reopening the same path restores every committed table.  The planner
    consults :meth:`index_for` to route queries through the automatic
    B-tree indexes — only tables whose in-memory state matches the last
    commit are served from an index, so uncommitted rows can never be
    silently missing from a result.
    """

    def __init__(self, path: str | None = None, *,
                 page_size: int | None = None,
                 cache_bytes: int = 64 << 20,
                 auto_index: bool = True) -> None:
        self.tables: dict[str, Table] = {}
        self.full_scans = 0   # instrumentation for the benchmarks
        self.index_scans = 0  # queries answered via a B-tree range scan
        self.use_indexes = True
        self.storage = None
        self._memory_only: set[str] = set()   # unserializable tables
        self._created: set[str] = set()       # need a full rewrite
        self._dropped: set[str] = set()
        self._synced_rows: dict[str, int] = {}
        if path is not None:
            from repro.db.storage import PAGE_SIZE, TableStorage
            self.storage = TableStorage(
                path, page_size=page_size or PAGE_SIZE,
                cache_bytes=cache_bytes, auto_index=auto_index)
            for name in self.storage.table_names():
                n = self.storage.n_rows(name)
                self.tables[name] = Table(
                    name, self.storage.columns(name),
                    loader=self._loader_for(name), n_rows=n)
                self._synced_rows[name] = n

    def _loader_for(self, name: str) -> Callable[[], list[np.ndarray]]:
        def load() -> list[np.ndarray]:
            _, arrays = self.storage.load_columns(name)
            return arrays
        return load

    @property
    def path(self) -> str | None:
        return str(self.storage.pager.root) if self.storage is not None \
            else None

    def create_table(self, name: str, columns: Sequence[str],
                     rows: Iterable[Sequence[Any]] | None = None,
                     replace: bool = False) -> Table:
        if name in self.tables and not replace:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, columns, rows)
        self.tables[name] = table
        if self.storage is not None:
            self._created.add(name)
            self._dropped.discard(name)
            self._memory_only.discard(name)
            self._synced_rows.pop(name, None)
        return table

    def drop_table(self, name: str) -> None:
        self.tables.pop(name, None)
        if self.storage is not None:
            self._dropped.add(name)
            self._created.discard(name)
            self._memory_only.discard(name)
            self._synced_rows.pop(name, None)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    # -- persistence -----------------------------------------------------
    def commit(self) -> None:
        """Publish every staged table mutation atomically.

        A no-op for in-memory databases.  Tables whose values cannot be
        serialized degrade to memory-only rather than failing the commit.
        """
        if self.storage is None:
            return
        from repro.db.storage import UnsupportedColumnError, derive_kinds
        for name in self._dropped:
            if name in self.storage:
                self.storage.drop(name)
        self._dropped.clear()
        for name, table in self.tables.items():
            if name in self._memory_only:
                continue
            if table._loader is not None and not table._buffer:
                continue  # never touched since load: already synced
            arrays = table.column_arrays()
            n = len(table)
            synced = self._synced_rows.get(name)
            rewrite = (
                name in self._created or synced is None
                or n < synced
                or self.storage.columns(name) != table.columns
                or self.storage.kinds(name) != derive_kinds(arrays))
            try:
                if rewrite:
                    self.storage.create(name, table.columns, arrays,
                                        n_rows=n)
                elif n > synced:
                    self.storage.append(
                        name, [a[synced:] for a in arrays])
            except UnsupportedColumnError as exc:
                from repro.util.debuglog import degraded
                degraded("db.table-memory-only", name, exc=exc)
                if name in self.storage:
                    self.storage.drop(name)
                self._memory_only.add(name)
                self._synced_rows.pop(name, None)
                continue
            self._synced_rows[name] = n
        self._created.clear()
        self.storage.commit()

    def table_clean(self, name: str) -> bool:
        """True when a table's in-memory state matches the last commit.

        Only then may the planner answer from the on-disk indexes —
        otherwise uncommitted rows would be missing from results.
        """
        if self.storage is None or name not in self.storage:
            return False
        if name in self._created or name in self._memory_only:
            return False
        table = self.tables.get(name)
        if table is None or table._buffer:
            return False
        return len(table) == self._synced_rows.get(name, -1)

    def index_for(self, name: str, col: str):
        """``(BTree, info)`` for a usable index on ``name.col``, else None."""
        if not self.use_indexes or not self.table_clean(name):
            return None
        info = self.storage.index_info(name, col)
        if info is None:
            return None
        return self.storage.btree(name, col), info

    def close(self) -> None:
        """Commit pending changes and release the storage files."""
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
