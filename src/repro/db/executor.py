"""SELECT execution: scan -> join -> filter -> group/aggregate -> project.

Two engines share the same logical plan, ``SelectQuery`` API and dict-row
output format:

* ``columnar`` (the default) -- operates on the numpy column arrays stored
  by :class:`repro.db.engine.Table`: predicates evaluate to boolean masks,
  equality joins gather matching index vectors, group-by keys are factorized
  with ``np.unique`` and aggregates fold whole column segments through their
  vectorized ``step_batch`` implementations.
* ``row`` -- the original Volcano-style interpreter over per-row dict
  environments with per-row aggregate stepping.  Retained for differential
  testing and because the MADLib baseline's cost profile (Section 5.1.1) is
  precisely this row-at-a-time dispatch.

The target list is limited to :data:`repro.db.engine.MAX_EXPRESSIONS`
entries, matching PostgreSQL -- the constraint that forces the MADLib
baseline to batch its hundreds of thousands of ``corr`` expressions into
many full scans.

SQL semantics shared by both engines:

* an aggregate query with no ``GROUP BY`` over zero input rows yields one
  row (``COUNT`` = 0, all other aggregates NULL);
* ``ORDER BY`` tolerates NULL values (NULLS LAST ascending, NULLS FIRST
  descending -- PostgreSQL's defaults).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.db.aggregates import get_aggregate
from repro.db.engine import MAX_EXPRESSIONS, Database
from repro.db.expr import AggregateRef, Expr
from repro.db.planner import plan_scan, predicate_mask

Row = dict[str, Any]

ENGINES = ("columnar", "row")
DEFAULT_ENGINE = "columnar"


@dataclass
class SelectItem:
    expr: Expr
    alias: str


@dataclass
class JoinSpec:
    table: str
    alias: str
    left_col: str    # qualified column from tables already in scope
    right_col: str   # qualified column of the joined table


@dataclass
class SelectQuery:
    """A logical SELECT over the mini engine."""

    items: list[SelectItem]
    table: str
    alias: str | None = None
    joins: list[JoinSpec] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None
    into: str | None = None  # persist the result as a table (SELECT INTO)


def execute_select(db: Database, query: SelectQuery,
                   engine: str | None = None) -> list[Row]:
    """Run a SELECT and return projected rows as dicts."""
    engine = engine or DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected {ENGINES}")
    if len(query.items) > MAX_EXPRESSIONS:
        raise ValueError(
            f"target list has {len(query.items)} expressions; the engine "
            f"limit is {MAX_EXPRESSIONS} (batch your query)")
    if engine == "row":
        rows, presorted = _execute_row(db, query), False
    else:
        rows, presorted = _execute_columnar(db, query)
    rows = _finalize(rows, query, skip_order=presorted)
    if query.into:
        materialize_into(db, query.into,
                         [it.alias for it in query.items], rows)
    return rows


def materialize_into(db: Database, name: str, columns: list[str],
                     rows: list[Row]) -> None:
    """SELECT INTO: persist the result rows as a (committed) table."""
    table = db.create_table(name, columns, replace=True)
    table.insert_many([tuple(r[c] for c in columns) for r in rows])
    db.commit()  # no-op for in-memory databases


# ----------------------------------------------------------------------
# shared post-processing: empty-aggregate row, HAVING, ORDER BY, LIMIT
# ----------------------------------------------------------------------
def _has_aggregates(query: SelectQuery) -> bool:
    return any(isinstance(it.expr, AggregateRef) for it in query.items)


def _empty_aggregate_row(query: SelectQuery) -> Row:
    """SQL's one-row result for aggregates over zero input rows."""
    out: Row = {}
    for it in query.items:
        if isinstance(it.expr, AggregateRef) and it.expr.func.lower() == "count":
            out[it.alias] = 0
        else:
            out[it.alias] = None
    return out


def _null_safe_key(column: str):
    # NULLS sort greatest: LAST when ascending, FIRST under reverse=True
    # (descending) -- PostgreSQL's defaults.
    def key(row: Row):
        value = row[column]
        return (value is None, 0 if value is None else value)
    return key


def _having_passes(having: Expr, row: Row) -> bool:
    try:
        return bool(having.eval(row))
    except TypeError:
        # SQL: comparisons against NULL are not true, so the row is
        # dropped -- but only when a column the predicate actually
        # references is NULL; other TypeErrors are genuine bugs
        if any(row.get(c) is None for c in having.columns()):
            return False
        raise


def _finalize(rows: list[Row], query: SelectQuery,
              skip_order: bool = False) -> list[Row]:
    if not rows and _has_aggregates(query) and not query.group_by:
        rows = [_empty_aggregate_row(query)]
    if query.having is not None:
        rows = [r for r in rows if _having_passes(query.having, r)]
    if skip_order:  # the columnar engine already ordered + limited
        return rows
    if query.order_by is not None:
        rows.sort(key=_null_safe_key(query.order_by),
                  reverse=query.descending)
    if query.limit is not None:
        rows = rows[:query.limit]
    return rows


def _pyval(value):
    """Unwrap numpy scalars so output rows hold plain Python values."""
    return value.item() if isinstance(value, np.generic) else value


# ----------------------------------------------------------------------
# columnar engine
# ----------------------------------------------------------------------
def _scan_cols(db: Database, table_name: str,
               alias: str) -> tuple[dict[str, np.ndarray], int]:
    table = db.table(table_name)
    db.full_scans += 1
    cols: dict[str, np.ndarray] = {}
    for name, arr in zip(table.columns, table.column_arrays()):
        cols[f"{alias}.{name}"] = arr
        cols.setdefault(name, arr)
    return cols, len(table)


def _nan_positions(values: np.ndarray) -> np.ndarray | None:
    if values.dtype.kind != "f":
        return None
    nan = np.isnan(values)
    return nan if nan.any() else None


def equi_match(lvals: np.ndarray,
                rvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (li, ri) with lvals[li] == rvals[ri], left-major order.

    NaN keys never match (SQL equality): np.unique would otherwise collapse
    NaNs together, so NaN rows are dropped before code assignment.
    """
    l_nan = _nan_positions(lvals)
    r_nan = _nan_positions(rvals)
    if l_nan is not None or r_nan is not None:
        l_keep = np.flatnonzero(~l_nan) if l_nan is not None \
            else np.arange(lvals.shape[0])
        r_keep = np.flatnonzero(~r_nan) if r_nan is not None \
            else np.arange(rvals.shape[0])
        li, ri = equi_match(lvals[l_keep], rvals[r_keep])
        return l_keep[li], r_keep[ri]
    try:
        allv = np.concatenate([lvals, rvals])
        _, inv = np.unique(allv, return_inverse=True)
    except TypeError:  # incomparable mixed types: hash-based fallback
        index: dict[Any, list[int]] = {}
        for j, v in enumerate(rvals.tolist()):
            index.setdefault(v, []).append(j)
        li: list[int] = []
        ri: list[int] = []
        for i, v in enumerate(lvals.tolist()):
            for j in index.get(v, ()):
                li.append(i)
                ri.append(j)
        return (np.asarray(li, dtype=np.int64),
                np.asarray(ri, dtype=np.int64))
    lcodes = inv[:lvals.shape[0]]
    rcodes = inv[lvals.shape[0]:]
    order = np.argsort(rcodes, kind="stable")
    sorted_r = rcodes[order]
    starts = np.searchsorted(sorted_r, lcodes, side="left")
    ends = np.searchsorted(sorted_r, lcodes, side="right")
    counts = ends - starts
    left_idx = np.repeat(np.arange(lcodes.shape[0]), counts)
    offsets = np.cumsum(counts) - counts
    within = np.arange(int(counts.sum())) - np.repeat(offsets, counts)
    right_idx = order[np.repeat(starts, counts) + within]
    return left_idx, right_idx


def gather(cols: dict[str, np.ndarray], idx) -> dict[str, np.ndarray]:
    """Apply one index/mask to every column, deduplicating shared arrays."""
    memo: dict[int, np.ndarray] = {}
    return {k: memo.setdefault(id(v), v[idx]) for k, v in cols.items()}


def _join_columnar(db: Database, cols: dict[str, np.ndarray],
                   join: JoinSpec) -> tuple[dict[str, np.ndarray], int]:
    right = db.table(join.table)
    db.full_scans += 1
    lvals = cols.get(join.left_col)
    if lvals is None:
        lvals = cols[join.left_col.split(".")[-1]]
    rvals = right.column(join.right_col.split(".")[-1])
    left_idx, right_idx = equi_match(lvals, rvals)
    out = gather(cols, left_idx)
    for name, arr in zip(right.columns, right.column_arrays()):
        gathered = arr[right_idx]
        out[f"{join.alias}.{name}"] = gathered
        out.setdefault(name, gathered)
    return out, int(left_idx.shape[0])


def _broadcast(value, n: int) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim == 0:
        full = np.empty(n, dtype=object if arr.dtype == object else arr.dtype)
        full[:] = arr.item() if arr.dtype == object else arr
        return full
    return arr


def sort_indices(values: np.ndarray,
                 descending: bool = False) -> np.ndarray | None:
    """Stable ORDER BY permutation over one output column, or None.

    Returns None when the column needs the row-at-a-time NULL-safe sort
    (object dtype that may hold None / mixed types, or float NaNs, whose
    ordering the shared ``_finalize`` path defines); plain numeric and
    string columns sort vectorized.  Ties keep first-occurrence order under
    both directions, matching Python's stable ``list.sort``.
    """
    arr = np.asarray(values)
    if arr.dtype == object:
        return None
    if _nan_positions(arr) is not None:
        return None
    if descending:
        # stable descending = ascending stable argsort of the negated
        # keys: equal keys keep first-occurrence order, and float ±0.0
        # still compare equal after negation.  Signed ints qualify unless
        # the minimum is unnegatable (INT_MIN overflows); everything else
        # (strings, unsigned) takes the reverse-and-remap double pass.
        if arr.dtype.kind == "f":
            return np.argsort(-arr, kind="stable")
        if arr.dtype.kind == "i" and (
                arr.shape[0] == 0
                or int(arr.min()) > np.iinfo(arr.dtype).min):
            return np.argsort(-arr, kind="stable")
        rev = np.argsort(arr[::-1], kind="stable")
        return (arr.shape[0] - 1 - rev)[::-1]
    return np.argsort(arr, kind="stable")


def topk_indices(values: np.ndarray, k: int,
                 descending: bool = False) -> np.ndarray | None:
    """First ``k`` indices of the stable ORDER BY permutation, or None.

    ``np.argpartition`` selects the k extreme rows in O(n); the boundary
    value's ties are refined to the smallest original indices and the
    survivors ordered by a stable lexsort over (dense value rank, index)
    -- bit-identical to ``sort_indices(values, descending)[:k]`` but
    without sorting the other n-k rows.  Returns None when the dtype
    needs the generic path or k is too large a fraction of n to pay off.
    """
    arr = np.asarray(values)
    n = arr.shape[0]
    if arr.dtype.kind not in "iuf" or k <= 0 or k >= n or k * 4 >= n:
        return None
    if _nan_positions(arr) is not None:
        return None
    if descending:
        boundary = arr[np.argpartition(arr, n - k)[n - k]]
        strict = np.flatnonzero(arr > boundary)
    else:
        boundary = arr[np.argpartition(arr, k - 1)[k - 1]]
        strict = np.flatnonzero(arr < boundary)
    ties = np.flatnonzero(arr == boundary)[:k - strict.shape[0]]
    cand = np.concatenate([strict, ties])
    # dense ranks avoid negating raw int64 keys (INT_MIN has no negation)
    _, rank = np.unique(arr[cand], return_inverse=True)
    key = -rank.astype(np.int64) if descending else rank
    return cand[np.lexsort((cand, key))]


def _execute_columnar(db: Database,
                      query: SelectQuery) -> tuple[list[Row], bool]:
    # planner step: a clean persistent table may answer scan + WHERE
    # (and ORDER BY + LIMIT) from its B-tree indexes
    planned = plan_scan(db, query) if not query.joins else None
    if planned is not None:
        cols, n, index_ordered = planned
    else:
        index_ordered = False
        cols, n = _scan_cols(db, query.table, query.alias or query.table)
        for join in query.joins:
            cols, n = _join_columnar(db, cols, join)

        if query.where is not None:
            mask = predicate_mask(query.where, cols, n)
            cols = gather(cols, mask)
            n = int(mask.sum())

    if query.group_by or _has_aggregates(query):
        return _group_aggregate_columnar(cols, n, query), False

    aliases = [it.alias for it in query.items]
    out_arrays = [_broadcast(it.expr.eval_batch(cols), n)
                  for it in query.items]

    # ORDER BY + LIMIT push down into the columnar path: sort the column
    # arrays and slice before materializing dict rows, so a LIMIT k query
    # builds k rows instead of n.  HAVING (applied to projected rows in
    # _finalize) must run first, so the push-down is skipped when present.
    presorted = index_ordered
    if not presorted and query.order_by is not None \
            and query.having is None and query.order_by in aliases:
        key_array = out_arrays[aliases.index(query.order_by)]
        order = None
        if query.limit is not None:
            order = topk_indices(key_array, query.limit, query.descending)
        if order is None:
            order = sort_indices(key_array, query.descending)
            if order is not None and query.limit is not None:
                order = order[:query.limit]
        if order is not None:
            out_arrays = [a[order] for a in out_arrays]
            presorted = True

    out_lists = [a.tolist() for a in out_arrays]
    return [dict(zip(aliases, vals)) for vals in zip(*out_lists)], presorted


def group_ids(key_cols: list[np.ndarray], n: int) -> tuple[np.ndarray, int]:
    """Factorize multi-column keys into group ids in first-seen order.

    NaN keys each get their own group: np.unique collapses NaNs, but the
    row engine's dict keying treats every NaN as distinct (nan != nan),
    and the engines must agree.
    """
    codes: np.ndarray | None = None
    for col in key_cols:
        try:
            uniq, inv = np.unique(col, return_inverse=True)
            c, k = inv.astype(np.int64), int(uniq.shape[0])
        except TypeError:  # incomparable mixed types
            seen: dict[Any, int] = {}
            c = np.empty(col.shape[0], dtype=np.int64)
            for i, v in enumerate(col.tolist()):
                c[i] = seen.setdefault(v, len(seen))
            k = len(seen)
        nan = _nan_positions(col)
        if nan is not None:
            c[nan] = k + np.arange(int(nan.sum()))
            k += int(nan.sum())
        codes = c if codes is None else codes * k + c
    assert codes is not None
    uniq, first_pos, inv = np.unique(codes, return_index=True,
                                     return_inverse=True)
    # relabel so group ids follow first occurrence (matches the row
    # engine's dict-insertion group order)
    rank = np.empty(uniq.shape[0], dtype=np.int64)
    rank[np.argsort(first_pos, kind="stable")] = np.arange(uniq.shape[0])
    return rank[inv], int(uniq.shape[0])


def _group_aggregate_columnar(cols: dict[str, np.ndarray], n: int,
                              query: SelectQuery) -> list[Row]:
    if n == 0:
        return []  # _finalize supplies the empty-aggregate row if needed

    if query.group_by:
        key_cols = [_broadcast(e.eval_batch(cols), n) for e in query.group_by]
        gids, n_groups = group_ids(key_cols, n)
    else:
        gids = np.zeros(n, dtype=np.int64)
        n_groups = 1

    order = np.argsort(gids, kind="stable")
    sorted_g = gids[order]
    starts = np.searchsorted(sorted_g, np.arange(n_groups), side="left")
    ends = np.searchsorted(sorted_g, np.arange(n_groups), side="right")
    rep = order[starts]  # first input row of each group

    out = [dict() for _ in range(n_groups)]
    for it in query.items:
        if not isinstance(it.expr, AggregateRef):
            values = _broadcast(it.expr.eval_batch(cols), n)[rep].tolist()
            for g in range(n_groups):
                out[g][it.alias] = values[g]
            continue
        agg = get_aggregate(it.expr.func)
        arg_arrays = [_broadcast(a.eval_batch(cols), n)
                      for a in it.expr.args]
        for g in range(n_groups):
            # one group (the MADLib corr path) needs no segment gather
            seg = None if n_groups == 1 else order[starts[g]:ends[g]]
            state = agg.init()
            if agg.step_batch is not None:
                if arg_arrays:
                    args = (arg_arrays if seg is None
                            else [a[seg] for a in arg_arrays])
                else:
                    args = [np.arange(n) if seg is None else seg]
                state = agg.step_batch(state, *args)
            elif arg_arrays:
                segmented = (arg_arrays if seg is None
                             else [a[seg] for a in arg_arrays])
                for tup in zip(*(a.tolist() for a in segmented)):
                    state = agg.step(state, *tup)
            else:
                size = n if seg is None else seg.shape[0]
                for _ in range(size):
                    state = agg.step(state)
            out[g][it.alias] = _pyval(agg.final(state))
    return out


# ----------------------------------------------------------------------
# row engine (the original Volcano interpreter)
# ----------------------------------------------------------------------
def _env_from_row(alias: str, columns: list[str], row: tuple) -> Row:
    env: Row = {}
    for col, val in zip(columns, row):
        env[f"{alias}.{col}"] = val
        env.setdefault(col, val)
    return env


def _merge_env(base: Row, extra: Row) -> Row:
    merged = dict(base)
    for key, val in extra.items():
        if "." in key or key not in merged:
            merged[key] = val
    return merged


def _execute_row(db: Database, query: SelectQuery) -> list[Row]:
    # 1. scan + joins (hash join on single-column equality)
    base = db.table(query.table)
    alias = query.alias or query.table
    envs = [_env_from_row(alias, base.columns, row)
            for row in db.scan(query.table)]
    for join in query.joins:
        right = db.table(join.table)
        index: dict[Any, list[Row]] = {}
        right_key = join.right_col.split(".")[-1]
        for row in db.scan(join.table):
            env = _env_from_row(join.alias, right.columns, row)
            index.setdefault(env[f"{join.alias}.{right_key}"], []).append(env)
        joined: list[Row] = []
        for env in envs:
            key = env.get(join.left_col, env.get(join.left_col.split(".")[-1]))
            for match in index.get(key, []):
                joined.append(_merge_env(env, match))
        envs = joined

    # 2. filter
    if query.where is not None:
        envs = [env for env in envs if query.where.eval(env)]

    if query.group_by or _has_aggregates(query):
        return _group_and_aggregate(envs, query)
    return [{it.alias: it.expr.eval(env) for it in query.items}
            for env in envs]


def _group_and_aggregate(envs: list[Row], query: SelectQuery) -> list[Row]:
    """Hash group-by with row-at-a-time aggregate stepping."""
    agg_items = [(i, it) for i, it in enumerate(query.items)
                 if isinstance(it.expr, AggregateRef)]
    plain_items = [(i, it) for i, it in enumerate(query.items)
                   if not isinstance(it.expr, AggregateRef)]

    groups: dict[tuple, dict] = {}
    for env in envs:
        key = tuple(expr.eval(env) for expr in query.group_by)
        slot = groups.get(key)
        if slot is None:
            slot = {
                "env": env,
                "states": [get_aggregate(it.expr.func).init()
                           for _, it in agg_items],
            }
            groups[key] = slot
        for pos, (_, item) in enumerate(agg_items):
            agg = get_aggregate(item.expr.func)
            args = [a.eval(env) for a in item.expr.args]
            slot["states"][pos] = agg.step(slot["states"][pos], *args)

    rows: list[Row] = []
    for slot in groups.values():
        out: Row = {}
        for _, item in plain_items:
            out[item.alias] = item.expr.eval(slot["env"])
        for pos, (_, item) in enumerate(agg_items):
            agg = get_aggregate(item.expr.func)
            out[item.alias] = _pyval(agg.final(slot["states"][pos]))
        rows.append(out)
    return rows
