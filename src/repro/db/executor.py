"""SELECT execution: bind -> relation -> select -> rows.

Every statement runs the same three stages, each implemented once:

* **bind** (:func:`bind`) -- every column reference is resolved against
  the FROM schema (:func:`repro.db.expr.resolve_expr`), duplicate output
  names are rejected, and an ``ORDER BY`` key the SELECT list does not
  project is carried as a hidden trailing item.  The bound form is kept on
  the query, so a repeated statement binds once.
* **relation** -- the FROM list and WHERE become column arrays: from the
  sorted indexes of a single clean persistent table when
  :func:`repro.db.planner.plan_scan` can, else through
  :mod:`repro.db.relation` (pushed predicates, equi-joins, cross products).
* **select** (:func:`select_columnar`) -- group/aggregate or project,
  HAVING over the projected rows, ORDER BY + LIMIT.  The INSPECT frontend
  calls this stage directly on its score relation.

Two engines share the bound query, the ``SelectQuery`` API and the
dict-row output format:

* ``columnar`` (the default) -- the stages above over the numpy column
  arrays stored by :class:`repro.db.engine.Table`: predicates evaluate to
  boolean masks, equality joins gather matching index vectors, group-by
  keys are factorized with ``np.unique`` and aggregates fold whole column
  segments through their vectorized ``step_batch`` implementations.
* ``row`` -- the original Volcano-style interpreter over per-row dict
  environments (hash join for ``JOIN ... ON``, nested loops for a comma
  join) with per-row aggregate stepping.  Retained for differential
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
  descending -- PostgreSQL's defaults);
* without an ``ORDER BY``, rows come in FROM-major order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.db.aggregates import get_aggregate
from repro.db.engine import MAX_EXPRESSIONS, Database
from repro.db.expr import (AggregateRef, BoolOp, Column, Compare, Expr,
                           Schema, resolve_expr)
from repro.db.planner import plan_scan
from repro.db.relation import (CatalogPlan, execute_catalog_plan,
                               nan_positions, plan_catalog)

Row = dict[str, Any]

ENGINES = ("columnar", "row")
DEFAULT_ENGINE = "columnar"

#: output name of the hidden ORDER BY key (no parsed alias can spell it)
ORDER_KEY = "#order"


@dataclass
class SelectItem:
    expr: Expr
    alias: str


@dataclass
class JoinSpec:
    """One more FROM entry: ``JOIN table alias ON left_col = right_col``,
    or a comma join (``FROM a, table alias``) when the columns are None."""

    table: str
    alias: str
    left_col: str | None = None   # column from tables already in scope
    right_col: str | None = None  # column of the joined table


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
    #: last execution's bound form (:func:`bind`), checked against the
    #: statement and the FROM tables' columns before every reuse
    bound: "BoundSelect | None" = field(default=None, init=False,
                                        repr=False, compare=False)

    @property
    def tables(self) -> list[tuple[str, str]]:
        """The FROM list as (table, alias) pairs."""
        return [(self.table, self.alias or self.table)] \
            + [(join.table, join.alias) for join in self.joins]


@dataclass
class BoundSelect:
    """A :class:`SelectQuery` after name binding."""

    statement: tuple        # the fields it was bound from (_statement)
    columns: list           # the FROM tables' column lists it is valid for
    query: SelectQuery      # every reference qualified, ORDER_KEY appended
    plan: CatalogPlan       # its relation stage, ON columns as equi-edges


def _statement(query: SelectQuery) -> tuple:
    """Every field the bound query copies or rewrites, lists by value: a
    query edited between runs (``q.limit = 5``, ``q.items.append(...)``)
    compares unequal; an untouched one compares by identity, node by node
    (item and expression nodes are values: an edit *inside* one is unseen)."""
    return (tuple(query.items), query.table, query.alias, tuple(query.joins),
            query.where, tuple(query.group_by), query.having, query.order_by,
            query.descending, query.limit)


def from_schema(db: Database, tables: list[tuple[str, str]]) -> Schema:
    """The column namespace of a FROM list (unknown table: ``KeyError``)."""
    schema = Schema()
    for name, alias in tables:
        schema.add(alias, db.table(name).columns)
    return schema


def bind_select_list(items: list[SelectItem], order_by: str | None,
                     schema: Schema) -> tuple[list[SelectItem], str | None]:
    """The SELECT list and ORDER BY name bound against ``schema``.

    Output names must be distinct (dict rows would collapse two columns
    into one).  ``order_by`` names an output column or, failing that, a
    schema column: carried as a hidden trailing item :data:`ORDER_KEY`,
    which either engine sorts on and :func:`_finalize` drops.
    """
    bound = [SelectItem(resolve_expr(item.expr, schema), item.alias)
             for item in items]
    names: set[str] = set()
    for item in items:
        if item.alias in names:
            raise ValueError(f"duplicate output column {item.alias!r} in "
                             "SELECT; give each item its own AS alias")
        names.add(item.alias)
    if order_by is not None and order_by not in names:
        bound.append(SelectItem(Column(schema.resolve(order_by)), ORDER_KEY))
        order_by = ORDER_KEY
    return bound, order_by


def bind(db: Database, query: SelectQuery) -> BoundSelect:
    """``query`` with every name resolved, kept on it from run to run.

    A binding depends on the statement and on which columns its FROM
    tables have, not on their contents (``INTO`` replacing a table with
    the same columns keeps it); both are compared before it is reused.
    """
    bound, statement = query.bound, _statement(query)
    if bound is not None and bound.statement == statement \
            and bound.columns == [db.table(name).columns
                                  for name, _ in bound.plan.tables]:
        return bound
    tables = query.tables
    schema = from_schema(db, tables)
    items, order_by = bind_select_list(query.items, query.order_by, schema)
    joins = [join if join.left_col is None else JoinSpec(
        join.table, join.alias, schema.resolve(join.left_col),
        schema.resolve(join.right_col)) for join in query.joins]
    where = None if query.where is None else resolve_expr(query.where, schema)
    conjuncts = [Compare("=", Column(join.left_col), Column(join.right_col))
                 for join in joins if join.left_col is not None] \
        + ([] if where is None else [where])
    bound = query.bound = BoundSelect(
        statement=statement,
        columns=[list(db.table(name).columns) for name, _ in tables],
        query=dataclasses.replace(
            query, items=items, joins=joins, where=where,
            group_by=[resolve_expr(e, schema) for e in query.group_by],
            order_by=order_by),
        plan=plan_catalog(tables, BoolOp("and", conjuncts)))
    return bound


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
    bound = bind(db, query)
    if engine == "row":
        rows = _finalize(_execute_row(db, bound.query), bound.query)
    else:
        rows = _execute_columnar(db, bound)
    if query.into:
        materialize_into(db, query.into,
                         [it.alias for it in query.items], rows)
    return rows


def materialize_into(db: Database, name: str, columns: list[str],
                     rows: list[Row]) -> None:
    """SELECT INTO: persist the result rows as a (committed) table."""
    # published whole: a concurrent reader never sees it empty or partial
    db.create_table(name, columns, [tuple(r[c] for c in columns)
                                    for r in rows], replace=True)
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


def _null_safe(value):
    # NULLS sort greatest: LAST when ascending, FIRST under reverse=True
    # (descending) -- PostgreSQL's defaults.
    return (value is None, 0 if value is None else value)


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
    if not skip_order:  # else: already ordered + limited
        if query.order_by is not None:
            rows.sort(key=lambda row: _null_safe(row[query.order_by]),
                      reverse=query.descending)
        if query.limit is not None:
            rows = rows[:query.limit]
    if query.order_by == ORDER_KEY:  # the one place the hidden key goes
        for row in rows:
            del row[ORDER_KEY]
    return rows


def _pyval(value):
    """Unwrap numpy scalars so output rows hold plain Python values."""
    return value.item() if isinstance(value, np.generic) else value


# ----------------------------------------------------------------------
# columnar engine
# ----------------------------------------------------------------------
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
    if nan_positions(arr) is not None:
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
    if nan_positions(arr) is not None:
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


def _execute_columnar(db: Database, bound: BoundSelect) -> list[Row]:
    # planner step: a clean persistent table may answer scan + WHERE
    # (and ORDER BY + LIMIT) from its sorted indexes
    planned = plan_scan(db, bound.query)
    if planned is None:
        planned = (*execute_catalog_plan(db, bound.plan), False)
    cols, n, ordered = planned
    return select_columnar(cols, n, bound.query, presorted=ordered)


def select_columns(cols: dict[str, np.ndarray], n: int, query: SelectQuery,
                   presorted: bool = False) -> tuple[dict[str, list], bool]:
    """The projection of :func:`select_columnar` (a query that neither
    groups nor aggregates): ``query.items`` over the relation as ``{alias:
    values}`` lists, the hidden ORDER BY key among them, and whether they
    sit in final ORDER BY + LIMIT order — always, unless the query has a
    HAVING: a caller that wants columns need not build rows."""
    out = {it.alias: _broadcast(it.expr.eval_batch(cols), n)
           for it in query.items}
    # ORDER BY + LIMIT push down into the columnar path: sort the column
    # arrays and slice before materializing dict rows, so a LIMIT k query
    # builds k rows instead of n.  HAVING (applied to projected rows in
    # _finalize) must run first, so the push-down is skipped when present.
    if not presorted and query.having is None:
        if query.order_by is None:
            order = slice(query.limit)
        else:
            key_array = out[query.order_by]
            order = None
            if query.limit is not None:
                order = topk_indices(key_array, query.limit,
                                     query.descending)
            if order is None:
                order = sort_indices(key_array, query.descending)
            if order is None:   # NaN / object keys: the rows' own sort
                keys = key_array.tolist()
                order = np.asarray(sorted(
                    range(n), key=lambda i: _null_safe(keys[i]),
                    reverse=query.descending), dtype=np.intp)
            order = order[:query.limit]
        out = {alias: a[order] for alias, a in out.items()}
        presorted = True
    return {alias: a.tolist() for alias, a in out.items()}, presorted


def select_columnar(cols: dict[str, np.ndarray], n: int,
                    query: SelectQuery, presorted: bool = False) -> list[Row]:
    """The select stage over ``n`` rows of a bound relation.

    Group/aggregate or project ``query.items`` (bound: see
    :func:`bind_select_list`), then HAVING, ORDER BY and LIMIT;
    ``presorted``: the rows already sit in final ORDER BY + LIMIT order.
    ``query.where`` is the relation stage's and is not read here.
    """
    if query.group_by or _has_aggregates(query):
        return _finalize(_group_aggregate_columnar(cols, n, query), query)
    out, presorted = select_columns(cols, n, query, presorted)
    rows = [dict(zip(out, vals)) for vals in zip(*out.values())]
    return _finalize(rows, query, skip_order=presorted)


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
        nan = nan_positions(col)
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
def _envs(db: Database, name: str, alias: str) -> list[Row]:
    columns = [f"{alias}.{col}" for col in db.table(name).columns]
    return [dict(zip(columns, row)) for row in db.scan(name)]


def _execute_row(db: Database, query: SelectQuery) -> list[Row]:
    # 1. scan + joins: hash join on the ON equality, nested loops without
    envs = _envs(db, query.table, query.alias or query.table)
    for join in query.joins:
        right = _envs(db, join.table, join.alias)
        if join.left_col is None:
            envs = [{**env, **match} for env in envs for match in right]
            continue
        index: dict[Any, list[Row]] = {}
        for env in right:
            index.setdefault(env[join.right_col], []).append(env)
        envs = [{**env, **match} for env in envs
                for match in index.get(env[join.left_col], [])]

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
