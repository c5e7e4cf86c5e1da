"""The relation stage: how a FROM list and a WHERE become a relation.

Every statement — plain SELECT and the catalog half of INSPECT alike —
turns its bound FROM/WHERE (references read ``alias.column``, see
:func:`repro.db.expr.resolve_expr`) into column arrays keyed the same way:
:func:`plan_catalog` splits the WHERE conjunction into per-table
predicates, equi-join edges and a residual and fixes the join order;
:func:`execute_catalog_plan` scans each relation once (one
``db.full_scans`` tick each) and joins them.  Only a single clean
persistent table the index planner (:func:`repro.db.planner.plan_scan`)
answers first does not come through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.db.engine import Database
from repro.db.expr import Column, Compare, Expr
from repro.db.planner import flatten_and, predicate_mask

Columns = dict[str, np.ndarray]


def nan_positions(values: np.ndarray) -> np.ndarray | None:
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
    l_nan = nan_positions(lvals)
    r_nan = nan_positions(rvals)
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


def gather(cols: Columns, idx) -> Columns:
    """Apply one index/mask to every column, deduplicating shared arrays."""
    memo: dict[int, np.ndarray] = {}
    return {k: memo.setdefault(id(v), v[idx]) for k, v in cols.items()}


def keep_where(cols: Columns, n: int,
               preds: list[Expr]) -> tuple[Columns, int]:
    """The rows of ``cols`` on which every predicate holds."""
    if not preds:
        return cols, n
    mask = np.ones(n, dtype=bool)
    for pred in preds:
        mask &= predicate_mask(pred, cols, n)
    return gather(cols, mask), int(mask.sum())


@dataclass
class CatalogPlan:
    """Access plan for the FROM/WHERE part of a statement."""

    tables: list[tuple[str, str]]       # (table, alias), FROM order
    pushed: dict[str, list[Expr]]       # alias -> scan predicates
    edges: list[tuple[str, str]]        # equi-join (qualified, qualified)
    residual: list[Expr]                # applied after all joins
    order: list[str]                    # aliases, in the order they fold


def plan_catalog(tables: list[tuple[str, str]],
                 where: Expr | None) -> CatalogPlan:
    """Classify the (resolved) WHERE conjunction for pushdown and joins,
    and fix the join order: the FROM order, except that a relation with an
    equi-join edge into those already folded goes before one without (no
    cross product while a join is possible)."""
    pushed: dict[str, list[Expr]] = {}
    edges: list[tuple[str, str]] = []
    residual: list[Expr] = []
    linked: list[set[str]] = []         # the two aliases of each edge
    for conj in (flatten_and(where) if where is not None else []):
        aliases = {c.split(".")[0] for c in conj.columns()}
        if len(aliases) == 1:
            pushed.setdefault(aliases.pop(), []).append(conj)
        elif (len(aliases) == 2 and isinstance(conj, Compare)
              and conj.op == "=" and isinstance(conj.left, Column)
              and isinstance(conj.right, Column)):
            edges.append((conj.left.name, conj.right.name))
            linked.append(aliases)
        else:
            residual.append(conj)
    remaining = [alias for _, alias in tables]
    order = [remaining.pop(0)]
    while remaining:
        pick = next((alias for alias in remaining
                     if any(alias in pair and not pair.isdisjoint(order)
                            for pair in linked)), remaining[0])
        remaining.remove(pick)
        order.append(pick)
    return CatalogPlan(tables=tables, pushed=pushed, edges=edges,
                       residual=residual, order=order)


def _edge_endpoints(edge: tuple[str, str], left: Columns,
                    right: Columns) -> tuple[str, str] | None:
    a, b = edge
    if a in left and b in right:
        return a, b
    if b in left and a in right:
        return b, a
    return None


def execute_catalog_plan(db: Database,
                         plan: CatalogPlan) -> tuple[Columns, int]:
    """Run the access plan on the columnar engine.

    Returns the joined relation as qualified-name column arrays, rows in
    FROM-major order (the first relation's outermost: the order of the row
    engine's nested loops).  Scans push their predicates before any join;
    relations fold in ``plan.order`` — a vectorized equi-join where an
    edge connects, a columnar cross product where none does — and when
    that departs from the FROM order, the scan positions carried under
    ``alias.#`` put the rows back.
    """
    from_order = [alias for _, alias in plan.tables]
    restore = plan.order != from_order
    scanned: dict[str, tuple[Columns, int]] = {}
    for name, alias in plan.tables:
        table = db.table(name)
        db.full_scans += 1
        arrays = table.column_arrays()
        # the count of the arrays read: a row inserted since is not in them
        n = len(arrays[0]) if arrays else len(table)
        cols = {f"{alias}.{c}": arr for c, arr in zip(table.columns, arrays)}
        if restore:
            cols[f"{alias}.#"] = np.arange(n)
        scanned[alias] = keep_where(cols, n, plan.pushed.get(alias, []))

    cols, n = scanned[plan.order[0]]
    edges = list(plan.edges)
    for alias in plan.order[1:]:
        rcols, rn = scanned[alias]
        ends = [_edge_endpoints(edge, cols, rcols) for edge in edges]
        edges = [edge for edge, hit in zip(edges, ends) if hit is None]
        here = [hit for hit in ends if hit is not None]
        if here:
            li, ri = equi_match(cols[here[0][0]], rcols[here[0][1]])
        else:
            li, ri = np.repeat(np.arange(n), rn), np.tile(np.arange(rn), n)
        cols = gather(cols, li)
        cols.update(gather(rcols, ri))
        # further edges between the same two sides are equality filters
        cols, n = keep_where(cols, int(li.shape[0]),
                             [Compare("=", Column(a), Column(b))
                              for a, b in here[1:]])
    cols, n = keep_where(cols, n, plan.residual)
    if restore:
        cols = gather(cols, np.lexsort(
            [cols.pop(f"{alias}.#") for alias in reversed(from_order)]))
    return cols, n
