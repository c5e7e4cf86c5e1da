"""Index-aware scan planning for the columnar executor.

For single-table queries over a **clean** persistent table (in-memory
state identical to the last commit) the planner can answer the scan +
WHERE stage from the on-disk sorted indexes
(:class:`~repro.db.storage.SortedIndex`) instead of a full column pass:

* **Top-k streaming** — ``ORDER BY col LIMIT k`` where ``col`` carries a
  range index: rid batches stream out of the index in ``(key, rid)``
  order (descending scans keep equal-key runs in ascending rid order),
  residual predicates filter each batch, and the scan stops after ``k``
  survivors.  Only the referenced columns of those ``k`` rows are ever
  gathered — a reopened session answers the query without loading the
  table.
* **Range scan** — sargable WHERE conjuncts (``col <op> literal`` under
  an AND chain) on an indexed column become index range bounds; the
  matching rids are re-sorted ascending so downstream operators see rows
  in exactly full-scan order, and residual conjuncts are evaluated on
  the gathered batch.

Bounds are converted into the index's key space *exactly*: comparing an
int64 column against a fractional float literal floors/ceils the bound
(``x > 2.5`` ⇢ ``x >= 3``), string literals on dictionary columns become
dictionary codes, NaN literals prove emptiness.  Anything the planner
cannot prove equivalent falls back to the vectorized full scan, so index
on/off is bit-identical by construction.

This module must not import :mod:`repro.db.executor` (which imports it).
"""

from __future__ import annotations

import math

import numpy as np

from repro.db.engine import Database, Table
from repro.db.expr import AggregateRef, BoolOp, Column, Compare, Expr, Literal

_IMAX = np.iinfo(np.int64).max
_IMIN = np.iinfo(np.int64).min

#: sentinel bound conversion result: the predicate provably selects nothing
_EMPTY = object()


def flatten_and(expr: Expr) -> list[Expr]:
    """Conjuncts of an AND chain (the expression itself when not AND)."""
    if isinstance(expr, BoolOp) and expr.op == "and":
        out: list[Expr] = []
        for operand in expr.operands:
            out.extend(flatten_and(operand))
        return out
    return [expr]


def _and_together(conjuncts: list[Expr]) -> Expr | None:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BoolOp("and", conjuncts)


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _as_sarg(expr: Expr) -> tuple[str, str, object] | None:
    """``(column, op, literal)`` for an index-able comparison, else None."""
    if not isinstance(expr, Compare) or expr.op not in _FLIP:
        return None
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(left, Literal) and isinstance(right, Column):
        left, right, op = right, left, _FLIP[op]
    if not (isinstance(left, Column) and isinstance(right, Literal)):
        return None
    value = right.value
    if not isinstance(value, (bool, int, float, str, np.integer, np.floating)):
        return None
    return left.name, op, value


class _Bounds:
    """Intersection of range constraints in the index's key space."""

    def __init__(self) -> None:
        self.lo = None
        self.lo_incl = True
        self.hi = None
        self.hi_incl = True
        self.constrained = False

    def add_lo(self, value, incl: bool) -> None:
        self.constrained = True
        if self.lo is None or value > self.lo or \
                (value == self.lo and self.lo_incl and not incl):
            self.lo, self.lo_incl = value, incl

    def add_hi(self, value, incl: bool) -> None:
        self.constrained = True
        if self.hi is None or value < self.hi or \
                (value == self.hi and self.hi_incl and not incl):
            self.hi, self.hi_incl = value, incl

    def add_eq(self, value) -> None:
        self.add_lo(value, True)
        self.add_hi(value, True)

    @property
    def empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_incl and self.hi_incl)


def _apply_float_sarg(bounds: _Bounds, op: str, value) -> bool:
    """Fold one conjunct into float-key bounds; False ⇒ provably empty."""
    v = float(value)
    if math.isnan(v):
        return False  # every comparison with NaN is false
    if op == "=":
        bounds.add_eq(v)
    elif op == ">":
        bounds.add_lo(v, False)
    elif op == ">=":
        bounds.add_lo(v, True)
    elif op == "<":
        bounds.add_hi(v, False)
    else:
        bounds.add_hi(v, True)
    return True


def _apply_int_sarg(bounds: _Bounds, op: str, value) -> bool:
    """Exact int64 bound for ``int_column <op> value``; False ⇒ empty.

    Fractional float literals floor/ceil to the tightest equivalent
    integer bound (``x > 2.5`` ⇢ ``x > 2`` strict ⇢ ``x >= 3``), so the
    index scan matches numpy's mixed int/float comparison bit for bit.
    """
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return False
        if math.isinf(v):
            if op == "=":
                return False
            if v > 0:  # +inf: x < +inf is no constraint, x > +inf empty
                return op in ("<", "<=")
            return op in (">", ">=")  # -inf mirrored
        integral = v == int(v)
        b = math.floor(v)
        if op == "=":
            if not integral:
                return False
            op, b = "=", int(v)
        elif op == ">":
            op = ">"          # x > 2.0 ⇔ x > 2; x > 2.5 ⇔ x > 2
        elif op == ">=":
            op = ">=" if integral else ">"
        elif op == "<":
            op = "<" if integral else "<="
        else:  # <=
            op = "<="
    else:
        b = int(value)
    # clamp into the int64 key domain
    if op == "=":
        if b < _IMIN or b > _IMAX:
            return False
        bounds.add_eq(b)
    elif op == ">":
        if b >= _IMAX:
            return False
        if b >= _IMIN:
            bounds.add_lo(b, False)
        else:
            bounds.constrained = True
    elif op == ">=":
        if b > _IMAX:
            return False
        if b > _IMIN:
            bounds.add_lo(b, True)
        else:
            bounds.constrained = True
    elif op == "<":
        if b <= _IMIN:
            return False
        if b <= _IMAX:
            bounds.add_hi(b, False)
        else:
            bounds.constrained = True
    else:  # <=
        if b < _IMIN:
            return False
        if b < _IMAX:
            bounds.add_hi(b, True)
        else:
            bounds.constrained = True
    return True


class _TableScope:
    """The single FROM table of a bound query."""

    def __init__(self, db: Database, query) -> None:
        self.db = db
        self.name = query.table
        self.table: Table = db.table(query.table)
        self.alias = query.alias or query.table
        self._cols = set(self.table.columns)

    def resolve(self, ref: str) -> str:
        """Bare table column behind a bound (``alias.column``) reference."""
        prefix = self.alias + "."
        if ref.startswith(prefix) and ref[len(prefix):] in self._cols:
            return ref[len(prefix):]
        raise ValueError(
            f"plan_scan takes a bound query, and {ref!r} is not a "
            f"'{prefix}<column>' reference: pass repro.db.bind(db, "
            "query).query")

    def gather(self, rids: np.ndarray,
               bare_cols: list[str]) -> dict[str, np.ndarray]:
        """Column dict (qualified names) for the rows at ``rids``.

        Loaded tables gather from their in-memory arrays; lazy tables go
        through :meth:`TableStorage.gather`, a fancy index into the mapped
        columns — this is what lets a reopened session answer an indexed
        query without materializing the table.
        """
        if self.table.is_loaded:
            arrays = {c: self.table.column(c)[rids] for c in bare_cols}
        else:
            arrays = self.db.storage.gather(self.name, rids, bare_cols)
        return {f"{self.alias}.{col}": arr for col, arr in arrays.items()}


def _collect_bounds(scope: _TableScope, conjuncts: list[Expr],
                    col: str, info: dict):
    """Split conjuncts into bounds on ``col`` + residual predicates.

    Returns ``(bounds, residual)`` — ``bounds`` is ``_EMPTY`` when some
    conjunct proves the result empty, else a :class:`_Bounds`.
    """
    bounds = _Bounds()
    residual: list[Expr] = []
    for conj in conjuncts:
        sarg = _as_sarg(conj)
        target = scope.resolve(sarg[0]) if sarg else None
        if target != col:
            residual.append(conj)
            continue
        _, op, value = sarg
        if info["eq_only"]:
            # dictionary codes carry no range order: only `=` on a string
            if op != "=" or not isinstance(value, str):
                residual.append(conj)
                continue
            code = scope.db.storage.encoder(scope.name, col).code_for(value)
            if code is None:
                return _EMPTY, residual
            bounds.add_eq(int(code))
        elif isinstance(value, str):
            residual.append(conj)  # str vs numeric column: not sargable
        elif info["dtype"] == "<f8":
            if not _apply_float_sarg(bounds, op, value):
                return _EMPTY, residual
        else:
            if not _apply_int_sarg(bounds, op, value):
                return _EMPTY, residual
        if bounds.empty:
            return _EMPTY, residual
    return bounds, residual


def predicate_mask(pred: Expr, cols: dict[str, np.ndarray],
                   n: int) -> np.ndarray:
    """One predicate over ``n`` rows as a boolean mask (a scalar result
    broadcasts)."""
    mask = np.asarray(pred.eval_batch(cols))
    if mask.ndim == 0:
        mask = np.full(n, bool(mask))
    return mask.astype(bool)


def plan_scan(db: Database, query):
    """Try to answer scan+WHERE (and ORDER BY+LIMIT) from an index.

    ``query`` is bound (every reference reads ``alias.column``: pass
    ``repro.db.bind(db, query).query``; an unbound one is a ``ValueError``,
    not a declined plan).  Returns ``(cols, n, ordered)`` — a
    column dict covering every name the query references, the surviving
    row count, and whether the rows already sit in final ORDER BY+LIMIT
    order — or None to fall back to the vectorized full scan.  Increments
    ``db.index_scans`` (never ``db.full_scans``) when a plan is taken.
    """
    if db.storage is None or not db.use_indexes or query.joins:
        return None
    if not db.table_clean(query.table):
        return None
    scope = _TableScope(db, query)

    # the table columns to gather (HAVING reads the projected rows)
    conjuncts = flatten_and(query.where) if query.where is not None else []
    exprs = [item.expr for item in query.items] + query.group_by + conjuncts
    bare_needed = sorted({scope.resolve(ref)
                          for expr in exprs for ref in expr.columns()})

    plan = _plan_topk(db, query, scope, conjuncts, bare_needed)
    if plan is not None:
        return plan
    return _plan_range(db, query, scope, conjuncts, bare_needed)


def _order_column(query, scope: _TableScope) -> str | None:
    """The table column behind ``ORDER BY alias``, when it is a plain ref."""
    for item in query.items:  # output names are distinct (bind)
        if item.alias == query.order_by and isinstance(item.expr, Column):
            return scope.resolve(item.expr.name)
    return None


def _plan_topk(db: Database, query, scope: _TableScope,
               conjuncts: list[Expr], bare_needed: list[str]):
    """ORDER BY col LIMIT k streamed straight out of the index."""
    if query.limit is None or query.order_by is None:
        return None
    if query.group_by or query.having is not None or \
            any(isinstance(it.expr, AggregateRef) for it in query.items):
        return None
    col = _order_column(query, scope)
    if col is None:
        return None
    indexed = db.index_for(query.table, col)
    if indexed is None or indexed[1]["eq_only"]:
        return None
    index, info = indexed

    bounds, residual_list = _collect_bounds(scope, conjuncts, col, info)
    residual = _and_together(residual_list)
    residual_cols = [] if residual is None else sorted(
        {scope.resolve(ref) for ref in residual.columns()})

    want = max(int(query.limit), 0)
    parts: list[np.ndarray] = []
    got = 0
    if bounds is not _EMPTY and want > 0:
        for batch in index.scan(bounds.lo, bounds.hi, bounds.lo_incl,
                                bounds.hi_incl, descending=query.descending):
            if residual is not None:
                rcols = scope.gather(batch, residual_cols)
                mask = predicate_mask(residual, rcols, batch.shape[0])
                batch = batch[mask]
            if batch.size:
                parts.append(batch)
                got += int(batch.size)
            if got >= want:
                break
    rids = np.concatenate(parts)[:want] if parts \
        else np.empty(0, dtype=np.int64)
    db.index_scans += 1
    return scope.gather(rids, bare_needed), int(rids.shape[0]), True


def _plan_range(db: Database, query, scope: _TableScope,
                conjuncts: list[Expr], bare_needed: list[str]):
    """Sargable WHERE conjuncts answered by one index range scan."""
    if not conjuncts:
        return None
    best = None  # (has_eq, col, index, info)
    for conj in conjuncts:
        sarg = _as_sarg(conj)
        if sarg is None:
            continue
        col = scope.resolve(sarg[0])
        indexed = db.index_for(query.table, col)
        if indexed is None:
            continue
        if indexed[1]["eq_only"] and \
                not (sarg[1] == "=" and isinstance(sarg[2], str)):
            continue
        has_eq = sarg[1] == "="
        if best is None or (has_eq and not best[0]):
            best = (has_eq, col, *indexed)
    if best is None:
        return None
    _, col, index, info = best

    bounds, residual_list = _collect_bounds(scope, conjuncts, col, info)
    if bounds is not _EMPTY and not bounds.constrained:
        return None  # nothing actually narrowed: full scan is better
    if bounds is _EMPTY:
        rids = np.empty(0, dtype=np.int64)
    else:
        parts = list(index.scan(bounds.lo, bounds.hi,
                                bounds.lo_incl, bounds.hi_incl))
        rids = np.concatenate(parts) if parts else np.empty(0, np.int64)
        # downstream operators expect rows in original order, which is
        # ascending rid order
        rids = np.sort(rids, kind="stable")
        if scope.table.is_loaded and rids.shape[0] * 2 > len(scope.table):
            return None  # unselective over a loaded table: scan it

    residual = _and_together(residual_list)
    cols = scope.gather(rids, bare_needed)   # WHERE's columns included
    n = int(rids.shape[0])
    if residual is not None:
        mask = predicate_mask(residual, cols, n)
        cols = {name: arr[mask] for name, arr in cols.items()}
        n = int(mask.sum())
    db.index_scans += 1
    return cols, n, False


__all__ = ["flatten_and", "plan_scan", "predicate_mask"]
