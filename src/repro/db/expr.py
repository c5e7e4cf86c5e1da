"""Row and batch expressions for the mini engine.

Expressions evaluate in two modes:

* :meth:`Expr.eval` -- against an environment mapping qualified and
  unqualified column names to scalar values (the row engine).
* :meth:`Expr.eval_batch` -- against a mapping of column names to numpy
  column arrays; every operator broadcasts, so a predicate evaluates to a
  boolean mask and an arithmetic expression to a value column (the columnar
  engine).

The node set covers what the DNI baseline and the INSPECT integration need:
column refs, literals, comparison/boolean/arithmetic operators and
function-style aggregate references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class AmbiguousColumnError(ValueError):
    """An unqualified column reference matches more than one relation.

    Raised during name resolution (every statement, SELECT or INSPECT,
    resolves each column to its owning relation before execution) instead
    of silently binding the reference to whichever FROM table happens to
    come first.
    """


class Expr:
    """Base expression node."""

    def eval(self, env: dict[str, Any]) -> Any:
        raise NotImplementedError

    def eval_batch(self, cols: dict[str, np.ndarray]) -> Any:
        """Vectorized evaluation over column arrays (broadcasts scalars)."""
        raise NotImplementedError

    def children(self) -> list["Expr"]:
        """Direct sub-expressions."""
        return []

    def columns(self) -> set[str]:
        """Referenced column names (for projection pruning / validation)."""
        out: set[str] = set()
        for child in self.children():
            out |= child.columns()
        return out


@dataclass
class Column(Expr):
    name: str

    def eval(self, env: dict[str, Any]) -> Any:
        if self.name in env:
            return env[self.name]
        raise KeyError(f"unbound column {self.name!r}")

    def eval_batch(self, cols: dict[str, np.ndarray]) -> np.ndarray:
        if self.name in cols:
            return cols[self.name]
        raise KeyError(f"unbound column {self.name!r}")

    def columns(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass
class Literal(Expr):
    value: Any

    def eval(self, env: dict[str, Any]) -> Any:
        return self.value

    def eval_batch(self, cols: dict[str, np.ndarray]) -> Any:
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass
class Compare(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"unknown comparator {self.op!r}")

    def eval(self, env: dict[str, Any]) -> bool:
        return _COMPARATORS[self.op](self.left.eval(env), self.right.eval(env))

    def eval_batch(self, cols: dict[str, np.ndarray]) -> Any:
        return _COMPARATORS[self.op](self.left.eval_batch(cols),
                                     self.right.eval_batch(cols))

    def children(self) -> list[Expr]:
        return [self.left, self.right]

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class Arith(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ValueError(f"unknown operator {self.op!r}")

    def eval(self, env: dict[str, Any]) -> Any:
        return _ARITHMETIC[self.op](self.left.eval(env), self.right.eval(env))

    def eval_batch(self, cols: dict[str, np.ndarray]) -> Any:
        return _ARITHMETIC[self.op](self.left.eval_batch(cols),
                                    self.right.eval_batch(cols))

    def children(self) -> list[Expr]:
        return [self.left, self.right]


@dataclass
class BoolOp(Expr):
    op: str  # "and" | "or" | "not"
    operands: list[Expr]

    def eval(self, env: dict[str, Any]) -> bool:
        if self.op == "and":
            return all(o.eval(env) for o in self.operands)
        if self.op == "or":
            return any(o.eval(env) for o in self.operands)
        if self.op == "not":
            return not self.operands[0].eval(env)
        raise ValueError(f"unknown boolean op {self.op!r}")

    def eval_batch(self, cols: dict[str, np.ndarray]) -> Any:
        batches = [o.eval_batch(cols) for o in self.operands]
        if self.op == "and":
            out = batches[0]
            for b in batches[1:]:
                out = np.logical_and(out, b)
            return out
        if self.op == "or":
            out = batches[0]
            for b in batches[1:]:
                out = np.logical_or(out, b)
            return out
        if self.op == "not":
            return np.logical_not(batches[0])
        raise ValueError(f"unknown boolean op {self.op!r}")

    def children(self) -> list[Expr]:
        return self.operands


@dataclass
class AggregateRef(Expr):
    """A call like ``corr(U.val, H.val)`` in a target list.

    Evaluated by the group-by executor, not row-wise; ``eval`` raises to
    catch misuse.
    """

    func: str
    args: list[Expr]

    def eval(self, env: dict[str, Any]) -> Any:
        raise RuntimeError("aggregates are evaluated by the group-by executor")

    def eval_batch(self, cols: dict[str, np.ndarray]) -> Any:
        raise RuntimeError("aggregates are evaluated by the group-by executor")

    def children(self) -> list[Expr]:
        return self.args

    def __str__(self) -> str:
        return f"{self.func}({', '.join(map(str, self.args))})"


# ----------------------------------------------------------------------
# bind: name resolution, the first stage of every statement
# ----------------------------------------------------------------------
class Schema:
    """Column namespace over a FROM list (alias -> column names)."""

    def __init__(self) -> None:
        self.aliases: list[str] = []
        self.qualified: set[str] = set()
        self.owners: dict[str, list[str]] = {}  # unqualified name -> aliases

    def add(self, alias: str, columns: list[str]) -> None:
        if alias in self.aliases:
            raise ValueError(f"duplicate table alias {alias!r} in FROM")
        self.aliases.append(alias)
        for col in columns:
            self.qualified.add(f"{alias}.{col}")
            self.owners.setdefault(col, []).append(alias)

    def resolve(self, name: str) -> str:
        """Qualified form of a reference; ambiguity is an error."""
        if "." in name:
            if name not in self.qualified:
                raise KeyError(f"unbound column {name!r}")
            return name
        owners = self.owners.get(name)
        if not owners:
            raise KeyError(f"unbound column {name!r}")
        if len(owners) > 1:
            raise AmbiguousColumnError(
                f"column reference {name!r} is ambiguous: it appears in "
                f"{sorted(owners)}; qualify it, e.g. {owners[0]}.{name}")
        return f"{owners[0]}.{name}"


def resolve_expr(expr: Expr, schema: Schema) -> Expr:
    """Rewrite an expression so every column reference is qualified."""
    if isinstance(expr, Column):
        return Column(schema.resolve(expr.name))
    if isinstance(expr, Compare):
        return Compare(expr.op, resolve_expr(expr.left, schema),
                       resolve_expr(expr.right, schema))
    if isinstance(expr, Arith):
        return Arith(expr.op, resolve_expr(expr.left, schema),
                     resolve_expr(expr.right, schema))
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, [resolve_expr(o, schema)
                                for o in expr.operands])
    if isinstance(expr, AggregateRef):
        return AggregateRef(expr.func, [resolve_expr(a, schema)
                                        for a in expr.args])
    return expr
