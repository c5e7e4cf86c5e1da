"""SQL parser for the mini engine, including the INSPECT clause (Appendix B).

Grammar subset::

    query      := SELECT items [INTO name] [inspect] FROM tables
                  [WHERE pred] [GROUP BY exprs] [HAVING pred]
                  [ORDER BY col [ASC | DESC]] [LIMIT n]
    inspect    := INSPECT colref AND colref [USING name (, name)*]
                  OVER colref AS alias
    items      := expr [AS alias] (, expr [AS alias])*
    tables     := name [alias] (, name [alias])*
    pred       := conj (OR conj)* ; conj := atom (AND atom)*
    atom       := expr cmp expr | ( pred ) | NOT atom

Plain queries parse to :class:`repro.db.executor.SelectQuery`; queries with
an INSPECT clause parse to :class:`InspectSpec` consumed by
:mod:`repro.db.inspect_clause`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.db.executor import JoinSpec, SelectItem, SelectQuery
from repro.db.expr import (AggregateRef, BoolOp, Column, Compare, Expr,
                           Literal)

_TOKEN_RE = re.compile(r"""
      (?P<string>'(?:[^'])*')
    | (?P<number>\d+\.\d+|\d+)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)
    | (?P<op><>|<=|>=|!=|=|<|>|\(|\)|,|\*)
    | (?P<ws>\s+)
""", re.VERBOSE)

_KEYWORDS = {"select", "inspect", "and", "or", "not", "using", "over", "as",
             "from", "where", "group", "by", "having", "order", "limit",
             "desc", "asc", "into"}


@dataclass
class Token:
    kind: str  # keyword | name | number | string | op
    value: str


class SqlSyntaxError(ValueError):
    """Raised on malformed SQL input."""


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if not match:
            raise SqlSyntaxError(f"cannot tokenize at: {sql[pos:pos + 20]!r}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        value = match.group()
        kind = match.lastgroup or "op"
        if kind == "name" and value.lower() in _KEYWORDS:
            tokens.append(Token("keyword", value.lower()))
        else:
            tokens.append(Token(kind, value))
    return tokens


@dataclass
class InspectSpec:
    """Parsed form of a query containing an INSPECT clause."""

    select_items: list[SelectItem]
    unit_ref: str
    hyp_ref: str
    measures: list[str]
    dataset_ref: str
    inspect_alias: str
    tables: list[tuple[str, str]]            # (table, alias)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: str | None = None              # an output-column alias
    descending: bool = False
    limit: int | None = None
    into: str | None = None                  # persist the result (INTO t)
    #: (validity token, compilation) of the last run (``Session.compiled``)
    compiled: tuple | None = field(default=None, repr=False, compare=False)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise SqlSyntaxError("unexpected end of input")
        self.pos += 1
        return tok

    def accept_keyword(self, *words: str) -> bool:
        tok = self.peek()
        if tok and tok.kind == "keyword" and tok.value in words:
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            found = self.peek()
            raise SqlSyntaxError(f"expected {word.upper()}, found "
                                 f"{found.value if found else 'EOF'!r}")

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            raise SqlSyntaxError(f"expected {op!r}, found {tok.value!r}")

    def expect_name(self) -> str:
        tok = self.next()
        if tok.kind != "name":
            raise SqlSyntaxError(f"expected identifier, found {tok.value!r}")
        return tok.value

    # ------------------------------------------------------------------
    def parse_query(self) -> SelectQuery | InspectSpec:
        self.expect_keyword("select")
        items = self._select_items()

        into = None
        if self.accept_keyword("into"):
            into = self.expect_name()

        inspect_part = None
        if self.accept_keyword("inspect"):
            inspect_part = self._inspect_clause()

        self.expect_keyword("from")
        tables = self._tables()
        where = group_by = having = None
        order_by, descending, limit = None, False, None
        if self.accept_keyword("where"):
            where = self._predicate()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = self._expr_list()
        if self.accept_keyword("having"):
            having = self._predicate()
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = self.expect_name()
            if self.accept_keyword("desc"):
                descending = True
            else:
                self.accept_keyword("asc")
        if self.accept_keyword("limit"):
            tok = self.next()
            if tok.kind != "number":
                raise SqlSyntaxError("LIMIT expects a number")
            if not float(tok.value).is_integer():
                raise SqlSyntaxError(
                    f"LIMIT expects an integer, got {tok.value}")
            limit = int(float(tok.value))
        if self.peek() is not None:
            raise SqlSyntaxError(f"trailing tokens at {self.peek().value!r}")

        if inspect_part is not None:
            unit_ref, hyp_ref, measures, dataset_ref, alias = inspect_part
            return InspectSpec(
                select_items=items, unit_ref=unit_ref, hyp_ref=hyp_ref,
                measures=measures, dataset_ref=dataset_ref,
                inspect_alias=alias, tables=tables, where=where,
                group_by=group_by or [], having=having,
                order_by=order_by, descending=descending, limit=limit,
                into=into)

        # plain SELECT: the first FROM entry plus comma joins
        (base_table, base_alias), *rest = tables
        return SelectQuery(items=items, table=base_table, alias=base_alias,
                           joins=[JoinSpec(name, alias)
                                  for name, alias in rest],
                           where=where, group_by=group_by or [],
                           having=having, order_by=order_by,
                           descending=descending, limit=limit, into=into)

    # ------------------------------------------------------------------
    def _select_items(self) -> list[SelectItem]:
        items = [self._select_item()]
        while self._accept_op(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        expr = self._expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_name()
        if alias is None:
            alias = str(expr) if not isinstance(expr, Column) else expr.name
        return SelectItem(expr=expr, alias=alias)

    def _inspect_clause(self):
        unit_ref = self.expect_name()
        self.expect_keyword("and")
        hyp_ref = self.expect_name()
        measures = ["corr"]  # the paper's default measure
        if self.accept_keyword("using"):
            measures = [self.expect_name()]
            while self._accept_op(","):
                measures.append(self.expect_name())
        self.expect_keyword("over")
        dataset_ref = self.expect_name()
        self.expect_keyword("as")
        alias = self.expect_name()
        return unit_ref, hyp_ref, measures, dataset_ref, alias

    def _tables(self) -> list[tuple[str, str]]:
        tables = [self._table_ref()]
        while self._accept_op(","):
            tables.append(self._table_ref())
        return tables

    def _table_ref(self) -> tuple[str, str]:
        name = self.expect_name()
        alias = name
        tok = self.peek()
        if tok and tok.kind == "name":
            alias = self.next().value
        return name, alias

    # ------------------------------------------------------------------
    def _predicate(self) -> Expr:
        left = self._conjunction()
        operands = [left]
        while self.accept_keyword("or"):
            operands.append(self._conjunction())
        return operands[0] if len(operands) == 1 else BoolOp("or", operands)

    def _conjunction(self) -> Expr:
        operands = [self._atom()]
        while self.accept_keyword("and"):
            operands.append(self._atom())
        return operands[0] if len(operands) == 1 else BoolOp("and", operands)

    def _atom(self) -> Expr:
        if self.accept_keyword("not"):
            return BoolOp("not", [self._atom()])
        if self._accept_op("("):
            inner = self._predicate()
            self.expect_op(")")
            return inner
        left = self._expr()
        tok = self.next()
        if tok.kind != "op" or tok.value not in ("=", "<>", "!=", "<", "<=",
                                                 ">", ">="):
            raise SqlSyntaxError(f"expected comparator, found {tok.value!r}")
        right = self._expr()
        return Compare(tok.value, left, right)

    def _expr_list(self) -> list[Expr]:
        exprs = [self._expr()]
        while self._accept_op(","):
            exprs.append(self._expr())
        return exprs

    def _expr(self) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            value = float(tok.value)
            return Literal(int(value) if value.is_integer() else value)
        if tok.kind == "string":
            return Literal(tok.value[1:-1])
        if tok.kind == "name":
            nxt = self.peek()
            if nxt and nxt.kind == "op" and nxt.value == "(":
                self.next()
                args = []
                if not (self.peek() and self.peek().value == ")"):
                    args = self._expr_list()
                self.expect_op(")")
                return AggregateRef(tok.value.lower(), args)
            return Column(tok.value)
        raise SqlSyntaxError(f"unexpected token {tok.value!r} in expression")

    def _accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok and tok.kind == "op" and tok.value == op:
            self.pos += 1
            return True
        return False


def parse_sql(sql: str) -> SelectQuery | InspectSpec:
    """Parse one SQL statement (optionally containing an INSPECT clause)."""
    return _Parser(tokenize(sql)).parse_query()
