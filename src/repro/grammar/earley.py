"""Earley chart parser (NLTK chart-parser substitute).

Operates directly over characters: a terminal symbol is matched by comparing
its surface string against the input at the current position (so terminals
may span several characters).  Supports epsilon productions via standard
nullable-prediction handling.  Returns the first complete parse found; our
benchmark grammars are engineered to be unambiguous, and ties are broken by
production order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grammar.cfg import Grammar, Production
from repro.grammar.tree import ParseNode


class ParseError(ValueError):
    """The input string is not in the grammar's language."""


@dataclass(frozen=True)
class _Item:
    """An Earley item: dotted production with origin chart position."""

    prod: Production
    dot: int
    origin: int

    @property
    def complete(self) -> bool:
        return self.dot >= len(self.prod.rhs)

    @property
    def next_symbol(self) -> str | None:
        if self.complete:
            return None
        return self.prod.rhs[self.dot]


class EarleyParser:
    """Chart parser producing one :class:`ParseNode` per input string."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self._nullable = grammar.nullable_symbols()

    def parse(self, text: str) -> ParseNode:
        """Parse ``text`` and return its derivation tree.

        Raises :class:`ParseError` if the string is not derivable.
        """
        n = len(text)
        # chart[i]: dict item -> children tuple (first derivation wins)
        chart: list[dict[_Item, tuple[ParseNode, ...]]] = [
            {} for _ in range(n + 1)]

        def add(pos: int, item: _Item, children: tuple[ParseNode, ...],
                agenda: list[_Item]) -> None:
            if item not in chart[pos]:
                chart[pos][item] = children
                agenda.append(item)

        # seed with start productions
        agenda: list[_Item] = []
        for prod in self.grammar.productions_for(self.grammar.start):
            add(0, _Item(prod, 0, 0), (), agenda)

        for pos in range(n + 1):
            if pos > 0:
                agenda = list(chart[pos])
            while agenda:
                item = agenda.pop()
                children = chart[pos][item]
                if item.complete:
                    self._complete(chart, pos, item, agenda)
                    continue
                sym = item.next_symbol
                assert sym is not None
                if self.grammar.is_nonterminal(sym):
                    self._predict(chart, pos, sym, agenda)
                    if sym in self._nullable:
                        # nullable fix: advance over sym with an empty node
                        empty = ParseNode(sym, start=pos, end=pos)
                        nxt = _Item(item.prod, item.dot + 1, item.origin)
                        add(pos, nxt, children + (empty,), agenda)
                else:
                    self._scan(chart, pos, item, children, text)

        for item, children in chart[n].items():
            if (item.complete and item.origin == 0
                    and item.prod.lhs == self.grammar.start):
                return self._make_node(item, children, 0, n)
        raise ParseError(f"no parse for input of length {n}: {text[:40]!r}...")

    # ------------------------------------------------------------------
    def _predict(self, chart, pos: int, sym: str, agenda: list[_Item]) -> None:
        for prod in self.grammar.productions_for(sym):
            item = _Item(prod, 0, pos)
            if item not in chart[pos]:
                chart[pos][item] = ()
                agenda.append(item)

    def _scan(self, chart, pos: int, item: _Item,
              children: tuple[ParseNode, ...], text: str) -> None:
        term = item.next_symbol
        assert term is not None
        end = pos + len(term)
        if text.startswith(term, pos) and end <= len(text):
            leaf = ParseNode(term, start=pos, end=end, terminal=True)
            nxt = _Item(item.prod, item.dot + 1, item.origin)
            if nxt not in chart[end]:
                chart[end][nxt] = children + (leaf,)

    def _complete(self, chart, pos: int, item: _Item,
                  agenda: list[_Item]) -> None:
        node = self._make_node(item, chart[pos][item], item.origin, pos)
        for waiting, wchildren in list(chart[item.origin].items()):
            if waiting.next_symbol == item.prod.lhs:
                nxt = _Item(waiting.prod, waiting.dot + 1, waiting.origin)
                if nxt not in chart[pos]:
                    chart[pos][nxt] = wchildren + (node,)
                    agenda.append(nxt)

    @staticmethod
    def _make_node(item: _Item, children: tuple[ParseNode, ...],
                   start: int, end: int) -> ParseNode:
        return ParseNode(item.prod.lhs, start=start, end=end,
                         children=list(children))
