"""Parse trees with character spans.

Hypothesis functions are generated from parse trees (Section 4.2): each node
type maps to a *time-domain* hypothesis (1 for every character the node
spans), a *signal* hypothesis (1 at the first and last character), or a
*composite* hypothesis (nesting depth).  Character spans are therefore the
primary payload of a tree node.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field


@dataclass
class ParseNode:
    """A node in a parse tree.

    ``symbol`` is the grammar symbol (nonterminal for internal nodes, the
    terminal string for leaves).  ``start``/``end`` delimit the half-open
    character span ``[start, end)`` of the node in the parsed string.
    """

    symbol: str
    start: int
    end: int
    children: list["ParseNode"] = field(default_factory=list)
    #: True only for terminal leaves; an epsilon-derived nonterminal node has
    #: no children but is *not* terminal and contributes no surface text.
    terminal: bool = False

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def __len__(self) -> int:
        return self.end - self.start

    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator["ParseNode"]:
        """Pre-order traversal over all nodes, including leaves."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def leaves(self) -> list["ParseNode"]:
        """Terminal leaves, in surface order."""
        return [n for n in self.iter_nodes() if n.terminal]

    def text(self) -> str:
        """Reassemble the surface string from leaf terminals."""
        return "".join(leaf.symbol for leaf in self.leaves())

    def node_types(self) -> set[str]:
        """Distinct nonterminal symbols occurring in the tree."""
        return {n.symbol for n in self.iter_nodes() if not n.terminal}

    def spans_of(self, symbol: str) -> list[tuple[int, int]]:
        """Character spans of every node labeled ``symbol``."""
        return [n.span for n in self.iter_nodes()
                if n.symbol == symbol and not n.terminal]

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.is_leaf:
            return f"{pad}{self.symbol!r} [{self.start}:{self.end}]"
        lines = [f"{pad}{self.symbol} [{self.start}:{self.end}]"]
        lines.extend(child.pretty(indent + 1) for child in self.children)
        return "\n".join(lines)
