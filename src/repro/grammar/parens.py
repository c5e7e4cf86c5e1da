"""Nested-parentheses PCFG from the accuracy benchmark (Appendix C).

The dataset consists of strings such as ``0(1(2((44))))`` where a digit
representing the current nesting level may precede each balanced parenthesis
(up to 4 levels).  The grammar is::

    r_i -> i r_i | ( r_{i+1} )      for i < 4
    r_4 -> epsilon | 4 r_4
"""

from __future__ import annotations

from repro.grammar.cfg import Grammar, Production

MAX_LEVEL = 4


def parens_grammar(digit_weight: float = 0.45,
                   stop_weight: float = 1.0) -> Grammar:
    """Build the Appendix C grammar.

    ``digit_weight`` controls how often a level emits its digit before
    recursing (larger values produce longer strings).
    """
    rules: list[Production] = []
    for level in range(MAX_LEVEL):
        rules.append(Production(f"r{level}", (str(level), f"r{level}"),
                                digit_weight))
        rules.append(Production(f"r{level}", ("(", f"r{level + 1}", ")"), 1.0))
    rules.append(Production(f"r{MAX_LEVEL}", (), stop_weight))
    rules.append(Production(f"r{MAX_LEVEL}",
                            (str(MAX_LEVEL), f"r{MAX_LEVEL}"), digit_weight))
    grammar = Grammar(start="r0", productions=rules)
    grammar.validate()
    return grammar

