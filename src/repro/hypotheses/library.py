"""Built-in hypothesis library: keyword, character-class and counter logic.

These cover the paper's running examples: "detects the SELECT keyword"
(emit 1 for keyword characters, 0 otherwise), "counts the characters in the
input" (emit a number between 0 and ns), whitespace/punctuation detectors,
and the parentheses nesting-level hypotheses of Appendix C.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import PAD_CHAR, Vocab
from repro.hypotheses.base import HypothesisFunction, symbol_kernel


class KeywordHypothesis(HypothesisFunction):
    """Emits 1 for every character inside an occurrence of ``keyword``."""

    def __init__(self, keyword: str, name: str | None = None):
        super().__init__(name or f"kw:{keyword.strip()}")
        if not keyword:
            raise ValueError("keyword must be non-empty")
        self.keyword = keyword

    @symbol_kernel
    def extract(self, symbols: np.ndarray, vocab: Vocab) -> np.ndarray:
        inside = np.zeros(symbols.shape, dtype=bool)
        k = len(self.keyword)
        n_starts = symbols.shape[1] - k + 1
        if n_starts > 0 and all(c in vocab for c in self.keyword):
            # starts[r, j]: the keyword occurs at j (overlaps included)
            starts = np.ones((symbols.shape[0], n_starts), dtype=bool)
            for i, symbol in enumerate(vocab.encode(self.keyword)):
                starts &= symbols[:, i:i + n_starts] == symbol
            for i in range(k):
                inside[:, i:i + n_starts] |= starts
        return inside.astype(np.float64)


class CharSetHypothesis(HypothesisFunction):
    """Emits 1 for characters belonging to a set (whitespace, digits, ...)."""

    def __init__(self, name: str, chars: str):
        super().__init__(name)
        self.chars = frozenset(chars)

    @symbol_kernel
    def extract(self, symbols: np.ndarray, vocab: Vocab) -> np.ndarray:
        return vocab.member_mask(self.chars)[symbols].astype(np.float64)


class PositionCounterHypothesis(HypothesisFunction):
    """Emits the 0-based position of each symbol ("the model counts")."""

    def __init__(self, name: str = "position"):
        super().__init__(name)

    @symbol_kernel
    def extract(self, symbols: np.ndarray, vocab: Vocab) -> np.ndarray:
        return np.tile(np.arange(symbols.shape[1], dtype=np.float64),
                       (symbols.shape[0], 1))


class PrefixLengthHypothesis(HypothesisFunction):
    """Emits the number of non-padding characters read so far."""

    def __init__(self, name: str = "prefix_length"):
        super().__init__(name)

    @symbol_kernel
    def extract(self, symbols: np.ndarray, vocab: Vocab) -> np.ndarray:
        padding = vocab.member_mask(PAD_CHAR)[symbols]
        return np.cumsum(~padding, axis=1, dtype=np.float64)


class NestingDepthHypothesis(HypothesisFunction):
    """Per-character parenthesis nesting level (Appendix C ground truth).

    ``level=None`` emits the raw depth; an integer emits the indicator of
    "currently at that nesting level".
    """

    def __init__(self, level: int | None = None, name: str | None = None):
        label = "nesting_depth" if level is None else f"nesting_level_{level}"
        super().__init__(name or label)
        self.level = level

    @symbol_kernel
    def extract(self, symbols: np.ndarray, vocab: Vocab) -> np.ndarray:
        opens = vocab.member_mask("(")[symbols].astype(np.int64)
        closes = vocab.member_mask(")")[symbols].astype(np.int64)
        # an opening bracket still sits at the outer level, a closing one
        # is already back on it
        depth = np.cumsum(opens - closes, axis=1) - opens
        if self.level is not None:
            depth = depth == self.level
        return depth.astype(np.float64)


class CurrentCharHypothesis(HypothesisFunction):
    """Indicator that the current input character equals ``char``.

    Appendix C uses this to show that "specialized" units may simply learn
    the current symbol rather than higher-level logic.
    """

    def __init__(self, char: str, name: str | None = None):
        super().__init__(name or f"char:{char}")
        if len(char) != 1:
            raise ValueError("char must be a single character")
        self.char = char

    @symbol_kernel
    def extract(self, symbols: np.ndarray, vocab: Vocab) -> np.ndarray:
        return vocab.member_mask(self.char)[symbols].astype(np.float64)


def sql_keyword_hypotheses(keywords: tuple[str, ...] | None = None
                           ) -> list[KeywordHypothesis]:
    """Keyword detectors for the standard SQL keywords."""
    from repro.grammar.sql import SQL_KEYWORDS
    return [KeywordHypothesis(kw) for kw in (keywords or SQL_KEYWORDS)]
