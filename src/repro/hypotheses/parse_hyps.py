"""Hypothesis functions generated from parse trees (Section 4.2, Figure 3).

For every nonterminal node type the grammar defines, two encodings are
produced (matching the benchmark setup in Section 6.2):

* **time-domain** ``time:<rule>`` -- emits 1 for every character consumed by
  the rule or one of its descendants;
* **signal** ``signal:<rule>`` -- emits 1 only at the first and last
  character of each span;

plus optionally the **composite** ``depth:<rule>`` encoding that counts rule
nesting depth (``h1`` in Figure 3).

Parsing *and span extraction* are shared: a :class:`ParseProvider` parses
each source string at most once per inspection run, and walks each tree
once, iteratively, to build that source's **span index**: three flat
integer arrays — rule code, start, end — of its clipped, non-empty
nonterminal spans.  Every (rule, encoding) hypothesis derived from the
provider reads the index instead of re-walking the tree.  When the workload
retains derivation trees from sampling, the provider reuses them instead of
parsing (``mode="derivation"``), which is the cached-hypothesis setting of
Figure 9.

The hypotheses cut from one provider are a **family**
(:func:`repro.hypotheses.base.extract_columns`): the provider labels all of
them over a block of windowed records in one pass
(:meth:`ParseProvider.extract_block`).  The touched sources' indexes are
concatenated, one lookup array maps rule codes to label-table columns, a
difference table and a ``cumsum`` render the labels, and one gather over
the dataset's ``(source_id, offset)`` columns answers every member; a
single hypothesis is the one-member call.  Past the walk, labelling a block
is array work, which lets sweeps on a pool's threads run beside it (a
Python loop here would hold the GIL they need between steps).  The table
lives for that call; only the span index and its rule codes are kept:
private, filled lazily under a lock, left out of pickles and rebuilt on
demand.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.data.datasets import Dataset
from repro.grammar.cfg import Grammar
from repro.grammar.earley import EarleyParser
from repro.grammar.tree import ParseNode
from repro.hypotheses.base import (HypothesisFunction, block_indices,
                                   extract_columns)
from repro.util.identity import attr_identity

#: start symbols span the whole string and would yield always-on hypotheses
_SKIP_NODE_TYPES = {"query", "r0"}

ENCODINGS = ("time", "signal", "depth")


class ParseProvider:
    """Parses source strings on demand; caches trees and their span index.

    ``mode="reparse"`` runs the Earley parser (the realistic, slow path that
    dominates hypothesis-extraction cost in the paper);
    ``mode="derivation"`` reuses the trees recorded at sampling time.
    ``parse_count`` tracks actual parser invocations, which the caching
    benchmarks assert on.
    """

    def __init__(self, grammar: Grammar, sources: list[str],
                 trees: list[ParseNode] | None = None,
                 mode: str = "reparse"):
        if mode not in ("reparse", "derivation"):
            raise ValueError(f"unknown parse mode {mode!r}")
        if mode == "derivation" and trees is None:
            raise ValueError("derivation mode requires sampled trees")
        self.grammar = grammar
        self.sources = sources
        self.mode = mode
        self._trees = trees
        self._parser = EarleyParser(grammar)
        self._cache: dict[int, ParseNode] = {}
        self.parse_count = 0
        self._init_derived()

    def _init_derived(self) -> None:
        # the span index: source id -> (3, k) rows of rule code, start, end
        self._index: dict[int, np.ndarray] = {}
        self._codes: dict[str, int] = {}    # rule -> its code in the index
        self._cache_key_memo: str | None = None
        # one parse and one tree walk per source, whichever thread asks
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        for derived in ("_index", "_codes", "_cache_key_memo", "_lock"):
            del state[derived]
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._init_derived()

    def cache_key(self) -> str:
        """Content identity, rendered once for every hypothesis sharing
        this provider.

        Byte-for-byte what :func:`repro.util.identity.attr_identity`'s
        attribute walk rendered for a never-used provider nested in a
        hypothesis (so stores written before the memo keep serving), with
        ``parse_count`` pinned at its initial 0: a counter is not content.
        Depth 2 is what that walk has left one level below the hypothesis.
        """
        key = self._cache_key_memo
        if key is None:
            content = {"grammar": self.grammar, "mode": self.mode,
                       "parse_count": 0, "sources": self.sources}
            inner = ", ".join(f"{name}={attr_identity(value, 2)}"
                              for name, value in sorted(content.items()))
            key = self._cache_key_memo = f"obj:ParseProvider({inner})"
        return key

    def tree_for(self, source_id: int) -> ParseNode:
        with self._lock:
            return self._tree_for(source_id)

    def _tree_for(self, source_id: int) -> ParseNode:
        """:meth:`tree_for`, for callers that hold the lock."""
        if source_id in self._cache:
            return self._cache[source_id]
        if self.mode == "derivation":
            assert self._trees is not None
            tree = self._trees[source_id]
        else:
            self.parse_count += 1
            tree = self._parser.parse(self.sources[source_id])
        self._cache[source_id] = tree
        return tree

    def _span_index(self, source_id: int) -> np.ndarray:
        """The source's span index, for callers that hold the lock: its
        nonterminal spans as ``(3, k)`` rows of rule code, start and end,
        clipped to the source length, empty spans dropped.  Built by one
        walk over the source's tree (:func:`_flat_spans`) and shared by
        every rule and encoding."""
        index = self._index.get(source_id)
        if index is None:
            index = self._index[source_id] = _flat_spans(
                self._tree_for(source_id), len(self.sources[source_id]),
                self._codes)
        return index

    def extract_block(self, members: list["ParseTreeHypothesis"],
                      dataset: Dataset,
                      indices: np.ndarray | list[int] | None = None
                      ) -> np.ndarray:
        """Labels of every member over a block of windowed records:
        ``(n, ns, len(members))``, uint8 (int32 when a member counts depth).

        The family kernel behind :func:`repro.hypotheses.base
        .extract_columns`: one block-local label table — touched sources x
        (longest touched source + 1) x distinct (rule, encoding) pairs —
        is rendered from the span index, and one gather over the dataset's
        ``(source_id, offset)`` columns answers every member.  The table's
        extra last column stays zero and is where out-of-source window
        positions are read.
        """
        indices = block_indices(dataset, indices)
        source_ids, offsets = dataset.window_columns()
        touched, rows = np.unique(source_ids[indices], return_inverse=True)
        touched = touched.tolist()
        pairs = [(m.rule, m.encoding) for m in members]
        distinct = {pair: j for j, pair in enumerate(dict.fromkeys(pairs))}
        with self._lock:
            found = [self._span_index(sid) for sid in touched]
            # (encoding, rule code) -> table column; -1 where no member asks
            column = np.full((len(ENCODINGS), len(self._codes)), -1)
            for (rule, encoding), j in distinct.items():
                if rule in self._codes:
                    column[ENCODINGS.index(encoding), self._codes[rule]] = j
        # every span of the touched sources, flat: span s lies in table row
        # ``src[s]`` and, as a time / signal / depth label, in table column
        # ``time[s]`` / ``signal[s]`` / ``depth[s]``
        src = np.repeat(np.arange(len(found)),
                        [index.shape[1] for index in found])
        codes, starts, ends = np.concatenate([_NO_SPANS, *found], axis=1)
        time, signal, depth = column[:, codes]
        width = max((len(self.sources[sid]) for sid in touched),
                    default=0) + 1
        table = np.zeros((len(touched), width, len(distinct)), np.int32)
        for cols in (time, depth):
            # a difference array per (source, column): ends never exceed
            # the source length, so the last column nets out to zero again
            at = np.flatnonzero(cols >= 0)
            np.add.at(table, (src[at], starts[at], cols[at]), 1)
            np.add.at(table, (src[at], ends[at], cols[at]), -1)
        np.cumsum(table, axis=1, out=table)
        at = np.flatnonzero(signal >= 0)
        table[src[at], starts[at], signal[at]] = 1
        table[src[at], ends[at] - 1, signal[at]] = 1
        encodings = [encoding for _, encoding in distinct]
        if "depth" not in encodings:
            table = (table > 0).view(np.uint8)      # every label is 0 or 1
        else:
            flags = [j for j, e in enumerate(encodings) if e == "time"]
            table[:, :, flags] = table[:, :, flags] > 0
        # window position -> source position; -1 and ``last`` both land on
        # the zero column, positions past a shorter source on its padding
        positions = offsets[indices][:, None] + np.arange(dataset.n_symbols)
        np.clip(positions, -1, width - 1, out=positions)
        block = table[rows[:, None], positions]
        if len(distinct) < len(pairs):
            block = block[:, :, [distinct[pair] for pair in pairs]]
        return block


_NO_SPANS = np.empty((3, 0), dtype=np.int64)


def _flat_spans(tree: ParseNode, length: int,
                codes: dict[str, int]) -> np.ndarray:
    """``tree``'s span index (:meth:`ParseProvider._span_index`); a rule
    met for the first time is given the next code.  One iterative walk,
    in no particular order: every label is a sum or a flag over spans."""
    rows, stack = [], [tree]
    while stack:
        node = stack.pop()
        stack += node.children
        if not node.terminal:
            rows += (codes.setdefault(node.symbol, len(codes)), node.start,
                     node.end)
    index = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    np.minimum(index[2], length, out=index[2])
    return index[:, index[2] > index[1]]


class ParseTreeHypothesis(HypothesisFunction):
    """One (rule, encoding) pair evaluated over windowed records."""

    def __init__(self, rule: str, encoding: str, provider: ParseProvider):
        if encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {encoding!r}")
        super().__init__(f"{encoding}:{rule}")
        self.rule = rule
        self.encoding = encoding
        self.provider = provider

    @property
    def family(self) -> ParseProvider:
        """Siblings cut from one provider are labelled in one pass."""
        return self.provider

    def extract(self, dataset: Dataset,
                indices: np.ndarray | list[int] | None = None) -> np.ndarray:
        return extract_columns([self], dataset, indices)[:, :, 0]


def grammar_hypotheses(grammar: Grammar, sources: list[str],
                       trees: list[ParseNode] | None = None,
                       encodings: tuple[str, ...] = ("time", "signal"),
                       mode: str = "reparse",
                       max_hypotheses: int | None = None
                       ) -> list[ParseTreeHypothesis]:
    """The paper's ``gram_hyp_functions``: hypotheses for every nonterminal.

    Returns ``len(encodings)`` hypotheses per nonterminal node type (the
    benchmark's "two hypotheses per non-terminal"), all sharing one
    :class:`ParseProvider` so each source string is parsed at most once.
    """
    provider = ParseProvider(grammar, sources, trees=trees, mode=mode)
    node_types = sorted(grammar.nonterminals - _SKIP_NODE_TYPES)
    hyps = [ParseTreeHypothesis(rule, encoding, provider)
            for encoding in encodings for rule in node_types]
    if max_hypotheses is not None:
        hyps = hyps[:max_hypotheses]
    return hyps
