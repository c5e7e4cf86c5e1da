"""Finite-state-machine hypotheses (Section 4.2).

An FSM reads the record character by character; each symbol triggers a state
transition and the hypothesis emits the current state label (or, hot-one
encoded, a separate binary hypothesis per state).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.data.datasets import Vocab
from repro.hypotheses.base import HypothesisFunction, symbol_kernel


class FSM:
    """Deterministic FSM over characters.

    ``transitions[state]`` maps a character to the next state; characters
    missing from the mapping fall back to the state's default transition
    (``transitions[state][None]``), or stay in place when no default exists.
    """

    def __init__(self, initial: int,
                 transitions: Mapping[int, Mapping[str | None, int]],
                 n_states: int | None = None):
        self.initial = initial
        self.transitions = {s: dict(t) for s, t in transitions.items()}
        states = set(self.transitions)
        for table in self.transitions.values():
            states.update(table.values())
        states.add(initial)
        self.n_states = n_states if n_states is not None else max(states) + 1
        self._states = sorted(states)

    def run(self, text: str) -> np.ndarray:
        """State id *after* reading each character."""
        state = self.initial
        out = np.empty(len(text), dtype=np.int64)
        for i, ch in enumerate(text):
            state = self._step(state, ch)
            out[i] = state
        return out

    def _step(self, state: int, char: str) -> int:
        table = self.transitions.get(state, {})
        return table.get(char, table.get(None, state))

    def run_block(self, symbols: np.ndarray, vocab: Vocab) -> np.ndarray:
        """:meth:`run` over an ``(n, ns)`` block of symbol ids at once.

        The transitions are tabulated over (state, symbol id) and the
        whole block steps through the table one column at a time.
        """
        ids = np.array(self._states, dtype=np.int64)
        row_of = {int(state): row for row, state in enumerate(ids)}
        step = np.array([[row_of[self._step(int(state), vocab.char(sym))]
                          for sym in range(len(vocab))] for state in ids])
        out = np.empty(symbols.shape, dtype=np.int64)
        rows = np.full(symbols.shape[0], row_of[self.initial])
        for t in range(symbols.shape[1]):
            rows = step[rows, symbols[:, t]]
            out[:, t] = ids[rows]
        return out


class FsmHypothesis(HypothesisFunction):
    """Wraps an FSM; emits state labels or the indicator of one state."""

    def __init__(self, name: str, fsm: FSM, state: int | None = None):
        super().__init__(name, categorical=state is None)
        self.fsm = fsm
        self.state = state

    @symbol_kernel
    def extract(self, symbols: np.ndarray, vocab: Vocab) -> np.ndarray:
        states = self.fsm.run_block(symbols, vocab)
        if self.state is not None:
            states = states == self.state
        return states.astype(np.float64)


def keyword_fsm(keyword: str) -> FSM:
    """Build an FSM whose state equals the matched prefix length of a keyword.

    State ``len(keyword)`` means "just finished reading the keyword" --
    the hot-one hypothesis for that state detects keyword completions.
    Uses KMP failure links so overlapping occurrences are tracked correctly.
    """
    if not keyword:
        raise ValueError("keyword must be non-empty")
    k = len(keyword)
    # KMP failure function
    fail = [0] * (k + 1)
    j = 0
    for i in range(1, k):
        while j and keyword[i] != keyword[j]:
            j = fail[j]
        if keyword[i] == keyword[j]:
            j += 1
        fail[i + 1] = j

    transitions: dict[int, dict[str | None, int]] = {}
    alphabet = sorted(set(keyword))
    for state in range(k + 1):
        table: dict[str | None, int] = {None: 0}
        for ch in alphabet:
            s = state if state < k else fail[k]
            while s and keyword[s] != ch:
                s = fail[s]
            table[ch] = s + 1 if keyword[s] == ch else 0
        transitions[state] = table
    return FSM(initial=0, transitions=transitions, n_states=k + 1)
