"""Naive baseline scores: random class and majority class (Section 4.1).

These anchor affinity scores: a probe is only evidence of learned structure
if it beats what a classifier that ignores the activations entirely would
score.  Both baselines estimate the hypothesis class prior ``p`` online and
report the *expected* F1 of the trivial predictor:

* random (prior-matched coin flip):  F1 = p
* majority class: F1 = 2p / (1 + p) when the positive class dominates,
  0 otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.measures.base import Measure, MeasureState


class _PriorState(MeasureState):
    _STATS = {"n_pos": "h"}

    def __init__(self, n_units: int, n_hyps: int, kind: str):
        super().__init__(n_units, n_hyps)
        self.kind = kind

    def block_stats(self, units: np.ndarray, hyps: np.ndarray,
                    h_moments=None) -> tuple:
        return ((hyps > 0).sum(axis=0),)

    def _prior(self) -> np.ndarray:
        return self.n_pos / max(self.n_rows, 1)

    def group_scores(self) -> np.ndarray:
        p = self._prior()
        if self.kind == "random":
            # E[tp]=p^2 n, E[fp]=E[fn]=p(1-p) n  =>  F1 = p
            return p
        return np.where(p > 0.5, 2.0 * p / (1.0 + p), 0.0)

    def unit_scores(self) -> np.ndarray:
        # baselines ignore unit behaviors: same floor for every unit
        return np.tile(self.group_scores()[None, :], (self.n_units, 1))

    def error(self) -> float:
        # the prior estimate converges at 1/sqrt(n)
        if self.n_rows < 2:
            return float("inf")
        return float(1.0 / np.sqrt(self.n_rows))


class RandomClassScore(Measure):
    """Expected F1 of a prior-matched random classifier."""

    joint = True
    score_id = "baseline:random"

    def new_state(self, n_units: int, n_hyps: int) -> _PriorState:
        return _PriorState(n_units, n_hyps, "random")


class MajorityClassScore(Measure):
    """Expected F1 of the majority-class predictor."""

    joint = True
    score_id = "baseline:majority"

    def new_state(self, n_units: int, n_hyps: int) -> _PriorState:
        return _PriorState(n_units, n_hyps, "majority")
