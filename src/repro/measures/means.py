"""Difference-of-means measure (independent).

Scores each unit by the standardized difference between its mean behavior on
symbols where the (binary) hypothesis is active versus inactive -- one of the
classic measures in the RNN-interpretation literature (Section 4.3).
Early stopping uses the standard error of the mean difference.
"""

from __future__ import annotations

import numpy as np

from repro.measures.base import Measure, MeasureState
from repro.measures.stats import Z_95


class _DiffMeansState(MeasureState):
    # sufficient statistics split by hypothesis value (h>0 vs h<=0)
    _STATS = {"n_pos": "h", "n_neg": "h", "sum_pos": "uh", "sum_neg": "uh",
              "sumsq_pos": "uh", "sumsq_neg": "uh"}

    def block_stats(self, units: np.ndarray, hyps: np.ndarray,
                    h_moments=None) -> tuple:
        active = hyps > 0
        units_sq = units**2
        return (active.sum(axis=0), (~active).sum(axis=0),
                units.T @ active, units.T @ (~active),
                units_sq.T @ active, units_sq.T @ (~active))

    def _moments(self):
        n_pos = np.maximum(self.n_pos, 1e-12)
        n_neg = np.maximum(self.n_neg, 1e-12)
        mean_pos = self.sum_pos / n_pos
        mean_neg = self.sum_neg / n_neg
        var_pos = np.maximum(self.sumsq_pos / n_pos - mean_pos**2, 0.0)
        var_neg = np.maximum(self.sumsq_neg / n_neg - mean_neg**2, 0.0)
        return mean_pos, mean_neg, var_pos, var_neg, n_pos, n_neg

    def unit_scores(self) -> np.ndarray:
        return self._memoized("unit_scores", self._unit_scores)

    def _unit_scores(self) -> np.ndarray:
        mean_pos, mean_neg, var_pos, var_neg, n_pos, n_neg = self._moments()
        pooled = np.sqrt((var_pos * n_pos + var_neg * n_neg)
                         / (n_pos + n_neg))
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(pooled > 1e-12,
                              (mean_pos - mean_neg) / pooled, 0.0)
        # zero out hypotheses that never (or always) fired: undefined contrast
        degenerate = (self.n_pos < 2) | (self.n_neg < 2)
        scores[:, degenerate] = 0.0
        return scores

    def column_errors(self) -> np.ndarray:
        return self._memoized("column_errors", self._column_errors)

    def _column_errors(self) -> np.ndarray:
        if self.n_rows < 8:
            return np.full(self.n_hyps, np.inf)
        _, _, var_pos, var_neg, n_pos, n_neg = self._moments()
        # hypotheses that never (or always) fired have scores pinned at 0:
        # their error is *vacuous* (NaN) -- the engine must not freeze them
        # (a contrast may still appear), but they don't block convergence
        valid = (self.n_pos >= 2) & (self.n_neg >= 2)
        se = np.sqrt(var_pos / np.maximum(n_pos, 1)
                     + var_neg / np.maximum(n_neg, 1))
        return np.where(valid, (Z_95 * se).max(axis=0), np.nan)

    def error(self) -> float:
        errors = self.column_errors()
        informative = ~np.isnan(errors)
        if not informative.any():
            # no contrast anywhere yet -- vacuously converged
            return 0.0
        return float(errors[informative].max())


class DiffMeansScore(Measure):
    """Standardized mean-activation difference, active vs. inactive symbols."""

    joint = False
    score_id = "diff_means"

    def new_state(self, n_units: int, n_hyps: int) -> _DiffMeansState:
        return _DiffMeansState(n_units, n_hyps)
