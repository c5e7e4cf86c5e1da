"""Linear-probe measure (Alain & Bengio style, joint, closed form).

A ridge-regularized linear model predicting the hypothesis behavior from all
unit activations.  Because the normal equations only need the accumulated
moments ``X'X`` and ``X'y``, the incremental state is exact: each block costs
one rank-update, and the probe can be (re)solved at any point -- giving
cheap early-stopping checks via the R-squared delta window.
"""

from __future__ import annotations

import numpy as np

from repro.measures.base import DeltaWindowMixin, Measure, MeasureState


class _LinearProbeState(MeasureState, DeltaWindowMixin):
    _STATS = {"xtx": "u", "xty": "uh", "yty": "h", "y_sum": "h"}

    def __init__(self, n_units: int, n_hyps: int, ridge: float, window: int):
        MeasureState.__init__(self, n_units, n_hyps)
        DeltaWindowMixin.__init__(self, window=window)
        self.ridge = ridge
        d = n_units + 1  # X's intercept column widens both unit axes
        self.xtx, self.xty = np.zeros((d, d)), np.zeros((d, n_hyps))

    def block_stats(self, units: np.ndarray, hyps: np.ndarray,
                    h_moments=None) -> tuple:
        x = np.concatenate([units, np.ones((units.shape[0], 1))], axis=1)
        return (x.T @ x, x.T @ hyps, (hyps**2).sum(axis=0), hyps.sum(axis=0))

    def fold(self, stats: tuple, n_rows: int) -> None:
        """Fold, then push the R² of every row counted so far."""
        super().fold(stats, n_rows)
        self.push_score(self.group_scores())

    def _solve(self) -> np.ndarray:
        d = self.xtx.shape[0]
        reg = self.ridge * np.eye(d)
        reg[-1, -1] = 0.0  # do not penalize the intercept
        try:
            return np.linalg.solve(self.xtx + reg, self.xty)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(self.xtx + reg, self.xty, rcond=None)[0]

    def unit_scores(self) -> np.ndarray:
        return self._solve()[:-1, :]

    def group_scores(self) -> np.ndarray:
        """R-squared per hypothesis, computed from accumulated moments."""
        if self.n_rows == 0:
            return np.zeros(self.n_hyps)
        beta = self._solve()
        n = max(self.n_rows, 1)
        sse = (self.yty
               - 2.0 * np.einsum("dh,dh->h", beta, self.xty)
               + np.einsum("dh,de,eh->h", beta, self.xtx, beta))
        sst = self.yty - self.y_sum**2 / n
        with np.errstate(divide="ignore", invalid="ignore"):
            r2 = np.where(sst > 1e-12, 1.0 - sse / np.maximum(sst, 1e-12), 0.0)
        return np.clip(r2, -1.0, 1.0)

    def error(self) -> float:
        return self.delta_error()


class LinearProbeScore(Measure):
    """Closed-form ridge probe; group score R², unit scores coefficients."""

    joint = True

    def __init__(self, ridge: float = 1e-3, window: int = 4):
        if ridge < 0:
            raise ValueError("ridge strength must be non-negative")
        self.ridge = ridge
        self.window = window
        self.score_id = "linear_probe"

    def new_state(self, n_units: int, n_hyps: int) -> _LinearProbeState:
        return _LinearProbeState(n_units, n_hyps, self.ridge, self.window)
