"""Jaccard-coefficient measure (independent) -- the NetDissect score.

NetDissect binarizes each unit's activation map at a top-quantile threshold
and computes the intersection-over-union with annotated pixels.  The
threshold is estimated from an activation sample collected over the first
blocks (an online quantile approximation, as the paper notes NetDissect's
pipeline is); afterwards intersection/union counts accumulate exactly.
"""

from __future__ import annotations

import numpy as np

from repro.measures.base import CalibratedState, Measure


class _JaccardState(CalibratedState):
    def __init__(self, n_units: int, n_hyps: int, quantile: float,
                 calibration_rows: int, window: int):
        super().__init__(n_units, n_hyps, calibration_rows, window)
        self.quantile = quantile

    def _calibrate(self, units: np.ndarray, hyps: np.ndarray) -> np.ndarray:
        """Per-unit activation thresholds."""
        return np.quantile(units, self.quantile, axis=0)

    def _new_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # |A & H| per pair, |A| per unit, |H| per hypothesis
        return (np.zeros((self.n_units, self.n_hyps)),
                np.zeros(self.n_units), np.zeros(self.n_hyps))

    def _accumulate(self, stats, thresholds: np.ndarray, units: np.ndarray,
                    hyps: np.ndarray) -> None:
        active = (units > thresholds[None, :]).astype(np.float64)
        h_active = (hyps > 0).astype(np.float64)
        intersection, active_u, active_h = stats
        intersection += active.T @ h_active
        active_u += active.sum(axis=0)
        active_h += h_active.sum(axis=0)

    def _unit_scores(self, stats) -> np.ndarray:
        intersection, active_u, active_h = stats
        union = active_u[:, None] + active_h[None, :] - intersection
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(union > 0,
                            intersection / np.maximum(union, 1e-12), 0.0)


class JaccardScore(Measure):
    """Intersection-over-union of thresholded activations vs. annotations.

    ``quantile`` sets the activation threshold (NetDissect uses the top 0.5%,
    i.e. 0.995); ``calibration_rows`` controls how many symbols are buffered
    to estimate it.
    """

    joint = False

    def __init__(self, quantile: float = 0.995, calibration_rows: int = 2048,
                 window: int = 4):
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.quantile = quantile
        self.calibration_rows = calibration_rows
        self.window = window
        self.score_id = f"jaccard:q{quantile}"

    def new_state(self, n_units: int, n_hyps: int) -> _JaccardState:
        return _JaccardState(n_units, n_hyps, self.quantile,
                             self.calibration_rows, self.window)
