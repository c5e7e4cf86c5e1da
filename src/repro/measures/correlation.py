"""Pearson / Spearman correlation measures (independent, per-unit).

Correlation is the paper's canonical independent measure (used by Karpathy
et al. to find interpretable units).  The incremental state keeps running
first and second moments plus the cross-moment matrix, so each block costs
one ``U.T @ H`` -- and early stopping uses Normal-based confidence intervals
from the Fisher transformation (Section 5.2.2).  The state is block-local
(:class:`~repro.measures.base.MeasureState`): a repeated statement folds
the kept statistics of a block without reading it or forming the product.
"""

from __future__ import annotations

import numpy as np

from repro.measures.base import Measure, MeasureState
from repro.measures.stats import fisher_ci_halfwidth


class _CorrState(MeasureState):
    _STATS = {"sum_u": "u", "sum_uu": "u", "sum_h": "h", "sum_hh": "h",
              "sum_uh": "uh"}

    def __init__(self, n_units: int, n_hyps: int, rank_transform: bool):
        super().__init__(n_units, n_hyps)
        self.rank_transform = rank_transform
        self.uses_h_moments = not rank_transform    # ranks sum differently

    @staticmethod
    def _rank(x: np.ndarray) -> np.ndarray:
        """Column-wise average ranks: tied values share the mean of the
        positions they occupy (0-based; Spearman is shift-invariant).

        Vectorized across columns: one argsort per column (batched), then
        tie runs are resolved with prefix/suffix scans instead of a Python
        loop over ``np.unique``.  A run of equal values occupying sorted
        positions ``[s, e]`` gets rank ``(s + e) / 2``; both that midpoint
        and the historical ``cumsum(counts) - (counts + 1) / 2`` form are
        sums of integers halved, exact in float64, so the results are
        bit-identical on ties.
        """
        n, m = x.shape
        if n == 0 or m == 0:
            return np.empty(x.shape, dtype=np.float64)
        # sort along rows of the contiguous transpose -- sorting axis=0 of
        # a C-ordered matrix strides across cache lines and costs ~2x.
        # Any sort order works: every member of a tie run receives the
        # run's midpoint, so intra-run permutation cannot show.
        xt = np.ascontiguousarray(x.T)
        order = np.argsort(xt, axis=1)
        xs = np.take_along_axis(xt, order, axis=1)
        idx = np.arange(n, dtype=np.int64)[None, :]
        # start[i] = first sorted position of i's tie run: the largest
        # boundary position at or before i (a boundary opens a new run)
        new_run = np.empty((m, n), dtype=bool)
        new_run[:, 0] = True
        np.not_equal(xs[:, 1:], xs[:, :-1], out=new_run[:, 1:])
        start = np.maximum.accumulate(np.where(new_run, idx, 0), axis=1)
        # end[i] = last sorted position of the run: smallest closing
        # boundary at or after i, via the reversed scan
        closes = np.empty((m, n), dtype=bool)
        closes[:, -1] = True
        closes[:, :-1] = new_run[:, 1:]
        end = np.minimum.accumulate(
            np.where(closes, idx, n - 1)[:, ::-1], axis=1)[:, ::-1]
        mean_pos = (start + end) / 2.0
        ranks_t = np.empty((m, n), dtype=np.float64)
        np.put_along_axis(ranks_t, order, mean_pos, axis=1)
        # hand back a C-contiguous matrix: downstream reductions must see
        # the same memory layout (and thus the same bits) as before
        return np.ascontiguousarray(ranks_t.T)

    def block_stats(self, units: np.ndarray, hyps: np.ndarray,
                    h_moments=None) -> tuple:
        """``(Σu, Σu², Σh, Σh², Σuh)``; ``h_moments`` stands in for
        reducing ``hyps`` again, except under ranks."""
        if self.rank_transform:
            units = self._rank(units)
            hyps = self._rank(hyps)
        if h_moments is None or not self.uses_h_moments:
            sum_h, sum_hh = hyps.sum(axis=0), (hyps**2).sum(axis=0)
        else:
            sum_h, sum_hh = h_moments()
        return (units.sum(axis=0), (units**2).sum(axis=0),
                sum_h, sum_hh, units.T @ hyps)

    def unit_scores(self) -> np.ndarray:
        return self._memoized("unit_scores", self._unit_scores)

    def _unit_scores(self) -> np.ndarray:
        n = max(self.n_rows, 1)
        cov = self.sum_uh / n - np.outer(self.sum_u / n, self.sum_h / n)
        var_u = np.maximum(self.sum_uu / n - (self.sum_u / n)**2, 0.0)
        var_h = np.maximum(self.sum_hh / n - (self.sum_h / n)**2, 0.0)
        denom = np.sqrt(np.outer(var_u, var_h))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(denom > 1e-12, cov / denom, 0.0)
        return np.clip(r, -1.0, 1.0)

    def column_errors(self) -> np.ndarray:
        return self._memoized("column_errors", self._column_errors)

    def _column_errors(self) -> np.ndarray:
        if self.n_rows <= 3:
            return np.full(self.n_hyps, np.inf)
        # the widest CI across the column's units bounds its scores' error
        halfwidths = fisher_ci_halfwidth(self.unit_scores(), self.n_rows)
        return halfwidths.max(axis=0)

    def error(self) -> float:
        return float(self.column_errors().max())


class CorrelationScore(Measure):
    """Pearson correlation between each unit and each hypothesis.

    ``CorrelationScore('pearson')`` reproduces the paper's API example.
    """

    joint = False

    def __init__(self, method: str = "pearson"):
        if method not in ("pearson",):
            raise ValueError(
                f"unknown method {method!r}; use SpearmanCorrelationScore "
                "for rank correlation")
        self.method = method
        self.score_id = f"corr:{method}"

    def new_state(self, n_units: int, n_hyps: int) -> _CorrState:
        return _CorrState(n_units, n_hyps, rank_transform=False)


class SpearmanCorrelationScore(Measure):
    """Spearman rank correlation (block-wise rank approximation).

    Ranks are computed within each processed block; for shuffled blocks this
    converges to the full-data rank correlation as block size grows.
    """

    joint = False
    score_id = "corr:spearman"

    def new_state(self, n_units: int, n_hyps: int) -> _CorrState:
        return _CorrState(n_units, n_hyps, rank_transform=True)
