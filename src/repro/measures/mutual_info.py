"""Mutual-information measures.

:class:`MutualInfoScore` (independent) discretizes each unit's behavior into
quantile bins and accumulates joint histograms against each hypothesis --
the measure Morcos et al. use to find "semantic neurons".

:class:`MultivariateMutualInfoScore` (joint) estimates the MI between a
hypothesis and the joint activation *pattern* of the most informative units
of the group, matching the paper's "multivariate implementation of mutual
information" (Section 4.3).
"""

from __future__ import annotations

import numpy as np

from repro.measures.base import CalibratedState, Measure


def _digitize(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Column-wise bin ids given per-column inner edges (n_edges, n_cols)."""
    out = np.zeros(values.shape, dtype=np.int64)
    for e in range(edges.shape[0]):
        out += values > edges[e][None, :]
    return out


def _quantile_edges(sample: np.ndarray, n_bins: int) -> np.ndarray:
    """Inner quantile edges (n_bins - 1, n_cols); ties collapse bins."""
    qs = np.linspace(0, 1, n_bins + 1)[1:-1]
    return np.quantile(sample, qs, axis=0)


#: bin-grid size above which the flat scatter-add beats BLAS mask matmuls
#: (measured crossover ~144 cells on one core)
_SCATTER_MIN_CELLS = 128


def _scatter_counts(joint: np.ndarray, u_bins: np.ndarray,
                    h_bins: np.ndarray) -> None:
    """``joint[i, j, u_bins[r, i], h_bins[r, j]] += 1`` for every row r.

    Two strategies, picked by bin-grid size.  Small grids keep one dense
    0/1-mask matmul per (u_bin, h_bin) cell -- BLAS wins while the cell
    count is tiny (masks are precomputed once per axis).  Larger grids use
    a flat ``bincount`` scatter-add (``np.add.at`` semantics) whose cost is
    O(rows x units x hyps) *regardless* of the bin count, instead of
    scaling quadratically with ``n_bins``; chunking keeps the intermediate
    code matrix small for wide unit/hypothesis blocks.
    """
    n_units, n_hyps, nb_u, nb_h = joint.shape
    if nb_u * nb_h <= _SCATTER_MIN_CELLS:
        masks_u = [(u_bins == b).astype(np.float64).T for b in range(nb_u)]
        masks_h = [(h_bins == b).astype(np.float64) for b in range(nb_h)]
        for bu in range(nb_u):
            for bh in range(nb_h):
                joint[:, :, bu, bh] += masks_u[bu] @ masks_h[bh]
        return
    cell_base = (np.arange(n_units)[:, None] * n_hyps
                 + np.arange(n_hyps)[None, :]) * (nb_u * nb_h)
    chunk = max(1, 4_000_000 // max(1, n_units * n_hyps))
    for start in range(0, u_bins.shape[0], chunk):
        codes = (cell_base[None, :, :]
                 + u_bins[start:start + chunk, :, None] * nb_h
                 + h_bins[start:start + chunk, None, :])
        joint += np.bincount(codes.reshape(-1),
                             minlength=joint.size).reshape(joint.shape)


def _mi_from_joint(joint: np.ndarray) -> float:
    """MI in nats from a 2-D contingency table of counts."""
    total = joint.sum()
    if total <= 0:
        return 0.0
    p = joint / total
    pi = p.sum(axis=1, keepdims=True)
    pj = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p / (pi @ pj))
    return float(np.nansum(terms))


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


class _MiState(CalibratedState):
    def __init__(self, n_units: int, n_hyps: int, n_bins: int,
                 calibration_rows: int, normalize: bool, window: int):
        super().__init__(n_units, n_hyps, calibration_rows, window)
        self.n_bins = n_bins
        self.normalize = normalize

    def _calibrate(self, units: np.ndarray,
                   hyps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-column bin edges of both sides."""
        return (_quantile_edges(units, self.n_bins),
                _quantile_edges(hyps, self.n_bins))

    def _new_stats(self) -> np.ndarray:
        # joint histogram: (n_units, n_hyps, u_bin, h_bin)
        return np.zeros((self.n_units, self.n_hyps, self.n_bins, self.n_bins))

    def _accumulate(self, joint: np.ndarray, edges, units: np.ndarray,
                    hyps: np.ndarray) -> None:
        _scatter_counts(joint, _digitize(units, edges[0]),
                        _digitize(hyps, edges[1]))

    def _unit_scores(self, joint: np.ndarray) -> np.ndarray:
        scores = np.zeros((self.n_units, self.n_hyps))
        for i in range(self.n_units):
            for j in range(self.n_hyps):
                mi = _mi_from_joint(joint[i, j])
                if self.normalize:
                    h_u = _entropy(joint[i, j].sum(axis=1))
                    h_h = _entropy(joint[i, j].sum(axis=0))
                    denom = np.sqrt(h_u * h_h)
                    mi = mi / denom if denom > 1e-12 else 0.0
                scores[i, j] = mi
        return scores


class MutualInfoScore(Measure):
    """Quantile-binned mutual information per (unit, hypothesis) pair.

    ``normalize=True`` rescales by sqrt(H(U) * H(H)) so scores live in
    [0, 1] and are comparable across hypotheses of different entropy.
    """

    joint = False

    def __init__(self, n_bins: int = 4, calibration_rows: int = 2048,
                 normalize: bool = True, window: int = 4):
        if n_bins < 2:
            raise ValueError("need at least 2 bins")
        self.n_bins = n_bins
        self.calibration_rows = calibration_rows
        self.normalize = normalize
        self.window = window
        self.score_id = "mutual_info"

    def new_state(self, n_units: int, n_hyps: int) -> _MiState:
        return _MiState(n_units, n_hyps, self.n_bins, self.calibration_rows,
                        self.normalize, self.window)


class _MultiMiState(CalibratedState):
    def __init__(self, n_units: int, n_hyps: int, top_k: int,
                 calibration_rows: int, window: int):
        super().__init__(n_units, n_hyps, calibration_rows, window)
        self.top_k = min(top_k, n_units)

    def _calibrate(self, units: np.ndarray,
                   hyps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(medians, per-hypothesis selected unit ids): each hypothesis's
        most correlated units."""
        u_medians = np.median(units, axis=0)
        bits = units > u_medians[None, :]
        h_act = hyps > 0
        # |corr| of binarized signals selects the informative units
        bu = bits - bits.mean(axis=0, keepdims=True)
        bh = h_act - h_act.mean(axis=0, keepdims=True)
        denom = (np.sqrt((bu**2).sum(axis=0))[:, None]
                 * np.sqrt((bh**2).sum(axis=0))[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(denom > 1e-12, np.abs(bu.T @ bh) / denom, 0.0)
        selected = np.argsort(-corr, axis=0)[:self.top_k].T.copy()
        return u_medians, selected

    def _new_stats(self) -> tuple[np.ndarray, np.ndarray]:
        # per-hypothesis joint histogram over patterns x binary hypothesis,
        # and the per-unit binary joint for individual scores
        return (np.zeros((self.n_hyps, 2**self.top_k, 2)),
                np.zeros((self.n_units, self.n_hyps, 2, 2)))

    def _accumulate(self, stats, calibration, units: np.ndarray,
                    hyps: np.ndarray) -> None:
        pattern_joint, unit_joint = stats
        u_medians, selected = calibration
        bits = (units > u_medians[None, :]).astype(np.int64)
        h_act = (hyps > 0).astype(np.int64)
        powers = 1 << np.arange(self.top_k)
        for j in range(hyps.shape[1]):
            patterns = bits[:, selected[j]] @ powers
            np.add.at(pattern_joint[j], (patterns, h_act[:, j]), 1.0)
        # individual unit contingency tables, via the flat scatter-add
        _scatter_counts(unit_joint, bits, h_act)

    def _unit_scores(self, stats) -> np.ndarray:
        unit_joint = stats[1]
        scores = np.zeros((self.n_units, self.n_hyps))
        for i in range(self.n_units):
            for j in range(self.n_hyps):
                scores[i, j] = _mi_from_joint(unit_joint[i, j])
        return scores

    def _group_scores(self, stats) -> np.ndarray:
        pattern_joint = stats[0]
        return np.array([_mi_from_joint(pattern_joint[j])
                         for j in range(self.n_hyps)])

    def _tracked(self) -> np.ndarray:
        return self.group_scores()


class MultivariateMutualInfoScore(Measure):
    """MI between a hypothesis and the joint pattern of the top-k units."""

    joint = True

    def __init__(self, top_k: int = 8, calibration_rows: int = 2048,
                 window: int = 4):
        if top_k < 1 or top_k > 16:
            raise ValueError("top_k must be in [1, 16]")
        self.top_k = top_k
        self.calibration_rows = calibration_rows
        self.window = window
        self.score_id = f"multi_mi:k{top_k}"

    def new_state(self, n_units: int, n_hyps: int) -> _MultiMiState:
        return _MultiMiState(n_units, n_hyps, self.top_k,
                             self.calibration_rows, self.window)
