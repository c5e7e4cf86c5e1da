"""Measure protocol: full-data computation plus the incremental block API.

A measure quantifies the affinity between unit behaviors ``U`` (rows =
symbols, columns = units) and hypothesis behaviors ``H`` (rows = symbols,
columns = hypotheses).  Following Definition 1, it returns a per-unit score
for every (unit, hypothesis) pair and -- for *joint* measures -- a group
score per hypothesis.

The streaming engine drives measures through :class:`MeasureState`::

    state = measure.new_state(n_units, n_hyps)
    for U_block, H_block in blocks:
        scores, err = measure.process_block(state, U_block, H_block)
        if err <= threshold: break

which is the ``l.process_block(U, h, recs) -> (scores, err)`` API of
Section 5.2.2.

Most states are a sum of per-block sufficient statistics, and
:class:`MeasureState` owns that protocol: a *block-local* state writes only
``block_stats`` and its scores, so the engine may keep a block's statistics
and fold them again without reading the block.  Correlation, difference of
means, the linear probe and both naive baselines are block-local.  A
:class:`CalibratedState` (Jaccard, MI) is not: its counts depend on
parameters fitted on a sample.  Nor is a held-out probe (logistic
regression): each optimizer step depends on the ones before.  Both take
whole blocks in ``update``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MeasureResult:
    """Affinity output for one (unit group, measure) over all hypotheses."""

    unit_scores: np.ndarray            # (n_units, n_hyps)
    group_scores: np.ndarray | None    # (n_hyps,) for joint measures
    n_rows_seen: int = 0               # symbols consumed before convergence
    converged: bool = False
    extras: dict | None = None         # measure-specific outputs (see docs)
    #: per-hypothesis-column accounting, filled by the plan executor when a
    #: measure supports column partitioning (frozen columns see fewer rows)
    col_rows_seen: np.ndarray | None = None    # (n_hyps,) int
    col_converged: np.ndarray | None = None    # (n_hyps,) bool


class MeasureState:
    """Incremental computation state; subclasses accumulate sufficient stats."""

    #: a block-local state's statistics, attribute -> shape: "u" has no
    #: hypothesis axis, "h" is per hypothesis, "uh" per (unit, hypothesis)
    _STATS: dict[str, str] = {}
    #: whether :meth:`block_stats` reads the ``h_moments`` it is handed: the
    #: engine sums a block's moments ahead of scoring only for such a state
    uses_h_moments = False

    def __init__(self, n_units: int, n_hyps: int):
        self.n_units = n_units
        self.n_hyps = n_hyps
        self.n_rows = 0
        self._memo: dict = {}
        shapes = {"u": (n_units,), "h": (n_hyps,), "uh": (n_units, n_hyps)}
        for name, shape in self._STATS.items():
            setattr(self, name, np.zeros(shapes[shape]))

    def _memoized(self, name: str, compute):
        """Cache a derived quantity until (n_rows, n_hyps) changes.

        One block typically triggers several score/error reads (result,
        error, per-column convergence check); the sufficient statistics only
        change with :meth:`fold` (which moves ``n_rows`` with them) or
        ``restrict_columns`` (which shrinks ``n_hyps``), so those two values
        key the cache.  ``update`` bumps ``n_rows`` only after it returns,
        so a state must not read a memoized score inside ``update``.
        """
        key = (self.n_rows, self.n_hyps)
        hit = self._memo.get(name)
        if hit is None or hit[0] != key:
            hit = (key, compute())
            self._memo[name] = hit
        return hit[1]

    @property
    def block_local(self) -> bool:
        """Whether the state defines :meth:`block_stats`."""
        return type(self).block_stats is not MeasureState.block_stats

    def block_stats(self, units: np.ndarray, hyps: np.ndarray,
                    h_moments=None) -> tuple:
        """One block's statistics in ``_STATS`` order, from the block alone:
        the engine keeps them under the measure's ``score_id``, which must
        name everything that changes them.  ``h_moments``, if given, is a
        thunk for ``hyps``' column sums and sums of squares."""
        raise NotImplementedError

    def fold(self, stats: tuple, n_rows: int) -> None:
        """Add one block's :meth:`block_stats` and count its rows."""
        for name, part in zip(self._STATS, stats):
            total = getattr(self, name)
            total += part
        self.n_rows += n_rows

    def update(self, units: np.ndarray, hyps: np.ndarray) -> None:
        raise NotImplementedError  # states that are not block-local

    def unit_scores(self) -> np.ndarray:
        raise NotImplementedError

    def group_scores(self) -> np.ndarray | None:
        return None

    def error(self) -> float:
        """Upper estimate of the current score error (inf until defined)."""
        return float("inf")

    @property
    def partitioned(self) -> bool:
        """Whether the engine freezes this state's hypothesis columns one
        by one: it is block-local and defines :meth:`column_errors`."""
        return (self.block_local and type(self).column_errors
                is not MeasureState.column_errors)

    def column_errors(self) -> np.ndarray:
        """Per-hypothesis-column error estimates, shape (n_hyps,).

        A block-local state whose statistics factor across hypothesis
        columns defines this, one error bound per column, so the engine can
        freeze converged columns individually; any other state keeps the
        scalar criterion (:meth:`error`).
        A ``NaN`` entry marks a *vacuous* column (its score is pinned but
        could still change, e.g. a hypothesis that has not fired yet): the
        engine never freezes it, but it does not block task convergence.
        The max over non-NaN entries must equal :meth:`error` (0.0 when all
        entries are NaN).
        """
        raise NotImplementedError

    def restrict_columns(self, keep: np.ndarray) -> None:
        """Drop all hypothesis columns except ``keep`` (positional indices).

        Called by the engine after converged columns are frozen; later
        blocks arrive restricted to the kept columns.
        """
        if not self.block_local:
            raise NotImplementedError(
                f"{type(self).__name__} does not support column partitioning")
        keep = np.asarray(keep, dtype=int)
        for name, shape in self._STATS.items():
            if shape != "u":
                setattr(self, name, getattr(self, name)[..., keep])
        self.n_hyps = int(keep.shape[0])

    def extras(self) -> dict | None:
        return None

    def result(self, converged: bool = False) -> MeasureResult:
        return MeasureResult(unit_scores=self.unit_scores(),
                             group_scores=self.group_scores(),
                             n_rows_seen=self.n_rows,
                             converged=converged,
                             extras=self.extras())


class Measure:
    """Base class for affinity measures."""

    #: identifier used in result frames (e.g. ``corr:pearson``)
    score_id: str = "measure"
    #: joint measures score a unit group as a whole (e.g. logistic regression)
    joint: bool = False

    # ------------------------------------------------------------------
    def new_state(self, n_units: int, n_hyps: int) -> MeasureState:
        raise NotImplementedError

    def process_block(self, state: MeasureState, units: np.ndarray,
                      hyps: np.ndarray, h_moments=None, keep=None
                      ) -> tuple[MeasureResult, float]:
        """Consume one block; returns (current scores, current error).

        A block-local state reduces the block to its statistics, hands
        them to ``keep`` if given, and folds them; ``h_moments`` is a
        ``block_moments`` thunk for exactly ``hyps``.  Any other state
        takes the block in ``update``."""
        units = np.asarray(units, dtype=np.float64)
        hyps = np.asarray(hyps, dtype=np.float64)
        if units.shape[0] != hyps.shape[0]:
            raise ValueError(
                f"block row mismatch: units {units.shape[0]} vs "
                f"hyps {hyps.shape[0]}")
        if state.block_local:
            stats = state.block_stats(units, hyps, h_moments)
            if keep is not None:
                keep(stats)
            state.fold(stats, units.shape[0])
        else:
            state.update(units, hyps)
            state.n_rows += units.shape[0]
        return state.result(), state.error()

    def compute(self, units: np.ndarray, hyps: np.ndarray) -> MeasureResult:
        """Single-shot full-data computation (the non-streaming path)."""
        state = self.new_state(units.shape[1], hyps.shape[1])
        result, _ = self.process_block(state, units, hyps)
        result.converged = True
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.score_id!r})"


class DeltaWindowMixin:
    """Score-delta convergence: error = |score - mean(last N scores)|.

    The paper uses this empirical criterion for measures without closed-form
    confidence intervals, with a window sized to cover ~2,048 tuples.
    """

    def __init__(self, window: int = 4):
        self._history: list[np.ndarray] = []
        self._window = window

    def push_score(self, scores: np.ndarray) -> None:
        self._history.append(np.asarray(scores, dtype=np.float64))
        if len(self._history) > self._window + 1:
            self._history.pop(0)

    def delta_error(self) -> float:
        if len(self._history) <= self._window:
            return float("inf")
        past = np.mean(self._history[:-1], axis=0)
        return float(np.max(np.abs(self._history[-1] - past)))


class CalibratedState(MeasureState, DeltaWindowMixin):
    """A state whose statistics need parameters estimated from a sample.

    Quantile thresholds, bin edges and unit selections must come from at
    least ``calibration_rows`` rows, not from whatever the first block held.
    Blocks are buffered until that many have arrived; then the parameters
    are fitted once on the whole buffer and every buffered block is
    accumulated.  Scoring stays lazy while buffering: a result read scores
    *provisional* statistics fitted on whatever is buffered (memoized per
    buffer size -- the buffer is append-only) without ending the buffering,
    so a mid-stream read cannot cut the sample short, and an end-of-stream
    read on a dataset smaller than ``calibration_rows`` still scores every
    row.  No score history accumulates while buffering: convergence cannot
    be judged from provisional parameters.

    Subclasses write only their math: ``_calibrate(units, hyps)`` returns
    the parameters, ``_new_stats()`` empty statistics,
    ``_accumulate(stats, params, units, hyps)`` adds one block in place, and
    ``_unit_scores(stats)`` / ``_group_scores(stats)`` read them;
    ``_tracked()`` picks the scores the delta window watches.
    """

    def __init__(self, n_units: int, n_hyps: int, calibration_rows: int,
                 window: int):
        MeasureState.__init__(self, n_units, n_hyps)
        DeltaWindowMixin.__init__(self, window=window)
        self.calibration_rows = calibration_rows
        # the fitted parameters and the statistics; None while buffering
        self.calibration = None
        self.stats = None
        self._buffer: list[tuple[np.ndarray, np.ndarray]] = []
        self._buffered_rows = 0
        self._provisional: tuple[int, object] | None = None

    def update(self, units: np.ndarray, hyps: np.ndarray) -> None:
        if self.calibration is not None:
            self._accumulate(self.stats, self.calibration, units, hyps)
        else:
            self._buffer.append((units.copy(), hyps.copy()))
            self._buffered_rows += units.shape[0]
            if self._buffered_rows < self.calibration_rows:
                return
            self.calibration, self.stats = self._fit(self._buffer)
            self._buffer, self._provisional = [], None
        self.push_score(self._tracked())

    def _fit(self, blocks: list[tuple[np.ndarray, np.ndarray]]):
        """(parameters, statistics) fitted on and accumulated over
        ``blocks``.  Every measure's statistics are counts, which sum
        exactly, so block boundaries cannot show in them."""
        params = self._calibrate(np.concatenate([u for u, _ in blocks]),
                                 np.concatenate([h for _, h in blocks]))
        stats = self._new_stats()
        for units, hyps in blocks:
            self._accumulate(stats, params, units, hyps)
        return params, stats

    def _current(self):
        """The statistics a read scores (None before the first row)."""
        if self.stats is not None:
            return self.stats
        if not self._buffer:
            return None
        if self._provisional is None \
                or self._provisional[0] != self._buffered_rows:
            self._provisional = (self._buffered_rows,
                                 self._fit(self._buffer)[1])
        return self._provisional[1]

    def unit_scores(self) -> np.ndarray:
        stats = self._current()
        if stats is None:
            return np.zeros((self.n_units, self.n_hyps))
        return self._unit_scores(stats)

    def group_scores(self) -> np.ndarray | None:
        stats = self._current()
        return None if stats is None else self._group_scores(stats)

    def _group_scores(self, stats) -> np.ndarray | None:
        return None

    def _tracked(self) -> np.ndarray:
        """The scores whose movement decides convergence."""
        return self.unit_scores().max(axis=0)

    def error(self) -> float:
        return self.delta_error()
