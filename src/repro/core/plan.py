"""Score tasks and the compiled plan that drives them (the engine's pieces
are introduced in :mod:`repro.core.pipeline`)."""

from __future__ import annotations

import contextlib
import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import HypothesisCache, model_fingerprint
from repro.core.config import InspectConfig
from repro.core.groups import UnitGroup
from repro.core.schedulers import Scheduler, _resolve_scheduler, gathering
from repro.core.source import BehaviorSource
from repro.data.datasets import Dataset
from repro.extract.base import Extractor, require_extractor
from repro.hypotheses.base import HypothesisFunction
from repro.measures.base import Measure, MeasureResult
from repro.util.rng import new_rng
from repro.util.trace import span


@dataclass
class GroupMeasureOutcome:
    """Result of one (unit group, measure) pair over all hypotheses."""

    group: UnitGroup
    measure: Measure
    result: MeasureResult
    hypothesis_names: list[str]
    records_processed: int = 0


class ScoreTask:
    """One (unit group, measure) pair: state, convergence, freezing.

    With a partition-capable measure and early stopping on, hypothesis
    columns converge individually: a column whose error bound drops under
    the threshold has its scores snapshotted, is removed from the measure
    state's sufficient statistics, and stops being fed — later blocks only
    pay for the still-active columns.  The task finishes when every column
    is frozen (or, for non-partition measures, when the scalar criterion
    fires).
    """

    def __init__(self, gi: int, group: UnitGroup, mi: int, measure: Measure,
                 n_hyps: int, config: InspectConfig):
        self.gi = gi
        self.mi = mi
        self.group = group
        self.measure = measure
        self.n_hyps = n_hyps
        self.threshold = config.threshold_for(measure.score_id)
        self.single_shot = config.mode == "full"
        self.early_stop = (config.early_stop and measure.supports_early_stop
                           and not self.single_shot)
        self.partition = self.early_stop and measure.supports_partition
        self.state = (None if self.single_shot
                      else measure.new_state(group.n_units, n_hyps))
        self.active_cols = np.arange(n_hyps)
        self.col_rows = np.zeros(n_hyps, dtype=np.int64)
        self.col_converged = np.zeros(n_hyps, dtype=bool)
        self._frozen_unit: np.ndarray | None = None
        self._frozen_group: np.ndarray | None = None
        self._last: MeasureResult | None = None
        self.records_processed = 0
        self.last_error = float("inf")  # error bound after the last block
        self.done = False

    # ------------------------------------------------------------------
    def process(self, u_block: np.ndarray, h_block: np.ndarray,
                n_records: int, h_moments=None, keep=None) -> None:
        """Consume one aligned block.

        ``h_block`` must already be restricted to this task's active
        hypothesis columns (the executor slices once per task, which lets
        the source skip extracting globally-frozen columns altogether);
        ``h_moments`` are the moments of exactly that array, if kept.
        ``keep`` receives the block's statistics when the state folds them
        (:attr:`folds_stats`).
        """
        if self.single_shot:
            self._last = self.measure.compute(u_block, h_block)
            self.col_rows[:] = u_block.shape[0]
            self.col_converged[:] = True
            self.records_processed = n_records
            self.last_error = 0.0
            self.done = True
            return
        result, err = self.measure.process_block(
            self.state, u_block, h_block, h_moments, keep)
        self._advance(result, err, n_records, u_block.shape[0])

    @property
    def folds_stats(self) -> bool:
        """Whether the state scores from per-block sufficient statistics
        (``block_stats`` / ``fold``) — correlation's do."""
        return hasattr(self.state, "fold")

    def fold(self, stats: tuple, n_records: int, n_rows: int) -> None:
        """:meth:`process` a block from the statistics an earlier
        statement kept of it."""
        result, err = self.measure.fold(self.state, stats, n_rows)
        self._advance(result, err, n_records, n_rows)

    def _advance(self, result: MeasureResult, err: float, n_records: int,
                 n_rows: int) -> None:
        """Account for a consumed block; freeze what converged."""
        self._last = result
        self.last_error = float(err)
        self.records_processed += n_records
        self.col_rows[self.active_cols] += n_rows
        if not self.early_stop:
            return
        if self.partition:
            self._freeze_converged()
        elif err <= self.threshold:
            result.converged = True
            self.col_converged[:] = True
            self.done = True

    def _freeze_converged(self) -> None:
        errors = self.state.column_errors()
        if errors is None:  # state opted out at runtime: scalar fallback
            if self.state.error() <= self.threshold:
                self._last.converged = True
                self.col_converged[:] = True
                self.done = True
            return
        # NaN marks a vacuous column (score pinned at a default but not
        # final, e.g. a hypothesis with no contrast yet): never freeze it --
        # later blocks may revive it -- but don't let it keep the task alive
        # once every informative column has converged.
        with np.errstate(invalid="ignore"):
            ready = errors <= self.threshold
        vacuous = np.isnan(errors)
        if ready.any():
            scores = self.state.unit_scores()
            group = self.state.group_scores()
            if self._frozen_unit is None:
                self._frozen_unit = np.zeros(
                    (self.group.n_units, self.n_hyps))
                if group is not None:
                    self._frozen_group = np.zeros(self.n_hyps)
            frozen_global = self.active_cols[ready]
            self._frozen_unit[:, frozen_global] = scores[:, ready]
            if group is not None and self._frozen_group is not None:
                self._frozen_group[frozen_global] = group[ready]
            self.col_converged[frozen_global] = True
            keep = ~ready
            self.active_cols = self.active_cols[keep]
            if self.active_cols.shape[0]:
                self.state.restrict_columns(np.flatnonzero(keep))
            vacuous = vacuous[keep]
        if self.active_cols.shape[0] == 0:
            self.done = True
        elif vacuous.all():
            # only vacuous columns remain: the task is converged the same
            # way the scalar criterion treats an all-degenerate state; their
            # live (pinned) scores are stitched into the result
            self.col_converged[self.active_cols] = True
            if self._last is not None:
                self._last.converged = True
            self.done = True

    # ------------------------------------------------------------------
    def outcome(self, names: list[str]) -> GroupMeasureOutcome:
        if self._frozen_unit is not None:
            result = self._stitched_result()
        elif self._last is not None:
            result = self._last
        else:  # zero blocks processed (empty dataset, or a progressive
            # snapshot taken before this task's first block — single-shot
            # tasks have no state yet, so build a throwaway empty one)
            state = (self.state if self.state is not None
                     else self.measure.new_state(self.group.n_units,
                                                 self.n_hyps))
            result = state.result()
        result.col_rows_seen = self.col_rows.copy()
        result.col_converged = self.col_converged.copy()
        return GroupMeasureOutcome(
            group=self.group, measure=self.measure, result=result,
            hypothesis_names=names,
            records_processed=self.records_processed)

    def _stitched_result(self) -> MeasureResult:
        """Merge frozen column snapshots with the live state's columns."""
        unit = self._frozen_unit.copy()
        group = (None if self._frozen_group is None
                 else self._frozen_group.copy())
        extras = None
        if self.active_cols.shape[0]:
            live = self.state.result()
            unit[:, self.active_cols] = live.unit_scores
            if group is not None and live.group_scores is not None:
                group[self.active_cols] = live.group_scores
            extras = live.extras
        return MeasureResult(
            unit_scores=unit, group_scores=group,
            n_rows_seen=int(self.col_rows.max(initial=0)),
            converged=bool(self.col_converged.all()),
            extras=extras)

    def describe(self) -> str:
        policy = ("single-shot" if self.single_shot
                  else "per-column" if self.partition
                  else "scalar" if self.early_stop else "exhaustive")
        return (f"ScoreTask({self.group.model_id}/{self.group.name} x "
                f"{self.measure.score_id}, stop={policy})")


@dataclass
class InspectionPlan:
    """A compiled inspection run: source + tasks + scheduling policy."""

    groups: list[UnitGroup]
    dataset: Dataset
    measures: list[Measure]
    hypotheses: list[HypothesisFunction]
    config: InspectConfig
    order: np.ndarray
    source: BehaviorSource = field(init=False)
    tasks: list[ScoreTask] = field(init=False)
    #: task -> (its fixed key parts, active column count, their identities)
    _stat_keys: dict = field(init=False, default_factory=dict)

    @classmethod
    def build(cls, groups: list[UnitGroup], dataset: Dataset,
              measures: list[Measure],
              hypotheses: list[HypothesisFunction],
              extractor: Extractor, config: InspectConfig) -> "InspectionPlan":
        if not groups:
            raise ValueError("need at least one unit group")
        if not measures:
            raise ValueError("need at least one measure")
        if not hypotheses:
            raise ValueError("need at least one hypothesis function")
        require_extractor(extractor, "extractor")
        for group in groups:
            n_units = (group.extractor or extractor).n_units(group.model)
            if group.unit_ids.max() >= n_units:
                raise ValueError(
                    f"unit group {group.name!r} names unit "
                    f"{group.unit_ids.max()}, but its extractor exposes "
                    f"{n_units} units of {group.model_id}")
        rng = new_rng(config.seed)
        n_records = dataset.n_records
        if config.max_records is not None:
            n_records = min(n_records, config.max_records)
        order = np.arange(n_records)
        if config.shuffle:
            rng.shuffle(order)
        plan = cls(groups=groups, dataset=dataset, measures=measures,
                   hypotheses=hypotheses, config=config, order=order)
        plan.source = BehaviorSource(dataset, hypotheses, groups, extractor,
                                     config, order)
        n_hyps = len(hypotheses)
        plan.tasks = [ScoreTask(gi, g, mi, m, n_hyps, config)
                      for gi, g in enumerate(groups)
                      for mi, m in enumerate(measures)]
        return plan

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Readable operator tree (the EXPLAIN of an inspection run)."""
        sched = self.config.scheduler
        sched_name = (sched.name if isinstance(sched, Scheduler)
                      else sched or "serial")
        lines = [f"InspectionPlan(mode={self.config.mode}, "
                 f"records={self.source.n_records}, "
                 f"scheduler={sched_name})",
                 f"  {self.source.describe()}"]
        lines += [f"  {task.describe()}" for task in self.tasks]
        return "\n".join(lines)

    def execute(self) -> list[GroupMeasureOutcome]:
        for _ in self.execute_blocks():
            pass
        return self.outcomes()

    def sweep_pairs(self) -> list[tuple[str, str]]:
        """The ``(model fingerprint, raw-extractor key)`` pairs of the raw
        forward sweeps this run may issue over its dataset: one per fused
        extraction pair, the granularity the
        :class:`~repro.core.cache.UnitBehaviorCache` keys entries by."""
        return sorted({
            (self.source.key_of(members[0][1].model, model_fingerprint),
             raw_key)
            for (_, raw_key), members
            in self.source.extraction_pairs().items()})

    def execute_blocks(self):
        """Drive the executor loop, yielding once after each block.

        The run's full lifecycle rides on the generator: the scheduler is
        resolved up front (and an owned one shut down at exhaustion *or*
        abandonment), and the whole run shares one commit scope per store
        its tiers write through (:meth:`BehaviorSource.stores`; usually
        one) — one segment and one manifest rewrite per run, not one per
        (entry, block).  Callers snapshot whatever task state they need
        between steps (:meth:`outcomes`, or individual tasks for cheaper
        partial reads).

        With a unit tier, the run first leases its sweep pairs from it
        (:meth:`~repro.core.cache.UnitBehaviorCache.lease`): if another
        in-flight run is already sweeping one of them, this run waits for
        that sweep to land instead of racing a duplicate forward pass.
        The lease is released — and waiters woken — even when the
        consumer abandons this generator mid-run.

        A consumer of this generator may stop after any block, and a
        block's sweep is launched only once the consumer has asked for it:
        abandoning the run costs exactly the blocks delivered.
        """
        scheduler, owned = _resolve_scheduler(self.config.scheduler)
        tier = self.config.unit_cache
        try:
            with contextlib.ExitStack() as scopes:
                if tier is not None:
                    scopes.enter_context(tier.lease(
                        self.dataset, self.order, self.sweep_pairs()))
                for store in self.source.stores():
                    scopes.enter_context(store.deferred_commits())
                yield from self._run_blocks(scheduler)
        finally:
            if owned:
                scheduler.shutdown()

    def outcomes(self) -> list[GroupMeasureOutcome]:
        """Current (possibly partial) outcome snapshot of every task."""
        names = [h.name for h in self.hypotheses]
        return [task.outcome(names) for task in self.tasks]

    def _run_blocks(self, scheduler: Scheduler):
        """The per-block loop: a streamed block's sweeps run beside its
        hypothesis labelling, on every scheduler.

        A block's raw unit sweep is one future per extraction pair
        (:meth:`BehaviorSource.submit_sweeps`), submitted before the
        block's hypothesis extraction and gathered after it.  A pool
        sweeps while the calling thread labels: the calling thread's
        ``unit_extraction`` spans hold only the submission and its
        ``wait_sweeps`` (each ``sweep[model]`` span, timed on its pool
        thread, hangs from the submission's).  An inline scheduler has
        swept, pair by pair, by the time the submission returns, so the
        first failing pair ends the statement.  No span is open at the
        ``yield``: every one attaches to whatever span the consumer has
        current.  Invariants:

        * **Frames are bit-identical** to serial execution: block order,
          per-block record slices and per-group behavior values are
          unchanged (a group's block does not depend on which other groups
          share the extraction call).
        * **Counters are exact**: the futures *are* the block's extraction
          (the loop does not re-probe the caches) and no block is swept
          ahead of the one being processed — a run abandoned after block t
          has swept exactly t blocks x pairs.
        * **No future outlives the run**, however it ends: a sweep may
          write through the caches, so it finishes (or is cancelled unrun)
          inside the run's store scope (:func:`gathering`).
        * **Kept block statistics** stand in for a block: a task whose
          state folds them (correlation) probes the hypothesis tier for
          this block's (:meth:`stat_key`) before anything is submitted;
          a served task folds them inside its usual ``score`` span, and
          the block's sweeps and hypothesis gather cover only the tasks
          that were not served — none at all when every one was.
        * Materialized runs extracted everything in
          :meth:`BehaviorSource.prepare` and serve row slices.
        """
        n_hyps = len(self.hypotheses)
        self.source.prepare(scheduler)
        # kept statistics trust the model fingerprint as the unit tier
        # does, so only a plan with one keeps them
        cache = (None if self.source.materialize
                 or self.config.unit_cache is None else self.config.cache)
        for sl in self.source.block_slices():
            pending = [t for t in self.tasks if not t.done]
            if not pending:
                break
            # tasks whose block statistics the hypothesis tier keeps fold
            # them and read nothing; the rest read the block
            kept, keeps = {}, {}
            if cache is not None:
                records = hashlib.sha1(
                    self.source.order[sl].tobytes()).digest()
                for task in pending:
                    if task.folds_stats:
                        key = self.stat_key(task, records)
                        stats = cache.block_stats(key)
                        if stats is None:
                            keeps[task] = functools.partial(
                                cache.keep_block_stats, key)
                        else:
                            kept[task] = stats
            reading = [t for t in pending if t not in kept]
            needed: dict[int, UnitGroup] = {}
            for task in reading:
                needed.setdefault(task.gi, task.group)
            needed_items = sorted(needed.items())
            # the last block's unit blocks, and the futures holding them,
            # go before this block's land
            u_blocks = sweeps = gather = None
            h_block = h_moments = cols_union = None
            if self.source.materialize:
                u_blocks = self.source.unit_blocks(sl, needed_items)
                h_block, h_moments = self.source.hypothesis_block(sl)
            elif reading:
                with span("unit_extraction"):
                    sweeps = self.source.submit_sweeps(
                        needed_items, self.source.order[sl], scheduler)
                # hypothesis columns frozen in *every* reading task need
                # no further extraction
                if any(t.active_cols.shape[0] < n_hyps for t in reading):
                    cols_union = np.unique(np.concatenate(
                        [t.active_cols for t in reading]))
                    if cols_union.shape[0] == n_hyps:
                        cols_union = None
                with gathering(sweeps) as gather:
                    h_block, h_moments = self.source.hypothesis_block(
                        sl, columns=cols_union)
                    with span("unit_extraction"), span("wait_sweeps"):
                        u_blocks = {gi: block for pair in gather()
                                    for gi, block in pair.items()}
            n_records = sl.stop - sl.start
            n_rows = n_records * self.dataset.n_symbols

            def score(task):
                """Fold the task's kept statistics, or feed it its active
                columns of h_block; their moments go along (shared) only
                with the whole block — a column slice sums in another
                order."""
                with span("score", task.group.name,
                          task.measure.score_id):
                    if task in kept:
                        cache.count_stats()
                        task.fold(kept[task], n_records, n_rows)
                        return
                    local = (task.active_cols if cols_union is None else
                             np.searchsorted(cols_union, task.active_cols))
                    whole = local.shape[0] == h_block.shape[1]
                    task.process(u_blocks[task.gi],
                                 h_block if whole else h_block[:, local],
                                 n_records, h_moments if whole else None,
                                 keeps.get(task))

            with span("inspection"):
                scheduler.map(score, pending)
            yield sl

    def stat_key(self, task: ScoreTask, records: bytes) -> tuple:
        """What the hypothesis tier keeps ``task``'s statistics of one
        block under: the exact computation, by content — the measure, the
        dataset, the model's parameters, the group's extractor (transform,
        layer view) and units, the identities of the task's active
        hypothesis columns (a frozen column changes the key of every later
        block) and the digest of the block's records."""
        fixed, n_active, columns = self._stat_keys.get(task, (None, -1, ()))
        if fixed is None:
            group = task.group
            ext = group.extractor or self.source.default_extractor
            fixed = (task.measure.score_id, self.dataset.cache_key(),
                     self.source.key_of(group.model, model_fingerprint),
                     ext.cache_key(),
                     hashlib.sha1(group.unit_ids.tobytes()).digest())
        if n_active != task.active_cols.shape[0]:
            # active columns only ever shrink: their count names the set.
            # Identities are kept whole: a digest of ~1 MB of them would
            # cost more than the fold it saves
            n_active = task.active_cols.shape[0]
            columns = tuple(
                HypothesisCache._hypothesis_identity(self.hypotheses[c])
                for c in task.active_cols)
        self._stat_keys[task] = (fixed, n_active, columns)
        return (*fixed, columns, records)
