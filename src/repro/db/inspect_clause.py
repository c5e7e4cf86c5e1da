"""Execution of the INSPECT SQL extension (Appendix B).

Models, hidden units and hypotheses are modeled as catalog relations::

    models(mid, epoch, ...)          -- one row per trained model snapshot
    units(mid, uid, layer, ...)      -- one row per hidden unit
    hypotheses(h, name, ...)         -- one row per hypothesis function
    inputs(did, seq)                 -- one row per dataset

A query like the paper's::

    SELECT M.epoch, S.uid
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid AND U.layer = 0 AND H.name = 'keywords'
    GROUP BY M.epoch
    HAVING S.unit_score > 0.8
    ORDER BY S.unit_score DESC LIMIT 20

runs the pipeline every statement runs — bind, relation, select (see
:mod:`repro.db.executor`) — with the inspection between the last two:

1. **Catalog relation** -- every column reference is resolved against the
   FROM schema plus the ``S`` columns (:func:`repro.db.expr.resolve_expr`)
   and the FROM list and WHERE become the joined catalog relation through
   the relation stage every SELECT uses (:mod:`repro.db.relation`).
2. **Shared inspection plan** -- GROUP BY keys are factorized over the
   joined relation and its rows split by group (one stable argsort); the
   model and hypothesis columns are factorized once into first-seen
   codes, so each group's workload is integer work that keeps the
   catalog's first-seen orders.  The per-group (model, unit-set,
   hypothesis) workloads are deduplicated across groups, and ONE
   plan-engine run (:class:`repro.core.pipeline.InspectionPlan`) scores
   everything, wired to the session's
   :class:`~repro.core.cache.HypothesisCache` /
   :class:`~repro.core.cache.UnitBehaviorCache` and scheduler.  The
   per-dataset runs a GROUP BY sweep fans into share the session's one
   pool (thread or process), the one ``Session.inspect(...)`` queries
   run on, and its frames stay bit-identical to serial execution.  A ``GROUP BY M.epoch`` sweep
   therefore extracts each model's behavior once, and the hypothesis
   behaviors once in total.
3. **Columnar S relation** -- scores are materialized as column arrays
   ``S(uid, hid, mid, score_id, group_score, unit_score)`` beside the
   surviving catalog columns; HAVING filters that relation and the SELECT
   projection, ORDER BY and LIMIT are the select stage every SELECT uses
   (:func:`repro.db.executor.select_columnar`).
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.groups import UnitGroup
from repro.core.pipeline import InspectionPlan
from repro.db.executor import (SelectQuery, _broadcast, bind_select_list,
                               from_schema, group_ids, materialize_into,
                               select_columns)
from repro.db.expr import AggregateRef, Expr, Schema, resolve_expr
from repro.db.relation import execute_catalog_plan, keep_where, plan_catalog
from repro.db.sqlparser import InspectSpec
from repro.hypotheses.base import HypothesisFunction
from repro.measures.registry import get_measure
from repro.util.frame import Frame
from repro.util.trace import span

if TYPE_CHECKING:  # repro.session imports this module
    from repro.session import Session

#: schema of the temporary score relation produced by the INSPECT clause
S_COLUMNS = ("uid", "hid", "mid", "score_id", "group_score", "unit_score")


# ----------------------------------------------------------------------
# stage 2: the shared inspection plan
# ----------------------------------------------------------------------
def _factorize(values: np.ndarray) -> tuple[np.ndarray, list]:
    """Int64 codes for ``values`` and the distinct values they index, both
    in first-occurrence order: one hashing pass, no object-array sort."""
    items = values.tolist()
    distinct = list(dict.fromkeys(items))
    code = {v: k for k, v in enumerate(distinct)}
    return np.fromiter(map(code.__getitem__, items), dtype=np.int64,
                       count=len(items)), distinct


def _seen_order(codes: np.ndarray) -> np.ndarray:
    """The distinct ``codes``, in first-occurrence order."""
    uniq, first = np.unique(codes, return_index=True)
    return uniq[np.argsort(first, kind="stable")]


def _split_groups(gids: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Each group's row positions, ascending: one stable argsort."""
    order = np.argsort(gids, kind="stable")
    ends = np.cumsum(np.bincount(gids, minlength=n_groups))
    return np.split(order, ends[:-1])


@dataclass
class _GroupWorkload:
    """Distinct work one GROUP BY group asks for."""

    hyp_names: list[str]
    # per model (first-seen order): (mid, sorted unit ids, representative
    # catalog row grid).  The grid is hypothesis-major over the unit ids
    # (entry j * n_units + i describes hypothesis j x unit i, matching the
    # S relation's row order): a (unit, hypothesis) pair present in the
    # catalog points at its own first row, so hypothesis-table columns
    # agree with the row's S.hid; pairs the cross product adds fall back
    # to the unit's first row.
    models: list[tuple[str, np.ndarray, np.ndarray]]
    did: str = ""   # dataset this group targets (filled after collection)


def _collect_workloads(groups: list[np.ndarray], mid_arr: np.ndarray,
                       uid_arr: np.ndarray,
                       hyp_arr: np.ndarray) -> list[_GroupWorkload]:
    mcodes, mids = _factorize(mid_arr)
    hcodes, hyps = _factorize(hyp_arr)
    local = np.empty(len(hyps), dtype=np.int64)  # hcode -> group column
    workloads: list[_GroupWorkload] = []
    for rows_g in groups:
        hyp_order = _seen_order(hcodes[rows_g])
        hyp_names = [str(hyps[k]) for k in hyp_order.tolist()]
        local[hyp_order] = np.arange(hyp_order.shape[0])
        models: list[tuple[str, np.ndarray, np.ndarray]] = []
        mcodes_g = mcodes[rows_g]
        for m in _seen_order(mcodes_g).tolist():
            rows_m = rows_g[mcodes_g == m]
            m_uids = uid_arr[rows_m].astype(np.int64)
            uids, first = np.unique(m_uids, return_index=True)
            nu = uids.shape[0]
            rep_grid = np.tile(rows_m[first], len(hyp_names))
            pair = local[hcodes[rows_m]] * nu + np.searchsorted(uids, m_uids)
            present, pfirst = np.unique(pair, return_index=True)
            rep_grid[present] = rows_m[pfirst]
            models.append((str(mids[m]), uids, rep_grid))
        workloads.append(_GroupWorkload(hyp_names=hyp_names, models=models))
    return workloads


def _model_column(spec: InspectSpec, schema: Schema) -> str:
    """The column naming each unit row's model: the unit table's ``mid``."""
    if "." in spec.unit_ref:
        qualified = f"{spec.unit_ref.split('.')[0]}.mid"
        if qualified in schema.qualified:
            return qualified
    return schema.resolve("mid")


def _group_datasets(session: Session, spec: InspectSpec,
                    schema: Schema, cols: dict[str, np.ndarray],
                    groups: list[np.ndarray]) -> list[str]:
    """The dataset id each GROUP BY group targets.

    Every group must resolve to exactly one dataset, but different groups
    may target different datasets (``GROUP BY D.did`` sweeps): the shared
    plan is partitioned per dataset downstream.
    """
    did_col: np.ndarray | None = None
    if "." in spec.dataset_ref:
        qualified = f"{spec.dataset_ref.split('.')[0]}.did"
        if qualified in schema.qualified:
            did_col = cols[qualified]
    if did_col is None and "did" in schema.owners:
        did_col = cols[schema.resolve("did")]  # ambiguity raises here
    if did_col is None:
        if len(session.datasets) != 1:
            raise ValueError(
                "cannot determine the INSPECT dataset: no catalog relation "
                "exposes a 'did' column and the session registers "
                f"{len(session.datasets)} datasets")
        return [next(iter(session.datasets))] * len(groups)
    dids: list[str] = []
    for rows_g in groups:
        group_dids = did_col[rows_g]
        if not (group_dids == group_dids[0]).all():
            raise ValueError("INSPECT must target one dataset per group, "
                             f"got {sorted(set(group_dids.tolist()))}")
        dids.append(str(group_dids[0]))
    return dids


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
@dataclass
class _CompiledInspect:
    """An INSPECT statement compiled up to (but excluding) execution.

    Everything the catalog stages decide — name resolution, the joined
    catalog relation, the deduplicated per-dataset run list — happens
    once in :func:`_compile_inspect`; the one-shot
    (:func:`run_inspect_spec`) and progressive
    (:func:`stream_inspect_spec`) executors then differ only in *when*
    they call :meth:`assemble` on outcome snapshots, so their final
    frames are bit-identical by construction.  Kept on its spec from run
    to run (:meth:`repro.session.Session.compiled`): read-only once built,
    and never referring back to the spec — a cycle would hold a dropped
    session's models until the cycle collector runs.
    """

    out_columns: list[str]
    select: SelectQuery | None = None   # bound select stage over S
    having: Expr | None = None          # bound filter over S, before it
    catalog_keep: dict[str, np.ndarray] = field(default_factory=dict)
    workloads: list[_GroupWorkload] = field(default_factory=list)
    runs: dict[str, list[UnitGroup]] = field(default_factory=dict)
    plan_index: dict[tuple[str, str, bytes], int] = field(
        default_factory=dict)
    hyp_col_of: dict[str, int] = field(default_factory=dict)
    measures: list = field(default_factory=list)
    hyp_objs: list[HypothesisFunction] = field(default_factory=list)
    empty: bool = False   # catalog plan produced zero rows

    def assemble(self, spec: InspectSpec,
                 outcomes_by_did: dict[str, list]) -> Frame:
        """Materialize S from outcome snapshots and run the select stage:
        HAVING is a filter over S joined with the catalog (it may name
        columns the SELECT list does not project), the rest is
        :func:`~repro.db.executor.select_columnar`."""
        if self.empty:
            return Frame.from_records([], columns=self.out_columns)
        cols = _materialize_s(self.catalog_keep, self.workloads,
                              outcomes_by_did, self.plan_index,
                              self.hyp_col_of, len(self.measures),
                              spec.inspect_alias)
        n = cols[f"{spec.inspect_alias}.uid"].shape[0]
        if self.having is not None:
            cols, n = keep_where(cols, n, [self.having])
        # HAVING is applied and INSPECT admits no aggregate: no row-level
        # stage is left, so the frame is built from the projected columns
        columns, _ = select_columns(cols, n, self.select)
        return Frame({name: columns[name] for name in self.out_columns})


@dataclass
class _Statement:
    """One INSPECT statement in flight (see :func:`_open_statement`)."""

    spec: InspectSpec
    compiled: _CompiledInspect
    plans: dict[str, InspectionPlan]           # did -> that dataset's plan
    outcomes_by_did: dict[str, list] = field(default_factory=dict)
    frame: Frame | None = None                 # latest assembled output

    def assemble(self) -> Frame:
        with span("assemble"):
            self.frame = self.compiled.assemble(self.spec,
                                                self.outcomes_by_did)
        return self.frame


@contextlib.contextmanager
def _open_statement(session: Session,
                    spec: InspectSpec) -> Iterator[_Statement]:
    """The statement lifecycle both executors share.

    Compiles the catalog stages and builds every per-dataset plan (a
    GROUP BY D.did sweep runs one plan per dataset) on the session's
    config — whose scheduler is the session's one pool, never a name that
    would build one per plan; the caller drains the plans and assembles.
    Only when the caller completed (no error, not abandoned: a cancelled
    query must not commit a half-scored table) does ``INTO`` persist the
    last assembled frame.  The SQL half of a statement's trace hangs from
    here (the block half from :meth:`InspectionPlan.execute_blocks`); no
    span is open at the ``yield``.
    """
    config = session.effective_config()   # raises on a closed session
    with span("compile"):
        compiled = session.compiled(spec)
    with span("plan_build"):
        statement = _Statement(spec, compiled, {
            did: InspectionPlan.build(
                groups_d, session.dataset(did), compiled.measures,
                compiled.hyp_objs, session.extractor, config)
            for did, groups_d in compiled.runs.items()})
    yield statement
    if spec.into:
        # on a persistent database the committed table gets automatic
        # sorted indexes on its hot columns, so later SELECTs over the
        # saved scores run index-backed — and a reopened session answers
        # them with zero extraction or re-scoring
        frame = statement.frame
        with span("materialize_into"):
            materialize_into(session.db, spec.into, frame.columns,
                             frame.rows())


def run_inspect_spec(session: Session, spec: InspectSpec) -> Frame:
    """One-shot INSPECT execution: each per-dataset plan drains itself,
    one assembly at the end."""
    with _open_statement(session, spec) as statement:
        for did, plan in statement.plans.items():
            statement.outcomes_by_did[did] = plan.execute()
        return statement.assemble()


def stream_inspect_spec(session: Session,
                        spec: InspectSpec) -> Iterator[Frame]:
    """Progressive INSPECT execution: one result frame per processed block.

    Compiles the statement exactly like :func:`run_inspect_spec`, then
    drives each per-dataset plan block by block, assembling the full
    output relation (HAVING/projection/ORDER BY/LIMIT included) from the
    current outcome snapshots after every block.  Datasets not yet
    started contribute zero-score snapshots, so every partial frame has
    the final frame's shape; the last yielded frame is bit-identical to
    :func:`run_inspect_spec`'s return for the same statement.

    Each frame carries ``records_processed`` / ``converged`` attributes
    for progress reporting.  Abandoning the generator stops the run
    cleanly — pending store scopes flush, owned scheduler pools shut
    down, sweep leases release — and skips the ``INTO`` persist
    step.
    """
    with _open_statement(session, spec) as statement:
        plans, outcomes_by_did = statement.plans, statement.outcomes_by_did
        # zero-snapshot every dataset up front: partial frames keep the
        # full output shape while earlier datasets are still running
        outcomes_by_did.update(
            (did, plan.outcomes()) for did, plan in plans.items())

        def snapshot() -> Frame:
            frame = statement.assemble()
            frame.records_processed = max(
                (o.records_processed
                 for outs in outcomes_by_did.values() for o in outs),
                default=0)
            frame.converged = all(
                task.done or bool(task.col_converged.all())
                for plan in plans.values() for task in plan.tasks)
            return frame

        for did, plan in plans.items():
            # closing(): GeneratorExit at our yield still runs the block
            # generator's cleanup promptly (store flush, lease release)
            with contextlib.closing(plan.execute_blocks()) as steps:
                for _ in steps:
                    outcomes_by_did[did] = plan.outcomes()
                    yield snapshot()
        if statement.frame is None:
            # zero-block run (empty catalog or dataset): still one frame
            yield snapshot()


def _has_aggregate(expr: Expr) -> bool:
    return isinstance(expr, AggregateRef) \
        or any(map(_has_aggregate, expr.children()))


def _compile_inspect(session: Session,
                     spec: InspectSpec) -> _CompiledInspect:
    db = session.db
    if any(alias == spec.inspect_alias for _, alias in spec.tables):
        raise ValueError(f"INSPECT alias {spec.inspect_alias!r} collides "
                         "with a FROM table alias")
    clauses = [item.expr for item in spec.select_items] + spec.group_by \
        + [e for e in (spec.where, spec.having) if e is not None]
    if any(map(_has_aggregate, clauses)):
        raise ValueError(
            "aggregate functions are not supported in INSPECT queries; "
            "aggregate over the returned frame instead")
    catalog_schema = from_schema(db, spec.tables)

    # the post-inspection scope adds the S relation's columns
    out_schema = from_schema(db, spec.tables)
    out_schema.add(spec.inspect_alias, list(S_COLUMNS))

    where = (resolve_expr(spec.where, catalog_schema)
             if spec.where is not None else None)
    group_by = [resolve_expr(e, catalog_schema) for e in spec.group_by]
    select_items, order_by = bind_select_list(
        spec.select_items, spec.order_by, out_schema)
    having = (resolve_expr(spec.having, out_schema)
              if spec.having is not None else None)

    out_columns = [item.alias for item in spec.select_items]
    cols, n = execute_catalog_plan(db, plan_catalog(spec.tables, where))
    if n == 0:
        return _CompiledInspect(out_columns=out_columns, empty=True)

    # factorize GROUP BY keys over the joined relation
    if group_by:
        key_cols = [_broadcast(e.eval_batch(cols), n) for e in group_by]
        gids, n_groups = group_ids(key_cols, n)
    else:
        gids, n_groups = np.zeros(n, dtype=np.int64), 1

    mid_arr = cols[_model_column(spec, catalog_schema)]
    uid_arr = cols[catalog_schema.resolve(spec.unit_ref)]
    hyp_arr = cols[catalog_schema.resolve(spec.hyp_ref)]
    groups = _split_groups(gids, n_groups)
    group_dids = _group_datasets(session, spec, catalog_schema, cols, groups)
    measures = [get_measure(name) for name in spec.measures]
    workloads = _collect_workloads(groups, mid_arr, uid_arr, hyp_arr)
    for workload, did in zip(workloads, group_dids):
        workload.did = did

    # dedupe (dataset, model, unit-set) work and union hypotheses across
    # groups: everything targeting one dataset runs as ONE plan, so shared
    # extraction happens once per (model, dataset)
    runs: dict[str, list[UnitGroup]] = {}
    plan_index: dict[tuple[str, str, bytes], int] = {}
    hyp_names: list[str] = []
    for workload in workloads:
        for name in workload.hyp_names:
            if name not in hyp_names:
                hyp_names.append(name)
        for mid, uids, _ in workload.models:
            key = (workload.did, mid, uids.tobytes())
            if key in plan_index:
                continue
            groups_d = runs.setdefault(workload.did, [])
            plan_index[key] = len(groups_d)
            groups_d.append(UnitGroup(model=session.model(mid),
                                      unit_ids=uids, name=f"mid={mid}"))
    hyp_objs = [session.hypothesis(name) for name in hyp_names]
    hyp_col_of = {name: j for j, name in enumerate(hyp_names)}

    # only catalog columns the SELECT/HAVING/ORDER BY actually reference
    # are replicated into the S relation
    needed: set[str] = set()
    for item in select_items:   # the hidden ORDER BY key included
        needed |= item.expr.columns()
    if having is not None:
        needed |= having.columns()
    catalog_keep = {q: arr for q, arr in cols.items() if q in needed}

    return _CompiledInspect(
        out_columns=out_columns, having=having,
        select=SelectQuery(items=select_items, table=spec.inspect_alias,
                           order_by=order_by, descending=spec.descending,
                           limit=spec.limit),
        catalog_keep=catalog_keep, workloads=workloads, runs=runs,
        plan_index=plan_index, hyp_col_of=hyp_col_of, measures=measures,
        hyp_objs=hyp_objs)


def _materialize_s(cols: dict[str, np.ndarray],
                   workloads: list[_GroupWorkload],
                   outcomes_by_did: dict[str, list],
                   plan_index: dict[tuple[str, str, bytes], int],
                   hyp_col_of: dict[str, int], n_measures: int,
                   alias: str) -> dict[str, np.ndarray]:
    """Assemble the temporary S relation as column arrays.

    Row order is group-major, then model, then measure, then
    hypothesis-major over that model's units -- the seed frontend's
    flattening order, produced with repeat/tile instead of per-row loops.
    Each row also carries a representative catalog row (first row of its
    (model, unit, hypothesis) triple when present, of the (model, unit)
    pair otherwise), so SELECT/HAVING can reference catalog columns.
    """
    chunks: dict[str, list[np.ndarray]] = {q: [] for q in cols}
    for name in S_COLUMNS:
        chunks[f"{alias}.{name}"] = []

    def emit(name: str, values: np.ndarray) -> None:
        chunks[f"{alias}.{name}"].append(values)

    for workload in workloads:
        hyps = workload.hyp_names
        hcols = np.asarray([hyp_col_of[h] for h in hyps], dtype=np.int64)
        nh = len(hyps)
        hid_cycle = np.asarray(hyps, dtype=object)
        outcomes = outcomes_by_did[workload.did]
        for mid, uids, rep_grid in workload.models:
            nu = uids.shape[0]
            pgi = plan_index[(workload.did, mid, uids.tobytes())]
            for mi in range(n_measures):
                outcome = outcomes[pgi * n_measures + mi]
                result = outcome.result
                unit_scores = result.unit_scores[:, hcols].T.reshape(-1)
                if result.group_scores is None:  # independent measures
                    group_scores = unit_scores
                else:
                    group_scores = np.repeat(result.group_scores[hcols], nu)
                emit("uid", np.tile(uids, nh))
                emit("hid", np.repeat(hid_cycle, nu))
                emit("mid", _fill_object(nu * nh, mid))
                emit("score_id", _fill_object(nu * nh,
                                              outcome.measure.score_id))
                emit("group_score", group_scores.astype(np.float64))
                emit("unit_score", unit_scores.astype(np.float64))
                for qname, arr in cols.items():
                    chunks[qname].append(arr[rep_grid])
    # parts of one column share a dtype (np.concatenate keeps object dtype)
    return {qname: np.concatenate(parts)
            for qname, parts in chunks.items()}


def _fill_object(n: int, value) -> np.ndarray:
    out = np.empty(n, dtype=object)
    out[:] = value
    return out
