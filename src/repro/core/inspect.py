"""The public declarative API: ``deepbase.inspect(...)`` (Section 4.1).

Example from the paper, adapted to this package::

    from repro import inspect
    from repro.measures import CorrelationScore, LogRegressionScore
    from repro.hypotheses import grammar_hypotheses

    scores = [CorrelationScore('pearson'),
              LogRegressionScore(regul='L1', score='F1')]
    hypotheses = grammar_hypotheses(grammar, queries, trees)
    frame = inspect([model], dataset, scores, hypotheses)

The returned :class:`repro.util.frame.Frame` has the paper's schema
``(model_id, score_id, hyp_id, h_unit_id, val)`` plus ``group_id``, ``kind``
(``unit`` or ``group`` affinity), ``n_rows_seen`` and ``converged``.
"""

from __future__ import annotations

import numpy as np

from repro.core.groups import UnitGroup, model_groups
from repro.core.pipeline import (GroupMeasureOutcome, InspectConfig,
                                 InspectionPlan)
from repro.data.datasets import Dataset
from repro.extract.base import Extractor
from repro.extract.rnn import RnnActivationExtractor
from repro.hypotheses.base import HypothesisFunction
from repro.measures.base import Measure
from repro.util.frame import Frame

#: sentinel unit id for group-level affinity rows
GROUP_ROW = -1


def inspect(models, dataset: Dataset, scores, hypotheses,
            unit_groups: list[UnitGroup] | None = None,
            extractor: Extractor | None = None,
            config: InspectConfig | None = None,
            as_frame: bool = True):
    """Run Deep Neural Inspection (DNI-General, Definition 2).

    Parameters
    ----------
    models:
        One model or a list of models; ignored when ``unit_groups`` is given
        explicitly (groups carry their models).
    dataset:
        The test set ``D`` to evaluate over.
    scores:
        One or a list of :class:`repro.measures.Measure`.
    hypotheses:
        One or a list of :class:`repro.hypotheses.HypothesisFunction`.
    unit_groups:
        Optional explicit unit groups; defaults to one all-units group per
        model.
    extractor:
        Default unit-behavior extractor (groups may override); defaults to
        :class:`RnnActivationExtractor`.
    config:
        Execution configuration (mode, early stopping, caching, block size).
    as_frame:
        When False, return the raw list of
        :class:`GroupMeasureOutcome` instead of a result frame (cheaper for
        large unit counts).

    Stateless: the call compiles one
    :class:`~repro.core.pipeline.InspectionPlan` from ``config`` exactly as
    given and executes it — no caches or pools are created behind the
    caller's back.  Long-lived workloads should hold a
    :class:`repro.session.Session` instead — repeated queries then share
    extraction through its caches.
    """
    if isinstance(scores, Measure):
        scores = [scores]
    if isinstance(hypotheses, HypothesisFunction):
        hypotheses = [hypotheses]
    if extractor is None:
        extractor = RnnActivationExtractor()
    if unit_groups is None:
        unit_groups = model_groups(models, extractor)
    outcomes = InspectionPlan.build(
        list(unit_groups), dataset, list(scores), list(hypotheses),
        extractor, config or InspectConfig()).execute()
    return outcomes_to_frame(outcomes) if as_frame else outcomes


def outcomes_to_frame(outcomes: list[GroupMeasureOutcome]) -> Frame:
    """Flatten outcomes into the paper's result schema.

    Row order per outcome is hypothesis-major: the hypothesis's unit rows
    followed by its group row (for joint measures).  Columns are assembled
    with numpy repeat/tile instead of a per-(unit, hypothesis) Python loop.
    """
    model_ids: list[str] = []
    group_ids: list[str] = []
    score_ids: list[str] = []
    hyp_ids: list[str] = []
    unit_ids: list[int] = []
    vals: list[float] = []
    kinds: list[str] = []
    rows_seen: list[int] = []
    converged: list[bool] = []

    for outcome in outcomes:
        group = outcome.group
        result = outcome.result
        names = np.asarray(outcome.hypothesis_names, dtype=object)
        n_units, n_hyps = result.unit_scores.shape
        unit_idx = np.asarray(group.unit_ids, dtype=np.int64)
        col_rows = (result.col_rows_seen if result.col_rows_seen is not None
                    else np.full(n_hyps, result.n_rows_seen, dtype=np.int64))
        col_conv = (result.col_converged if result.col_converged is not None
                    else np.full(n_hyps, result.converged, dtype=bool))

        if result.group_scores is None:
            per_hyp = n_units
            val_matrix = result.unit_scores
            unit_cycle = unit_idx
            kind_cycle = ["unit"] * n_units
        else:
            per_hyp = n_units + 1
            val_matrix = np.concatenate(
                [result.unit_scores, result.group_scores[None, :]], axis=0)
            unit_cycle = np.concatenate([unit_idx, [GROUP_ROW]])
            kind_cycle = ["unit"] * n_units + ["group"]

        n_rows = per_hyp * n_hyps
        model_ids += [group.model_id] * n_rows
        group_ids += [group.name] * n_rows
        score_ids += [outcome.measure.score_id] * n_rows
        hyp_ids += np.repeat(names, per_hyp).tolist()
        unit_ids += np.tile(unit_cycle, n_hyps).tolist()
        vals += val_matrix.T.reshape(-1).astype(float).tolist()
        kinds += kind_cycle * n_hyps
        rows_seen += np.repeat(np.asarray(col_rows, dtype=np.int64),
                               per_hyp).tolist()
        converged += np.repeat(np.asarray(col_conv, dtype=bool),
                               per_hyp).tolist()

    return Frame({
        "model_id": model_ids,
        "group_id": group_ids,
        "score_id": score_ids,
        "hyp_id": hyp_ids,
        "h_unit_id": unit_ids,
        "val": vals,
        "kind": kinds,
        "n_rows_seen": rows_seen,
        "converged": converged,
    })


def top_units(frame: Frame, score_id: str, hyp_id: str,
              k: int = 10, by_abs: bool = True) -> Frame:
    """Post-processing helper: the k highest-affinity units for a hypothesis."""
    sub = frame.where(score_id=score_id, hyp_id=hyp_id, kind="unit")
    if by_abs:
        abs_val = np.abs(sub.column("val", dtype=float))
        sub = sub.with_column("abs_val", abs_val.tolist())
        return sub.sort("abs_val", reverse=True).head(k)
    return sub.sort("val", reverse=True).head(k)
