"""MADLib: the in-RDBMS DNI baseline (Section 5.1.1 / Figure 5).

An external process extracts unit and hypothesis behaviors and materializes
them as dense relations ``unitsb_dense(symbolid, u0..uN)`` and
``hyposb_dense(symbolid, h0..hM)``.  A driver then

* computes correlations with batched ``SELECT corr(u_i, h_j), ...`` queries,
  each limited to the engine's 1,600-expression target list, so computing
  all |U| x |H| pairs costs ``ceil(|U||H| / 1600)`` joins + full scans; and
* trains one logistic-regression UDA per hypothesis, each performing one
  full scan of the behavior relation per gradient pass.

The ``db.full_scans`` counter exposes the pass count the paper reports
("up to 121 passes over the behavior relations").
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset
from repro.db.engine import MAX_EXPRESSIONS, Database
from repro.db.executor import JoinSpec, SelectItem, SelectQuery, execute_select
from repro.db.expr import AggregateRef, Column
from repro.db.madlib import logregr_f1, logregr_train
from repro.extract.base import Extractor, HypothesisExtractor
from repro.extract.rnn import RnnActivationExtractor
from repro.hypotheses.base import HypothesisFunction
from repro.measures.base import MeasureResult
from repro.util.trace import span


class MadlibRunner:
    """Drives the mini relational engine through the paper's baseline plan.

    ``engine`` selects the execution engine for the correlation queries and
    the training UDAs: ``"columnar"`` (the engine default) vectorizes each
    batched query, ``"row"`` reproduces the paper's row-at-a-time RDBMS
    cost profile.  The query plan -- batching, join and pass structure --
    is identical either way.
    """

    def __init__(self, extractor: Extractor | None = None,
                 batch_limit: int = MAX_EXPRESSIONS,
                 logreg_iters: int = 4,
                 engine: str | None = None):
        self.extractor = extractor or RnnActivationExtractor()
        self.batch_limit = min(batch_limit, MAX_EXPRESSIONS)
        self.logreg_iters = logreg_iters
        self.engine = engine
        self.db = Database()

    # ------------------------------------------------------------------
    def load(self, model, dataset: Dataset,
             hypotheses: list[HypothesisFunction]) -> tuple[int, int]:
        """Extract behaviors and materialize the dense relations."""
        with span("unit_extraction"):
            units = self.extractor.extract(model, dataset.symbols)
        with span("hypothesis_extraction"):
            hyps = HypothesisExtractor(hypotheses).extract(dataset)

        n_units, n_hyps = units.shape[1], hyps.shape[1]
        with span("load"):
            unit_cols = ["symbolid"] + [f"u{i}" for i in range(n_units)]
            hyp_cols = ["symbolid"] + [f"h{j}" for j in range(n_hyps)]
            self.db.create_table(
                "unitsb_dense", unit_cols,
                ([i, *row] for i, row in enumerate(units.tolist())),
                replace=True)
            self.db.create_table(
                "hyposb_dense", hyp_cols,
                ([i, *row] for i, row in enumerate(hyps.tolist())),
                replace=True)
            # combined relation for the training UDAs (dep + indep columns)
            combined_cols = unit_cols + [f"h{j}" for j in range(n_hyps)]
            self.db.create_table(
                "behaviors", combined_cols,
                ([i, *u_row, *h_row] for i, (u_row, h_row)
                 in enumerate(zip(units.tolist(), hyps.tolist()))),
                replace=True)
        return n_units, n_hyps

    # ------------------------------------------------------------------
    def run_correlation(self, model, dataset: Dataset,
                        hypotheses: list[HypothesisFunction]
                        ) -> MeasureResult:
        n_units, n_hyps = self.load(model, dataset, hypotheses)

        pairs = [(i, j) for i in range(n_units) for j in range(n_hyps)]
        scores = np.zeros((n_units, n_hyps))
        with span("inspection"):
            for start in range(0, len(pairs), self.batch_limit):
                batch = pairs[start:start + self.batch_limit]
                items = [SelectItem(
                    expr=AggregateRef("corr", [Column(f"U.u{i}"),
                                               Column(f"H.h{j}")]),
                    alias=f"c_{i}_{j}") for i, j in batch]
                query = SelectQuery(
                    items=items, table="unitsb_dense", alias="U",
                    joins=[JoinSpec(table="hyposb_dense", alias="H",
                                    left_col="U.symbolid",
                                    right_col="H.symbolid")])
                rows = execute_select(self.db, query, engine=self.engine)
                for i, j in batch:
                    val = rows[0][f"c_{i}_{j}"]
                    scores[i, j] = 0.0 if val is None else val
        return MeasureResult(unit_scores=scores, group_scores=None,
                             n_rows_seen=len(self.db.table("unitsb_dense")),
                             converged=True)

    # ------------------------------------------------------------------
    def run_logreg(self, model, dataset: Dataset,
                   hypotheses: list[HypothesisFunction]) -> MeasureResult:
        n_units, n_hyps = self.load(model, dataset, hypotheses)
        indep_cols = [f"u{i}" for i in range(n_units)]
        coef_matrix = np.zeros((n_units, n_hyps))
        f1_scores = np.zeros(n_hyps)
        with span("inspection"):
            for j in range(n_hyps):
                weights = logregr_train(
                    self.db, "behaviors", f"coef_h{j}", dep_col=f"h{j}",
                    indep_cols=indep_cols, max_iter=self.logreg_iters,
                    engine=self.engine)
                coef_matrix[:, j] = weights[:-1]
                f1_scores[j] = logregr_f1(self.db, "behaviors", f"coef_h{j}",
                                          dep_col=f"h{j}",
                                          indep_cols=indep_cols,
                                          engine=self.engine)
        return MeasureResult(unit_scores=coef_matrix, group_scores=f1_scores,
                             n_rows_seen=len(self.db.table("behaviors")),
                             converged=True)
