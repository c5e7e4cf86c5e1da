"""PyBase: the naive Python DNI baseline (Section 5.1.2 / Figure 5).

What a careful ML engineer writes without a system: extract everything,
then loop.  Correlation is computed pair-by-pair with ``np.corrcoef``;
logistic-regression probes are trained one hypothesis at a time.  All
optimizations of Section 5.2 are deliberately absent.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset
from repro.extract.base import Extractor, HypothesisExtractor
from repro.extract.rnn import RnnActivationExtractor
from repro.hypotheses.base import HypothesisFunction
from repro.measures.base import MeasureResult
from repro.measures.logreg import LogRegressionScore
from repro.util.trace import span


class PyBaseRunner:
    """Full-materialization, per-pair/per-hypothesis execution."""

    def __init__(self, extractor: Extractor | None = None,
                 logreg_epochs: int = 4, cv_folds: int = 5):
        self.extractor = extractor or RnnActivationExtractor()
        self.logreg_epochs = logreg_epochs
        self.cv_folds = cv_folds

    # ------------------------------------------------------------------
    def materialize(self, model, dataset: Dataset,
                    hypotheses: list[HypothesisFunction]
                    ) -> tuple[np.ndarray, np.ndarray]:
        with span("unit_extraction"):
            units = self.extractor.extract(model, dataset.symbols)
        with span("hypothesis_extraction"):
            hyps = HypothesisExtractor(hypotheses).extract(dataset)
        return units, hyps

    # ------------------------------------------------------------------
    def run_correlation(self, model, dataset: Dataset,
                        hypotheses: list[HypothesisFunction]
                        ) -> MeasureResult:
        """Per-pair Pearson correlation, the way one-off scripts do it."""
        units, hyps = self.materialize(model, dataset, hypotheses)
        n_units, n_hyps = units.shape[1], hyps.shape[1]
        scores = np.zeros((n_units, n_hyps))
        with span("inspection"):
            for i in range(n_units):
                u = units[:, i]
                for j in range(n_hyps):
                    h = hyps[:, j]
                    if u.std() < 1e-12 or h.std() < 1e-12:
                        continue
                    scores[i, j] = np.corrcoef(u, h)[0, 1]
        return MeasureResult(unit_scores=scores, group_scores=None,
                             n_rows_seen=units.shape[0], converged=True)

    # ------------------------------------------------------------------
    def run_logreg(self, model, dataset: Dataset,
                   hypotheses: list[HypothesisFunction],
                   regul: str = "L1") -> MeasureResult:
        """One independently trained probe per hypothesis (no merging)."""
        units, hyps = self.materialize(model, dataset, hypotheses)
        measure = LogRegressionScore(regul=regul, epochs=self.logreg_epochs,
                                     cv_folds=self.cv_folds, merged=False)
        with span("inspection"):
            result = measure.compute(units, hyps)
        return result
