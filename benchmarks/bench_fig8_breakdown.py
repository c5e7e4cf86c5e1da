"""Figure 8: runtime breakdown by system component.

Splits wall-clock into hypothesis-extraction, unit-extraction and inspector
costs for the ``+MM+ES`` and full-DeepBase configurations, for both
measures.  The paper's takeaway: correlation is inspector-bound, logistic
regression is extraction-bound, and DeepBase's savings come from lower
extraction costs via online extraction.
"""

from __future__ import annotations

import statistics

import pytest

from repro import InspectConfig, inspect
from repro.measures import CorrelationScore, LogRegressionScore
from repro.util.trace import tracing
from benchmarks.conftest import print_table

#: timed runs of each (measure, variant) in the breakdown report, whose
#: median extraction times the ordering compares
ROUNDS = 3


def _run(variant: str, measure, model, dataset, hyps) -> dict[str, float]:
    mode = "materialized" if variant == "mm_es" else "streaming"
    config = InspectConfig(mode=mode, early_stop=True, block_size=128)
    with tracing(variant) as root:
        inspect([model], dataset, [measure], hyps, config=config)
    return {name: total["total_s"] for name, total in root.totals().items()}


@pytest.mark.parametrize("kind", ["corr", "logreg"])
def test_fig8_deepbase(benchmark, kind, bench_model, bench_workload,
                       bench_hypotheses):
    measure = (CorrelationScore() if kind == "corr"
               else LogRegressionScore(regul="L1", epochs=1, cv_folds=2))
    benchmark.pedantic(
        lambda: _run("deepbase", measure, bench_model,
                     bench_workload.dataset, bench_hypotheses),
        rounds=1, iterations=1)


def _extraction_s(split: dict[str, float]) -> float:
    return (split.get("unit_extraction", 0)
            + split.get("hypothesis_extraction", 0))


def test_fig8_breakdown_report(benchmark, bench_model, bench_workload,
                               bench_hypotheses):
    def _report():
        rows = []
        buckets = ("hypothesis_extraction", "unit_extraction", "inspection")
        measures = {"corr": CorrelationScore(),
                    "logreg": LogRegressionScore(regul="L1", epochs=1,
                                                 cv_folds=2)}
        extraction: dict[tuple[str, str], list[float]] = {}
        # rounds interleave every (measure, variant): a slow stretch of
        # the host lands on both variants, not on one of them
        for run in range(ROUNDS):
            for kind, measure in measures.items():
                for variant in ("mm_es", "deepbase"):
                    split = _run(variant, measure, bench_model,
                                 bench_workload.dataset, bench_hypotheses)
                    extraction.setdefault((kind, variant), []).append(
                        _extraction_s(split))
                    rows.append({"run": run, "measure": kind,
                                 "variant": variant,
                                 **{b: split.get(b, 0.0) for b in buckets}})
        print_table("Figure 8: runtime breakdown (seconds)", rows)

        # DeepBase's extraction cost must not exceed the materialized one's
        for kind in measures:
            mm = statistics.median(extraction[(kind, "mm_es")])
            db = statistics.median(extraction[(kind, "deepbase")])
            assert db <= mm * 1.25, (kind, extraction)

    benchmark.pedantic(_report, rounds=1, iterations=1)
