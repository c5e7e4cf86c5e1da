"""Figure 7: optimization variants for the logistic-regression measure.

Variants (cumulative, as in the paper):
* ``+MM (CPU)``  -- model merging executed column-at-a-time ("scalar device")
* ``+MM (GPU)``  -- model merging executed as vectorized linear algebra
* ``+MM+ES``     -- merged + early stopping, behaviors fully materialized
* ``DeepBase``   -- merged + early stopping + lazy streaming extraction

The paper finds model merging provides the main benefit, early stopping on
materialized data adds little (extraction dominates), and lazy extraction
recovers the difference (up to 11x over +MM+ES).
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import InspectConfig, inspect
from repro.measures import LogRegressionScore
from benchmarks.conftest import print_table


def _measure(device: str) -> LogRegressionScore:
    return LogRegressionScore(regul="L1", device=device, epochs=1,
                              cv_folds=2)


def _run_variant(variant: str, model, dataset, hyps) -> None:
    if variant == "mm_cpu":
        config = InspectConfig(mode="materialized", early_stop=False)
        inspect([model], dataset, [_measure("cpu")], hyps, config=config)
    elif variant == "mm_gpu":
        config = InspectConfig(mode="materialized", early_stop=False)
        inspect([model], dataset, [_measure("gpu")], hyps, config=config)
    elif variant == "mm_es":
        config = InspectConfig(mode="materialized", early_stop=True)
        inspect([model], dataset, [_measure("gpu")], hyps, config=config)
    else:  # deepbase
        config = InspectConfig(mode="streaming", early_stop=True,
                               block_size=128)
        inspect([model], dataset, [_measure("gpu")], hyps, config=config)


VARIANTS = ["mm_cpu", "mm_gpu", "mm_es", "deepbase"]
#: timed runs of each variant in the report, whose medians the orderings
#: compare
ROUNDS = 3


@pytest.mark.parametrize("variant", VARIANTS)
def test_fig7_variant(benchmark, variant, bench_model, bench_workload,
                      bench_hypotheses):
    benchmark.pedantic(
        lambda: _run_variant(variant, bench_model, bench_workload.dataset,
                             bench_hypotheses),
        rounds=1, iterations=1)


def test_fig7_report(benchmark, bench_model, bench_workload, bench_hypotheses):
    def _report():
        rows = []
        runs: dict[str, list[float]] = {}
        # rounds interleave the variants: a slow stretch of the host lands
        # on all of them, not on one
        for run in range(ROUNDS):
            for variant in VARIANTS:
                t0 = time.perf_counter()
                _run_variant(variant, bench_model, bench_workload.dataset,
                             bench_hypotheses)
                runs.setdefault(variant, []).append(time.perf_counter() - t0)
                rows.append({"run": run, "variant": variant,
                             "seconds": runs[variant][-1]})
        print_table("Figure 7: logistic regression optimization variants", rows)
        timings = {variant: statistics.median(seconds)
                   for variant, seconds in runs.items()}

        # vectorized merged execution must beat the column-looped device,
        # and streaming must beat full materialization with early stopping
        assert timings["mm_gpu"] < timings["mm_cpu"], runs
        assert timings["deepbase"] <= timings["mm_es"] * 1.25, runs

    benchmark.pedantic(_report, rounds=1, iterations=1)

