"""The repo benchmark: five temperature-regime workloads, one schema.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` is the contract the root ``BENCHMARK.json`` names; see
``README.md`` in this directory for every workload and metric.  The legacy
``benchmarks/bench_*.py`` files are figure reproductions, not this.
"""
