"""Compare two sets of benchmark records, one row per (workload, metric).

    python -m benchmarks.e2e.compare A.jsonl B.jsonl

Each file holds the records ``run.py --out`` appended (one JSON object per
line; several lines make a set).  For every end-to-end metric the row shows
both medians, the ratio B/A with its base, the bound from
``BENCHMARK.json`` (``spec.ISSUE_CELLS`` for the cells the contract cannot
carry) and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but the run-to-run spread of a side (distance
  between its quartiles over its median) is wider than the bound, so "no
  change" cannot be claimed either;
* ``ok``         — neither;
* ``reported``   — the cell has no bound (``spec.ISSUE_CELLS``): shown, not
  judged.

Count metrics (``forward_blocks_per_stmt``) must agree exactly,
``failed_share`` may not increase.  The exit status is non-zero on any
``worse``.  This is also how "two sets of the same code agree" is checked.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from .spec import DECLARED, ISSUE_CELLS


def load_set(path: str) -> dict:
    """``{(workload, metric): [values]}`` over every record in ``path``."""
    values: dict = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        for workload, entry in json.loads(line)["workloads"].items():
            cells = {**entry.get("end_to_end", {}),
                     **entry.get("issue_metrics", {})}
            for metric, value in cells.items():
                if value is not None:       # a percentile short of samples
                    values.setdefault((workload, metric), []).append(value)
    return values


def spread(values: list) -> float | None:
    """Quartile distance over the median; None below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def verdict(a: list, b: list, better: str, bound: float | None) -> tuple:
    """``(ratio, verdict)`` of set B against base set A."""
    base, new = statistics.median(a), statistics.median(b)
    ratio = new / base if base else (1.0 if new == base else float("inf"))
    if bound is None:
        return ratio, "reported"
    if better == "exact":
        return ratio, "ok" if new == base else "worse"
    loss = (new - base) if better == "lower" else (base - new)
    if loss > bound * abs(base):
        return ratio, "worse"
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound and bound > 0:
        return ratio, "unresolved"
    return ratio, "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    rules = {(w["name"], m["name"]): (m["better"], m["bound"])
             for m in DECLARED["end_to_end"] for w in DECLARED["workloads"]}
    rules.update({(workload, name): (better, bound)
                  for name, (_, better, bounds) in ISSUE_CELLS.items()
                  for workload, bound in bounds.items()})
    set_a, set_b = load_set(argv[0]), load_set(argv[1])
    print(f"{'workload':<11} {'metric':<30} {'A (base)':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread A/B':>13}  verdict")
    worse = 0
    for key in sorted(set_a):
        if key not in set_b:
            continue
        workload, metric = key
        better, bound = rules[key]
        a, b = set_a[key], set_b[key]
        ratio, word = verdict(a, b, better, bound)
        worse += word == "worse"
        spreads = "/".join("n/a" if s is None else f"{s * 100:.1f}%"
                           for s in (spread(a), spread(b)))
        print(f"{workload:<11} {metric:<30} {statistics.median(a):>12.5g} "
              f"{statistics.median(b):>12.5g} {ratio:>7.3f} "
              f"{'-' if bound is None else format(bound, '.3g'):>6} "
              f"{spreads:>13}  {word}")
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
