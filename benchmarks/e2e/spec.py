"""Fixed parameters of the benchmark: scales, statements, mixes.

Everything a comparison depends on is a constant here; the workload and
metric names, units, directions and bounds are read from the root
``BENCHMARK.json``, the one place that lists them.  Only the seed and the
measuring time are command-line arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: files a run leaves in its directory under ``.bench_e2e/``
RESULT = "result.json"
TRACE = "trace.jsonl"

#: records per behaviour block (the library default, ``InspectConfig.block_size``)
BLOCK = 512
#: dataset windowing and the training schedule of the checkpoints
WINDOW, STRIDE = 30, 5
BATCH_SIZE, LR = 128, 3e-3


@dataclass(frozen=True)
class Scale:
    """One input size.  ``base`` is what BENCHMARK.json measures."""

    name: str
    n_queries: int
    #: the dataset is cut to exactly this many records so that block counts
    #: (and with them every extraction counter) do not depend on the seed
    max_records: int | None
    n_units: int
    n_checkpoints: int
    #: workload -> iterations (mixes: statements) of its traced run
    traced_counts: dict
    #: the traced run's server sweep: seconds per offered rate, and the
    #: statements of its closed loop
    sweep_seconds: float
    closed_loop_statements: int

    @property
    def unit_cuts(self) -> tuple[int, int, int]:
        """The ``U.uid < h`` thresholds of ``inspect_topk``."""
        return (self.n_units // 4, self.n_units // 2, self.n_units)


SCALES = {
    "base": Scale("base", n_queries=80, max_records=1024, n_units=32,
                  n_checkpoints=4,
                  traced_counts={"cold_sweep": 2, "cold_store": 2,
                                 "disk_warm": 4, "warm_mix": 40,
                                 "served_mix": 20},
                  sweep_seconds=1.5, closed_loop_statements=30),
    "smoke": Scale("smoke", n_queries=20, max_records=None, n_units=16,
                   n_checkpoints=2,
                   traced_counts={"cold_sweep": 1, "cold_store": 1,
                                  "disk_warm": 1, "warm_mix": 10,
                                  "served_mix": 10},
                   sweep_seconds=0.4, closed_loop_statements=10),
}

DECLARED = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
#: the contract's metrics, name -> unit
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

#: open-loop offered rate of ``served_mix`` (statements per second); about
#: a third of the closed-loop saturation measured on the authoring host
SERVED_RATE = 10.0
#: rates of the traced run's open-loop sweep, and its latency limit
SWEEP_RATES = (5, 10, 15)
SWEEP_P90_LIMIT_MS = 500.0

# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
_FROM = ("FROM models M, units U, hypotheses H, inputs D "
         "WHERE M.mid = U.mid")
_EPOCH_COLS = ("SELECT M.epoch AS epoch, S.uid AS uid, S.hid AS hid, "
               "S.unit_score AS unit_score")
_CORR = "INSPECT U.uid AND H.h USING corr OVER D.seq AS S"
LOGREG_KEYWORDS = ("SELECT", "FROM", "WHERE")


def statements(scale: Scale) -> dict[str, str]:
    """Every named statement of the benchmark at ``scale``."""
    last = scale.n_checkpoints - 1
    out = {
        "inspect_epoch": f"{_EPOCH_COLS} {_CORR} {_FROM} GROUP BY M.epoch",
        "inspect_one": (f"{_EPOCH_COLS} {_CORR} {_FROM} "
                        f"AND M.epoch = {last} GROUP BY M.epoch"),
        "inspect_into": (f"{_EPOCH_COLS} INTO scores {_CORR} {_FROM} "
                         "GROUP BY M.epoch"),
        "select_topk": ("SELECT uid, hid, unit_score FROM scores "
                        "WHERE unit_score > 0.2 "
                        "ORDER BY unit_score DESC LIMIT 20"),
        "select_filter": ("SELECT epoch, hid, unit_score FROM scores "
                          "WHERE uid = 7"),
        "select_catalog": "SELECT mid FROM models",
    }
    for e in range(scale.n_checkpoints):
        out[f"inspect_multi[{e}]"] = (
            "SELECT S.uid AS uid, S.hid AS hid, S.score_id AS score_id, "
            "S.unit_score AS unit_score INSPECT U.uid AND H.h "
            f"USING corr, diff_means, jaccard OVER D.seq AS S {_FROM} "
            f"AND M.epoch = {e}")
        for h in scale.unit_cuts:
            for limit in (10, 20):
                out[f"inspect_topk[{e},{h},{limit}]"] = (
                    "SELECT S.uid AS uid, S.hid AS hid, "
                    f"S.unit_score AS unit_score {_CORR} {_FROM} "
                    f"AND M.epoch = {e} AND U.uid < {h} "
                    f"ORDER BY S.unit_score DESC LIMIT {limit}")
    for kw in LOGREG_KEYWORDS:
        out[f"inspect_logreg[{kw}]"] = (
            "SELECT S.hid AS hid, S.group_score AS group_score "
            "INSPECT U.uid AND H.h USING logreg_l1 OVER D.seq AS S "
            f"{_FROM} AND M.epoch = {last} AND H.h = 'kw:{kw}'")
    return out


#: statements per 100 of ``warm_mix``: 40 SELECT + 60 INSPECT.  INSPECT p50
#: falls inside the ``inspect_topk`` mass (60 %) and p90 inside the
#: ``inspect_multi`` mass (80-95 %); SELECT p50 inside ``select_topk`` and
#: p90 inside ``select_filter`` — never on a class boundary.
WARM_MIX = {"select_topk": 20, "select_filter": 15, "select_catalog": 5,
            "inspect_topk": 36, "inspect_epoch": 9, "inspect_multi": 9,
            "inspect_into": 3, "inspect_logreg": 3}
#: statements per 20 of ``served_mix``; ``inspect_multi`` is 21 % of the
#: INSPECTs, so their p90 sits in the middle of its mass
SERVED_MIX = {"inspect_topk": 11, "inspect_multi": 3, "select_topk": 6}

#: what the warm pass of a mix executes first (``inspect_into`` creates the
#: ``scores`` table every SELECT reads), then every other distinct statement
MIX_FIRST = ("inspect_into",)


def is_inspect(name: str) -> bool:
    return name.startswith("inspect_")


def distinct_statements(scale: Scale, mix: dict[str, int]) -> list[str]:
    """Every statement name a mix can draw, ``inspect_into`` first."""
    names = [n for n in statements(scale)
             if n.split("[")[0] in mix and n not in MIX_FIRST]
    return list(MIX_FIRST) + names


def draw_mix(scale: Scale, mix: dict[str, int], cycles: int,
             rng: np.random.Generator, first_cycle: int = 0) -> list[str]:
    """``cycles`` shuffled copies of the mix.

    Each cycle holds exactly the class counts of ``mix``, and a class's
    parametrised members are taken round-robin (continuing from cycle to
    cycle), so which statements run never depends on the seed — only their
    order does, and percentiles always see the same class shares.
    """
    by_class: dict[str, list[str]] = {}
    for name in statements(scale):
        by_class.setdefault(name.split("[")[0], []).append(name)
    out: list[str] = []
    for c in range(first_cycle, first_cycle + cycles):
        cycle = [by_class[cls][(c * count + i) % len(by_class[cls])]
                 for cls, count in mix.items() for i in range(count)]
        rng.shuffle(cycle)
        out += cycle
    return out


#: the ISSUE's end-to-end cells the contract cannot carry (every contract
#: metric is emitted by every workload and is never 0): name -> (unit,
#: better, {workload it is reported on: bound}).  They are printed,
#: recorded, and judged by ``compare.py`` beside the contract's metrics.
#: A bound of None means reported, not judged: two sets of the same code
#: differed by more than any bound there (README, "The spread that set
#: each bound").
_COLD_AND_WARM = ("cold_sweep", "cold_store", "disk_warm", "warm_mix")
ISSUE_CELLS = {
    "inspect_p90_ms": ("ms", "lower", {"warm_mix": 0.15, "served_mix": None}),
    "select_p50_ms": ("ms", "lower", {"warm_mix": 0.15, "served_mix": None}),
    "select_p90_ms": ("ms", "lower", {"warm_mix": 0.15}),
    "stmts_per_s": ("1/s", "higher", {"warm_mix": 0.10}),
    "failed_share": ("ratio", "lower", dict.fromkeys(WORKLOADS, 0.0)),
    "forward_blocks_per_stmt": ("count", "exact",
                                dict.fromkeys(_COLD_AND_WARM, 0.0)),
    # the manifest's length varies by a few bytes
    "store_bytes_per_behavior_byte": ("ratio", "lower",
                                      {"cold_store": 0.001}),
}

#: ``pipeline.default_scheduler*`` report the class as a code
SCHEDULER_CODES = {"SerialScheduler": 1, "ThreadPoolScheduler": 2,
                   "ProcessPoolScheduler": 3}
