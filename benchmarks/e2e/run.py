"""The benchmark's one command.

Contract form (what ``BENCHMARK.json`` names; one workload, last output
line is one JSON object)::

    python3 benchmarks/e2e/run.py --workload warm_mix --seed 0 \\
        --seconds 20 --trace 0

Everything at once, by name with unit and sample count, one record
appended to a file::

    PYTHONPATH=src python -m benchmarks.e2e.run --workload all --traced \\
        --out record.jsonl

``--trace 0`` reports the end-to-end metrics (spans off), ``--trace 1`` the
per-layer metrics of the traced run, ``--traced`` runs both.  ``--smoke``
swaps in tiny inputs and a one-second time box to exercise every path.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("benchmarks/e2e: this checkout has no src/repro to measure")
sys.path.insert(0, str(_ROOT / "src"))
# One BLAS thread in the harness and everything it launches, set before
# numpy loads: the library's thread scheduler already uses the cores, and
# on a small shared host BLAS threads spinning for a descheduled vCPU were
# the largest source of run-to-run spread.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
if __package__ in (None, ""):       # run as a script, not with -m
    import importlib
    sys.path.insert(0, str(_ROOT))
    importlib.import_module("benchmarks.e2e")
    __package__ = "benchmarks.e2e"

from . import spec  # noqa: E402
from .hostinfo import (child_env, fingerprint, live_processes,  # noqa: E402
                       scrub_environment)
from .measure import median, p90  # noqa: E402
from .prepare import run_setup  # noqa: E402

RUNS_DIR = spec.REPO_ROOT / ".bench_e2e"
#: the contract's hard limit per run is 180 s
WORKER_TIMEOUT_S = 150
SMOKE_SECONDS = 1
#: what a finished run keeps of its directory
_KEEP = {spec.RESULT, spec.TRACE, "job.json", "server.log"}


def _run_worker(job_path: Path, env: dict) -> None:
    """Run the worker in its own process group; whatever it leaves behind
    is killed, and leaving anything behind fails the run."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.worker", str(job_path)],
        cwd=spec.REPO_ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        leftovers = live_processes(group=proc.pid)
        if leftovers:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if code is None:
        raise SystemExit(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise SystemExit(f"worker failed with exit status {code}")
    if leftovers:
        raise SystemExit(f"processes outlived the worker: {leftovers}")


def run_workload(workload: str, scale: spec.Scale, seed: int,
                 seconds: float, traced: bool, replay: bool = True) -> dict:
    """Set up, run one worker, and return its result plus the set-up time.

    The run directory is the workload's and mode's, overwritten by the next
    such run.  ``replay=False`` skips the by-parts replay of a traced run
    (it does not depend on the workload, so ``--workload all`` runs it
    once)."""
    rundir = RUNS_DIR / f"{workload}-t{int(traced)}"
    if rundir.exists():
        shutil.rmtree(rundir)
    rundir.mkdir(parents=True)
    inputs_dir = rundir / "inputs"
    try:
        setup = run_setup(workload, scale, seed, inputs_dir)
        job_path = rundir / "job.json"
        job_path.write_text(json.dumps({
            "workload": workload, "scale": scale.name, "seed": seed,
            "seconds": seconds, "traced": traced, "replay": replay,
            "inputs_dir": str(inputs_dir)}), encoding="utf-8")
        env = child_env(rundir / "tmp", E2E_SCALE=scale.name,
                        E2E_SEED=str(seed), E2E_INPUTS_DIR=str(inputs_dir))
        _run_worker(job_path, env)
        result = json.loads((rundir / spec.RESULT).read_text(encoding="utf-8"))
    finally:
        for entry in rundir.iterdir():
            if entry.name not in _KEEP:
                shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
    result["setup_s"] = setup.scaled_s
    result["setup_raw_s"] = setup.raw_s
    result["rundir"] = str(rundir)
    return result


def end_to_end(result: dict) -> dict:
    """All ten end-to-end metrics of one untraced result; a percentile
    with too few samples behind it is None.  Every time is scaled to the
    reference host speed (``measure.probe``); ``raw_times`` has the wall
    clock's reading."""
    inspect_ms = result["inspect_scaled_ms"]
    select_ms = result["select_scaled_ms"]
    return {
        # set-up proper plus the worker's untimed preparation
        "setup_s": result["setup_s"] + result["prep_s"],
        "inspect_p50_ms": median(inspect_ms),
        "inspect_p90_ms": p90(inspect_ms),
        "select_p50_ms": median(select_ms) if select_ms else None,
        "select_p90_ms": p90(select_ms),
        # closed loops: statements per second spent in statements; the
        # open loop: per second from the first due time to the last reply
        "stmts_per_s": (len(inspect_ms) + len(select_ms)) / result["busy_s"],
        "failed_share": result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
        "forward_blocks_per_stmt": (
            result["forward_blocks"] / len(inspect_ms)),
        "store_bytes_per_behavior_byte": result["info"].get(
            "store_bytes_per_behavior_byte"),
    }


def raw_times(result: dict) -> dict:
    """The wall clock's reading of the times ``end_to_end`` scales."""
    return {"setup_s": result["setup_raw_s"] + result["prep_raw_s"],
            "inspect_p50_ms": median(result["inspect_ms"]),
            "select_p50_ms": (median(result["select_ms"])
                              if result["select_ms"] else None)}


def _sample_count(name: str, result: dict) -> int:
    if name.startswith("inspect_"):
        return len(result["inspect_ms"])
    if name.startswith("select_"):
        return len(result["select_ms"])
    if name == "stmts_per_s":
        return len(result["inspect_ms"]) + len(result["select_ms"])
    if name == "failed_share":      # the warm pass counts too
        return result["attempted"]
    return 1


def _print_metrics(workload: str, title: str, metrics: dict, units: dict,
                   result: dict | None) -> None:
    print(f"\n[{workload}] {title}")
    for name, value in metrics.items():
        count = ("" if result is None
                 else f"  n={_sample_count(name, result)}")
        shown = "too few samples" if value is None else f"{value:.6g}"
        print(f"  {name:<46} {shown:>15} {units[name]:<6}{count}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=(*spec.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and its per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="run untraced, then traced, and report both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one-second time box")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="append the JSON record as one line to FILE")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cleared = scrub_environment()
    scale = spec.SCALES["smoke" if args.smoke else "base"]
    seconds = args.seconds
    if seconds is None:
        seconds = (SMOKE_SECONDS if args.smoke
                   else spec.DECLARED["run_seconds"])
    workloads = (spec.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    modes = (False, True) if args.traced else (bool(args.trace),)
    e2e_units = {**spec.END_TO_END,
                 **{name: cell[0] for name, cell in spec.ISSUE_CELLS.items()}}

    record = {"schema": 1, "time": time.time(), "scale": scale.name,
              "seconds": seconds, "host": fingerprint(args.seed, cleared),
              "workloads": {}}
    last_line = {}
    replayed = False
    for workload in workloads:
        entry = record["workloads"].setdefault(workload, {})
        for traced in modes:
            result = run_workload(workload, scale, args.seed, seconds,
                                  traced, replay=not replayed)
            if traced:
                # every declared name, when this run made the replay
                names = (spec.PER_LAYER if not replayed
                         else result["per_layer"])
                replayed = True
                metrics = {name: result["per_layer"][name] for name in names}
                entry["per_layer"] = metrics
                entry["trace"] = str(Path(result["rundir"]) / spec.TRACE)
                _print_metrics(workload, "per-layer metrics (traced run)",
                               metrics, spec.PER_LAYER, None)
                units = spec.PER_LAYER
            else:
                values = end_to_end(result)
                metrics = {name: values[name] for name in spec.END_TO_END}
                extras = {name: values[name]
                          for name, cell in spec.ISSUE_CELLS.items()
                          if workload in cell[2]}
                entry.update({
                    "end_to_end": metrics, "issue_metrics": extras,
                    "wall_clock": raw_times(result),
                    "n_inspect": len(result["inspect_ms"]),
                    "n_select": len(result["select_ms"]),
                    "setup_s": result["setup_s"],
                    "prep_s": result["prep_s"],
                    "schedulers": result["schedulers"],
                    "info": result["info"]})
                _print_metrics(workload, "end-to-end metrics (spans off)",
                               {**metrics, **extras}, e2e_units, result)
                print(f"  scheduler resolved by the sessions: "
                      f"{', '.join(result['schedulers']) or 'server default'}")
                print(f"  unscaled wall clock: "
                      f"{json.dumps(entry['wall_clock'])}")
                if result["info"]:
                    print(f"  also recorded: {json.dumps(result['info'])}")
                units = e2e_units
            entry.setdefault("failures", []).extend(result["failures"])
            for line in result["failures"]:
                print(f"  FAILED {line}")
            last_line = {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()}}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    if len(workloads) == 1:
        print(json.dumps(last_line))
    else:
        failed = sum(len(e["failures"])
                     for e in record["workloads"].values())
        print(json.dumps({"workloads": list(workloads), "failed": failed,
                          "record": args.out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
