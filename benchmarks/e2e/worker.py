"""One workload run in a fresh interpreter (own peak RSS, no shared module
state): ``python -m benchmarks.e2e.worker JOB.json``.

Reads the job the harness wrote, runs the workload (and, for a traced
job, the by-parts replay), writes ``result.json`` beside the job.  Exit
status 3 means a regime self-check failed, 4 that a child process
outlived the workload; both void the run.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

from . import replay, spec
from .hostinfo import live_processes
from .measure import RegimeError, Samples
from .prepare import load_references
from .workloads import RUNNERS, Context


def _peak_rss_mb(ctx: Context) -> float:
    """Peak RSS of this process plus its largest waited-for child; for the
    served workload, the server process's high-water mark instead."""
    if "server_peak_rss_mb" in ctx.info:
        return ctx.info["server_peak_rss_mb"]
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv: list[str]) -> int:
    job_path = Path(argv[0])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    rundir = job_path.parent
    inputs_dir = Path(job["inputs_dir"])
    ctx = Context(
        workload=job["workload"], scale=spec.SCALES[job["scale"]],
        seed=job["seed"], seconds=job["seconds"], traced=job["traced"],
        rundir=rundir, inputs_dir=inputs_dir,
        references=load_references(inputs_dir))
    samples = Samples()
    per_layer = None
    try:
        RUNNERS[ctx.workload](ctx, samples)
        peak_rss_mb = _peak_rss_mb(ctx)
        if ctx.traced:
            per_layer = replay.run(ctx) if job["replay"] else {}
            per_layer["extract.forward_blocks_per_stmt"] = (
                samples.forward_blocks / max(1, len(samples.inspect_ms)))
            ctx.recorder.write_jsonl(rundir / spec.TRACE)
    except RegimeError as exc:
        print(f"regime self-check failed: {exc}", file=sys.stderr)
        return 3
    stragglers = live_processes(parent=os.getpid())
    if stragglers:
        print(f"child processes outlived the workload: {stragglers}",
              file=sys.stderr)
        return 4

    result = {
        "workload": ctx.workload, "traced": ctx.traced,
        "inspect_ms": samples.inspect_ms, "select_ms": samples.select_ms,
        "inspect_scaled_ms": samples.inspect_scaled_ms,
        "select_scaled_ms": samples.select_scaled_ms,
        "attempted": samples.attempted, "failed": samples.failed,
        "failures": samples.failures, "busy_s": samples.busy_s,
        "forward_blocks": samples.forward_blocks,
        "prep_s": ctx.prep.scaled_s, "prep_raw_s": ctx.prep.raw_s,
        "peak_rss_mb": peak_rss_mb,
        "schedulers": sorted(ctx.schedulers), "info": ctx.info,
        "per_layer": per_layer,
    }
    (rundir / spec.RESULT).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
