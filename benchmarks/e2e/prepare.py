"""Set-up: inputs, checkpoints and reference frames for one workload.

Runs in the harness process, before the worker starts.  Reference frames
come from one serial, store-less session over never-used objects —
``early_stop=False`` for the cold / disk statements, the library-default
``InspectConfig()`` for the mix statements — and are kept as digests.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import InspectConfig, Session

from . import spec
from .inputs import fresh_objects, generate, register_all, train_checkpoints
from .measure import ScaledClock, frame_reference
from .spans import SpanRecorder

REFERENCES = "references.json"

_MIXES = {"warm_mix": spec.WARM_MIX, "served_mix": spec.SERVED_MIX}
_COLD_STATEMENT = {"cold_sweep": "inspect_epoch",
                   "cold_store": "inspect_one",
                   "disk_warm": "inspect_epoch"}


def reference_plan(workload: str, scale: spec.Scale):
    """``(statement names, config)`` the workload's references need."""
    if workload in _MIXES:
        return (spec.distinct_statements(scale, _MIXES[workload]),
                InspectConfig())
    return ([_COLD_STATEMENT[workload]],
            InspectConfig(early_stop=False))


def run_setup(workload: str, scale: spec.Scale, seed: int,
              outdir: Path) -> ScaledClock:
    """Generate, train, save and compute references; returns the clock
    that timed it (two phases, each scaled by the probes around it)."""
    clock = ScaledClock()
    with clock.phase():
        outdir.mkdir(parents=True)
        dataset_workload, _ = generate(scale, seed)
        train_checkpoints(scale, seed, dataset_workload, outdir)

    names, config = reference_plan(workload, scale)
    statements = spec.statements(scale)
    references = {}
    with clock.phase():
        with Session(scheduler="serial", config=config) as session:
            register_all(session, fresh_objects(scale, seed, outdir),
                         SpanRecorder(enabled=False))
            for name in names:
                references[name] = frame_reference(
                    session.sql(statements[name]))
        (outdir / REFERENCES).write_text(json.dumps(references),
                                         encoding="utf-8")
    return clock


def load_references(inputs_dir: Path) -> dict:
    return json.loads((inputs_dir / REFERENCES).read_text(encoding="utf-8"))
