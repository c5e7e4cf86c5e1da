"""``--setup`` script of the served workload's ``python -m repro serve``.

Executed by the CLI with the open ``session`` in its globals; registers the
same objects every in-process workload registers.  The harness names the
inputs through the environment (the CLI has no other channel).
"""

import os
from pathlib import Path

from benchmarks.e2e.inputs import fresh_objects, register_all
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.spec import SCALES

register_all(
    session,  # noqa: F821 - injected by ``python -m repro serve --setup``
    fresh_objects(SCALES[os.environ["E2E_SCALE"]],
                  int(os.environ["E2E_SEED"]),
                  Path(os.environ["E2E_INPUTS_DIR"])),
    SpanRecorder(enabled=False))
