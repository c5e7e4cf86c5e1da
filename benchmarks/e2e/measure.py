"""Sample bookkeeping shared by the workloads: timing, the host-speed probe,
digests, percentiles."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.server.protocol import jsonable

from .spec import is_inspect


class RegimeError(RuntimeError):
    """The workload did not run in the temperature regime it names; the
    run is void (this is a failed run, not a metric)."""


def frame_digest(frame) -> str:
    """Content hash of a frame: column order, row order and every bit.

    JSON text round-trips finite floats exactly and spells NaN one way, so
    equal digests mean bit-identical frames (``Frame.__eq__`` would call
    two NaN scores different).
    """
    text = json.dumps([frame.columns,
                       [jsonable(frame[c]) for c in frame.columns]])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def frame_reference(frame) -> dict:
    return {"rows": len(frame), "digest": frame_digest(frame)}


def dir_bytes(path: Path) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


def median(values) -> float:
    return float(statistics.median(values))


#: a 90th percentile needs ten samples beyond it
P90_MIN_SAMPLES = 100


def p90(values) -> float | None:
    """The 90th percentile, or None below ``P90_MIN_SAMPLES`` values."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), 90))


# ----------------------------------------------------------------------
# the host-speed probe
# ----------------------------------------------------------------------
#: What one probe reads on the authoring host in its fast state.  A timing
#: multiplied by ``PROBE_REFERENCE_MS / probe`` is "milliseconds at that
#: host speed"; the constant only fixes the scale, it cancels in every
#: comparison.
PROBE_REFERENCE_MS = 1.0
#: probes taken in a row around anything longer than a warm statement
PROBE_BURST = 8

_PROBE_MATRIX = np.random.default_rng(0).standard_normal((128, 128))
_PROBE_VECTOR = np.random.default_rng(1).standard_normal(60_000)


def probe() -> float:
    """Milliseconds a fixed piece of interpreter and numpy work takes now.

    The benchmark's hosts are a few vCPUs of a shared machine whose speed
    moves by a third for seconds to minutes at a time; the same code then
    reads a third slower, whole runs long.  The probe is the same work
    every time and shares no code with ``src/``, so the ratio of a
    statement's time to the probe taken next to it keeps what the program
    did and drops what the host did (README, "The host-speed probe").
    """
    start = time.perf_counter()
    total = 0
    for i in range(8000):
        total += i * i
    for _ in range(4):
        _PROBE_MATRIX @ _PROBE_MATRIX
    np.argsort(np.exp(_PROBE_VECTOR)[:8000])
    return (time.perf_counter() - start) * 1e3


def probe_burst() -> list:
    return [probe() for _ in range(PROBE_BURST)]


class ScaledClock:
    """Wall time of untimed-region work (set-up, preparation), summed
    phase by phase, each phase scaled by the probes around it."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0

    @contextmanager
    def phase(self):
        before = probe_burst()
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        host_ms = median(before + probe_burst())
        self.raw_s += elapsed
        self.scaled_s += elapsed * PROBE_REFERENCE_MS / host_ms


def timed(fn, *args):
    """``(seconds, result, error)`` of one call.  Every callee used here
    returns a materialised frame, so the work is inside the timed region."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    # a failed statement is a counted outcome, reported by the caller
    except Exception as exc:  # repro: allow[REP005]
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


@dataclass
class Samples:
    """What one workload run collected."""

    #: per statement: wall milliseconds, and the same scaled to the
    #: reference host speed by the probe taken next to the statement
    inspect_ms: list = field(default_factory=list)
    select_ms: list = field(default_factory=list)
    inspect_scaled_ms: list = field(default_factory=list)
    select_scaled_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: one line per failed statement, never masked
    failures: list = field(default_factory=list)
    #: time the statements were measured over (closed loops: the sum of
    #: scaled statement times; the open loop: first due time to last reply)
    busy_s: float = 0.0
    #: forward blocks (``unit_cache.extractions``) the INSPECTs caused
    forward_blocks: int = 0
    #: frames waiting for their digest check (done outside timed regions)
    pending: list = field(default_factory=list)

    def add(self, name: str, elapsed_s: float, frame, error,
            host_ms: float = PROBE_REFERENCE_MS) -> None:
        """Record one timed statement and the probe reading that goes with
        it; its frame is checked later."""
        self.attempted += 1
        scale = PROBE_REFERENCE_MS / host_ms
        self.busy_s += elapsed_s * scale
        if error is not None:
            self.failed += 1
            self.failures.append(f"{name}: {error!r}")
            return
        ms = elapsed_s * 1e3
        raw, scaled = ((self.inspect_ms, self.inspect_scaled_ms)
                       if is_inspect(name)
                       else (self.select_ms, self.select_scaled_ms))
        raw.append(ms)
        scaled.append(ms * scale)
        self.pending.append((name, frame))

    def check_frames(self, references: dict) -> None:
        """Compare every pending frame with the serial reference."""
        for name, frame in self.pending:
            got = frame_reference(frame)
            if got != references[name]:
                self.failed += 1
                self.failures.append(
                    f"{name}: frame differs from the serial reference "
                    f"({got['rows']} rows, reference "
                    f"{references[name]['rows']})")
        self.pending.clear()
