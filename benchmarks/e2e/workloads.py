"""The five workloads.  Each runs in a worker process of its own.

"Cold" and "warm" are defined by counters, not by intent: after every
iteration the regime self-check reads ``Session.stats()`` (``GET /stats``
for the served one) and raises :class:`RegimeError` when an iteration that
should have extracted everything extracted less, or one that should have
extracted nothing extracted anything.  A failed self-check voids the run.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import InspectConfig, Session

from . import spec
from .inputs import Objects, fresh_objects, register_all
from .measure import (RegimeError, Samples, ScaledClock, dir_bytes, median,
                      probe, probe_burst, timed)
from .serving import ServerProcess, open_loop, server_counters
from .spans import SpanRecorder


@dataclass
class Context:
    """Everything a workload needs; built by ``worker.py`` from the job."""

    workload: str
    scale: spec.Scale
    seed: int
    #: measure for this long (untraced run) ...
    seconds: float
    #: ... or for the scale's reduced count, with spans on (traced run)
    traced: bool
    rundir: Path
    inputs_dir: Path
    references: dict
    recorder: SpanRecorder = field(default_factory=SpanRecorder)
    statements: dict = field(init=False)
    #: untimed preparation inside the worker (store population, warm pass,
    #: server start); part of ``setup_s``
    prep: ScaledClock = field(default_factory=ScaledClock)
    schedulers: set = field(default_factory=set)
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.statements = spec.statements(self.scale)
        self.recorder.enabled = self.traced

    @property
    def traced_count(self) -> int:
        return self.scale.traced_counts[self.workload]

    def fresh(self) -> Objects:
        return fresh_objects(self.scale, self.seed, self.inputs_dir)

    def iterations(self):
        """Yield iteration indices until the time box (at least once) or
        the traced run's count ends."""
        start = time.perf_counter()
        for index in itertools.count():
            if (index >= self.traced_count if self.traced
                    else index and time.perf_counter() - start >= self.seconds):
                return
            yield index

    def mix_schedule(self, mix: dict, cycle_len: int,
                     n_statements: float | None = None):
        """``(name, sql)`` pairs of a mix, in whole shuffled cycles:
        ``n_statements`` rounded to cycles, endless when None.  The traced
        run takes its reduced count from the front instead."""
        rng = np.random.default_rng(self.seed)
        if self.traced:
            cycles = math.ceil(self.traced_count / cycle_len)
            names = spec.draw_mix(self.scale, mix, cycles, rng)
            for name in names[:self.traced_count]:
                yield name, self.statements[name]
            return
        cycles = (None if n_statements is None
                  else max(1, round(n_statements / cycle_len)))
        done = 0
        while cycles is None or done < cycles:
            for name in spec.draw_mix(self.scale, mix, 1, rng,
                                      first_cycle=done):
                yield name, self.statements[name]
            done += 1


def _extractions(stats: dict) -> tuple[int, int]:
    return (stats["hypothesis_cache"]["extractions"],
            stats["unit_cache"]["extractions"])


# ----------------------------------------------------------------------
# cold_sweep / cold_store / disk_warm: one fresh session per iteration
# ----------------------------------------------------------------------
def _fresh_session_workload(ctx: Context, samples: Samples, *,
                            statement: str, store: str | None) -> None:
    """Time ``statement`` on a new session over never-used objects.

    ``store`` is None (no store), ``"empty"`` (a new directory per
    iteration, its bytes read after ``close()``) or ``"populated"``
    (filled once in untimed preparation, read by every iteration).
    """
    sql = ctx.statements[statement]
    config = InspectConfig(early_stop=False)
    n_checkpoints = (1 if statement == "inspect_one"
                     else ctx.scale.n_checkpoints)
    populated = ctx.rundir / "store_populated"
    if store == "populated":
        with ctx.prep.phase():
            with Session(str(populated), config=config) as session:
                register_all(session, ctx.fresh(), ctx.recorder)
                session.sql(sql)

    first_counts = None
    store_ratios = []
    for index in ctx.iterations():
        objects = ctx.fresh()                      # outside the timed region
        store_path = None
        if store == "empty":
            store_path = ctx.rundir / f"store_{index}"
        elif store == "populated":
            store_path = populated
        with ctx.recorder.span("iteration", stmt=statement):
            with ctx.recorder.span("session_open"):
                session = Session(
                    None if store_path is None else str(store_path),
                    config=config)
            try:
                register_all(session, objects, ctx.recorder)
                # the host's speed just before and just after the statement
                host = probe_burst()
                with ctx.recorder.span("sql", stmt=statement):
                    elapsed, frame, error = timed(session.sql, sql)
                host += probe_burst()
                samples.add(statement, elapsed, frame, error, median(host))
                stats = session.stats()
                ctx.schedulers.add(type(session.scheduler).__name__)
            finally:
                with ctx.recorder.span("close"):
                    session.close()
        samples.check_frames(ctx.references)

        hyp_ex, unit_ex = _extractions(stats)
        if store == "populated":
            disk_hits = (stats["hypothesis_cache"]["disk_hits"],
                         stats["unit_cache"]["disk_hits"])
            if hyp_ex or unit_ex or not all(disk_hits):
                raise RegimeError(
                    f"disk_warm iteration {index} was not disk-warm: "
                    f"{hyp_ex} hypothesis / {unit_ex} unit extractions, "
                    f"disk hits {disk_hits}")
        else:
            _check_cold(ctx, index, objects, n_checkpoints, hyp_ex,
                        unit_ex, type(session.scheduler).__name__)
            if first_counts is None:
                first_counts = (hyp_ex, unit_ex)
            elif (hyp_ex, unit_ex) != first_counts:
                raise RegimeError(
                    f"{ctx.workload} iteration {index} extracted "
                    f"{(hyp_ex, unit_ex)}, iteration 0 {first_counts}")
        samples.forward_blocks += unit_ex
        if store == "empty":
            columns = (ctx.scale.n_units * n_checkpoints
                       + len(objects.hypotheses))
            behavior_bytes = (objects.n_records * objects.dataset.n_symbols
                              * columns * 8)
            store_ratios.append(dir_bytes(store_path) / behavior_bytes)
            shutil.rmtree(store_path)
    if store_ratios:
        # the manifest's length varies by a few bytes between runs
        if max(store_ratios) - min(store_ratios) > 1e-4:
            raise RegimeError(f"store size varies between iterations: "
                              f"{sorted(set(store_ratios))}")
        ctx.info["store_bytes_per_behavior_byte"] = min(store_ratios)


def _check_cold(ctx: Context, index: int, objects: Objects,
                n_checkpoints: int, hyp_ex: int, unit_ex: int,
                scheduler: str) -> None:
    """A cold iteration extracts everything, exactly once.

    The serial and thread schedulers extract block by block (one count per
    hypothesis x block and per checkpoint x block); the process scheduler
    ships each hypothesis whole and each checkpoint in worker-sized
    chunks, so only its hypothesis count is fixed by the inputs.
    """
    n_hyps = len(objects.hypotheses)
    if scheduler == "ProcessPoolScheduler":
        ok = hyp_ex == n_hyps and unit_ex >= n_checkpoints
        want = f"{n_hyps} / >= {n_checkpoints}"
    else:
        want_pair = (n_hyps * objects.n_blocks,
                     n_checkpoints * objects.n_blocks)
        ok = (hyp_ex, unit_ex) == want_pair
        want = f"{want_pair[0]} / {want_pair[1]}"
    if not ok:
        raise RegimeError(
            f"{ctx.workload} iteration {index} was not cold under "
            f"{scheduler}: {hyp_ex} hypothesis / {unit_ex} unit "
            f"extractions, expected {want}")


def cold_sweep(ctx: Context, samples: Samples) -> None:
    _fresh_session_workload(ctx, samples, statement="inspect_epoch",
                            store=None)


def cold_store(ctx: Context, samples: Samples) -> None:
    _fresh_session_workload(ctx, samples, statement="inspect_one",
                            store="empty")


def disk_warm(ctx: Context, samples: Samples) -> None:
    _fresh_session_workload(ctx, samples, statement="inspect_epoch",
                            store="populated")


# ----------------------------------------------------------------------
# warm_mix: the interactive refinement loop on one session
# ----------------------------------------------------------------------
def _warm_pass(ctx: Context, samples: Samples, mix: dict, run_sql) -> None:
    """Execute every distinct statement of ``mix`` once, untimed, checking
    each frame; ``inspect_into`` goes first so ``scores`` exists."""
    warm = Samples()
    for name in spec.distinct_statements(ctx.scale, mix):
        warm.add(name, *timed(run_sql, ctx.statements[name]))
    warm.check_frames(ctx.references)
    samples.attempted += warm.attempted
    samples.failed += warm.failed
    samples.failures += warm.failures


def warm_mix(ctx: Context, samples: Samples) -> None:
    with contextlib.ExitStack() as stack:
        with ctx.prep.phase():
            with ctx.recorder.span("session_open"):
                session = stack.enter_context(
                    Session(db_path=str(ctx.rundir / "db")))
            register_all(session, ctx.fresh(), ctx.recorder)
            ctx.schedulers.add(type(session.scheduler).__name__)
            _warm_pass(ctx, samples, spec.WARM_MIX, session.sql)
        if "scores" not in session.db.tables:
            raise RegimeError("warm pass left no scores table")

        # whole cycles only, as many as fit the time box (at least one)
        cycle_start = time.perf_counter()
        deadline = cycle_start + ctx.seconds
        schedule = ctx.mix_schedule(spec.WARM_MIX, cycle_len=100)
        for position, (name, sql) in enumerate(schedule):
            if not ctx.traced and position % 100 == 0 and position:
                now = time.perf_counter()
                if now + (now - cycle_start) > deadline:
                    break
                cycle_start = now
            before = _extractions(session.stats())
            host_ms = probe()
            with ctx.recorder.span("sql", stmt=name):
                elapsed, frame, error = timed(session.sql, sql)
            samples.add(name, elapsed, frame, error, host_ms)
            if _extractions(session.stats()) != before:
                raise RegimeError(f"warm statement {name} at position "
                                  f"{position} extracted behaviours")
            if len(samples.pending) >= 50:
                samples.check_frames(ctx.references)
        samples.check_frames(ctx.references)


# ----------------------------------------------------------------------
# served_mix: open loop against the server process
# ----------------------------------------------------------------------
def served_mix(ctx: Context, samples: Samples) -> None:
    connections = os.cpu_count() or 1
    with contextlib.ExitStack() as stack:
        with ctx.prep.phase():
            server = stack.enter_context(
                ServerProcess(ctx.rundir / "server.log"))
            warm_client = server.client("warm")
            _warm_pass(ctx, samples, spec.SERVED_MIX, warm_client.query)
        before = warm_client.stats()

        schedule = list(ctx.mix_schedule(
            spec.SERVED_MIX, cycle_len=20,
            n_statements=spec.SERVED_RATE * ctx.seconds))
        run = open_loop(server, schedule, spec.SERVED_RATE, connections,
                        ctx.recorder)
        after = warm_client.stats()
        for name, latency, frame, error, host_ms in run["results"]:
            samples.add(name, latency, frame, error, host_ms)
        ctx.info["server_peak_rss_mb"] = server.peak_rss_mb()

    samples.check_frames(ctx.references)
    samples.busy_s = run["span_s"]    # first due time to last reply
    ctx.info["gen_late_p99_ms"] = float(
        np.percentile(run["late_s"], 99) * 1e3)
    ctx.info["offered_rate"] = spec.SERVED_RATE
    ctx.info["connections"] = connections
    counters_before = server_counters(before)
    ctx.info["server_counters"] = {
        name: value - counters_before[name]
        for name, value in server_counters(after).items()}
    extracted = tuple(a - b for a, b in zip(
        _extractions(after["session"]), _extractions(before["session"])))
    if any(extracted):
        raise RegimeError(f"served statements extracted behaviours: "
                          f"{extracted}")


RUNNERS = {"cold_sweep": cold_sweep, "cold_store": cold_store,
           "disk_warm": disk_warm, "warm_mix": warm_mix,
           "served_mix": served_mix}
