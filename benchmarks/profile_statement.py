"""Where does one benchmark statement spend its time?  (cProfile, by regime)

    PYTHONPATH=src python -m benchmarks.profile_statement --regime warm \
        --statement 'inspect_topk[1,16,20]' [--scale smoke|base] \
        [--repeat 10] [--top 40] [--rollup]

Prepares the regime as ``benchmarks/e2e/workloads.py`` does (warm: one
session, the statement run once untimed first; disk: a store populated
first, then fresh objects and a new session per run; cold: fresh objects and
a store-less session per run; store: fresh objects and a session over a new
empty store per run, under the scheduler the library picks — threads on
two or more usable CPUs, serial on one; what ``cold_store`` times; set
``REPRO_SCHEDULER`` to compare the two), times
the statement ``--repeat`` times plainly and again under cProfile, and
prints ms per statement both ways plus the top cumulative rows under
``src/repro``.  ``--rollup`` prints the statement's own trace instead
(:mod:`repro.util.trace`, from the plain runs): mean ms per span name,
indented under the span it hangs from, with the tier counters moved on
that span per statement beside it (``score[...]  stat_hits=1``: the block
was folded from kept statistics), then ``untraced`` (the root minus its
direct children) and the whole statement — so a before/after reads
without eyeballing 40 rows, and nothing here depends on function names.
A store-backed statement commits after it returns, on a thread of its
own and in no trace: its ``store_commit`` row (the store's ``commit_s``)
is shown after the whole statement, as time after the frame, beside what
``close()`` then waited for it.
Spans are timed on the thread that runs them: under the thread pool the
``sweep[model]`` rows overlap the calling thread's labelling and its
``unit_extraction`` rows are the submission and the wait.  In the cold
and store regimes a ``sweep alone[model]`` row follows each
``sweep[model]``: that model's sweep of the first block, timed on the
calling thread after the runs with nothing else running (median of 5),
beside the traced sweeps' mean per block over it — what running beside
the labelling cost them, as a ratio.  cProfile taxes
Python calls, not numpy's inner loops, and sees the calling thread only.  Read the
rows as proportions, take timings from ``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import shutil
import statistics
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro import InspectConfig, Session
from repro.core.cache import model_id
from repro.core.plan import record_order
from repro.extract.rnn import RnnActivationExtractor
from repro.util.trace import tracing

from .e2e import inputs, spec
from .e2e.spans import SpanRecorder


def _rollup(roots: list, after: list[tuple[float, float]],
            alone: dict[str, float]) -> None:
    """Mean ms per span name over the traced runs, nested as traced, with
    the tier counters each moved per statement beside it, and each
    ``alone`` sweep (span name -> seconds) under its traced rows; then,
    per run, ``after``: the store commit its statement left and what
    ``close()`` waited for it."""
    merged: dict[str, list] = {}    # name -> [seconds, children, counters]
    calls = Counter()
    for root in roots:
        calls.update({name: total["calls"]
                      for name, total in root.totals().items()})

    def fold(level: dict, node) -> None:
        entry = level.setdefault(node.name, [0.0, {}, Counter()])
        entry[0] += node.duration
        entry[2].update(node.counters)
        for child in node.children:
            fold(entry[1], child)

    def show(level: dict, indent: str) -> None:
        for name, (seconds, children, counters) in level.items():
            moved = "".join(f"  {counter}={total / len(roots):g}"
                            for counter, total in sorted(counters.items()))
            print(f"{seconds * per:9.3f}  {indent}{name}{moved}")
            if name in alone:
                per_block = seconds / calls[name] / alone[name]
                print(f"{alone[name] * 1e3:9.3f}  {indent}sweep alone"
                      f"{name[len('sweep'):]}  per block "
                      f"{per_block:.2f}x alone")
            show(children, indent + "  ")

    for root in roots:
        for child in root.children:
            fold(merged, child)
    per = 1e3 / len(roots)
    whole = sum(root.duration for root in roots) * per
    traced = sum(seconds for seconds, _, _ in merged.values()) * per
    print("  mean ms  span (per statement)  counters moved on it")
    show(merged, "")
    print(f"{whole - traced:9.3f}  untraced\n{whole:9.3f}  whole statement")
    if after:
        commits, closes = zip(*after)
        print("  after the frame (the commit runs on a thread of its own):")
        print(f"{sum(commits) * per:9.3f}  store_commit\n"
              f"{sum(closes) * per:9.3f}  close() waited")


def _runs(regime: str, scale: spec.Scale, sql: str, root: Path, repeat: int,
          after: list[tuple[float, float]]):
    """Yield ``repeat`` prepared, zero-argument calls of the statement;
    a fresh store-backed session's commit seconds and ``close()`` seconds
    go to ``after``."""
    def fresh_session(store=None, **kwargs):
        session = Session(store, **kwargs)
        inputs.register_all(session, inputs.fresh_objects(scale, 0, root),
                            SpanRecorder(enabled=False))
        return session

    if regime == "warm":
        with fresh_session() as session:
            session.sql(sql)
            for _ in range(repeat):
                yield lambda: session.sql(sql)
        return
    config = InspectConfig(early_stop=False)
    store = None
    if regime == "disk":
        store = str(root / "store")
        with fresh_session(store, config=config) as session:
            session.sql(sql)
    for _ in range(repeat):
        if regime == "store":
            store = tempfile.mkdtemp(prefix="store-", dir=root)
        session = fresh_session(store, config=config)
        try:
            yield lambda: session.sql(sql)
        finally:
            start = time.perf_counter()
            session.close()     # waits for the statement's store commit
            closed = time.perf_counter() - start
            if session.store is not None:
                after.append((session.store.commit_s, closed))
        if regime == "store":
            # as cold_store does: a kept store's unwritten pages are what
            # the next run's fsync waits for (~120 ms against ~25)
            shutil.rmtree(store)


def _sweeps_alone(scale: spec.Scale, root: Path, names: set[str],
                  repeat: int = 5) -> dict[str, float]:
    """Seconds of each model's sweep of the statement's first block (span
    name -> median of ``repeat``), for the models ``names`` traced, timed
    on the calling thread with nothing else running: the raw sweep a cold
    unit tier runs (:meth:`repro.core.cache.UnitBehaviorCache.extract`),
    over fresh objects."""
    objects = inputs.fresh_objects(scale, 0, root)
    config = InspectConfig(early_stop=False)
    first = record_order(config.seed, objects.n_records,
                         config.shuffle)[:config.block_size]
    symbols = objects.dataset.symbols[first]
    extractor = RnnActivationExtractor()
    alone = {}
    for model in objects.models:
        name = f"sweep[{model_id(model)}]"
        if name in names:
            times = []
            for _ in range(repeat):
                start = time.perf_counter()
                extractor.raw_rows(model, symbols)
                times.append(time.perf_counter() - start)
            alone[name] = statistics.median(times)
    return alone


def _measure(runs, call) -> tuple[float, list]:
    """Mean ms per statement and each run's trace; only ``call(statement)``
    is inside the clock (and the root span)."""
    roots = []
    for run in runs:
        with tracing("statement") as root:
            call(run)
        roots.append(root)
    return sum(root.duration for root in roots) / len(roots) * 1e3, roots


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regime",
                        choices=("warm", "disk", "cold", "store"),
                        required=True)
    parser.add_argument("--statement", required=True)
    parser.add_argument("--scale", choices=tuple(spec.SCALES), default="base")
    parser.add_argument("--repeat", type=int, default=10)
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--rollup", action="store_true",
                        help="the statement's trace, not the cProfile rows")
    args = parser.parse_args(argv)
    scale = spec.SCALES[args.scale]
    sql = spec.statements(scale)[args.statement]
    per = 1e3 / args.repeat
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        root = Path(tmp)
        workload, _ = inputs.generate(scale, 0)
        inputs.train_checkpoints(scale, 0, workload, root)
        runs = (args.regime, scale, sql, root, args.repeat)
        after: list[tuple[float, float]] = []
        plain, roots = _measure(_runs(*runs, after), lambda run: run())
        alone = {}
        if args.regime in ("cold", "store"):
            traced = {span.name for r in roots for span in r.walk()}
            alone = _sweeps_alone(scale, root, traced)
        profiler = cProfile.Profile()
        profiled, _ = _measure(_runs(*runs, []), profiler.runcall)
    print(f"{args.statement} [{args.regime}, {args.scale}, "
          f"{args.repeat} runs]: {plain:.2f} ms per statement, "
          f"{profiled:.2f} ms under cProfile")
    if args.rollup:
        _rollup(roots, after, alone)
        return
    stats = pstats.Stats(profiler).stats
    rows = [(cum, tot, calls, f"{Path(path).name}:{line}({name})")
            for (path, line, name), (_, calls, tot, cum, _)
            in stats.items() if "src/repro" in path]
    print("   cum ms   self ms    calls  function (per statement)")
    for cum, tot, calls, where in sorted(rows, reverse=True)[:args.top]:
        print(f"{cum * per:9.3f} {tot * per:9.3f} "
              f"{calls / args.repeat:8.1f}  {where}")


if __name__ == "__main__":
    main()
