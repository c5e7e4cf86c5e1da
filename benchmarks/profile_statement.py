"""Where does one benchmark statement spend its time?  (cProfile, by regime)

    PYTHONPATH=src python -m benchmarks.profile_statement --regime warm \
        --statement 'inspect_topk[1,16,20]' [--scale smoke|base] \
        [--repeat 10] [--top 40] [--rollup]

Prepares the regime as ``benchmarks/e2e/workloads.py`` does (warm: one
session, the statement run once untimed first; disk: a store populated
first, then fresh objects and a new session per run; cold: fresh objects and
a store-less session per run; store: fresh objects and a session over a new
empty store per run, under the scheduler the library picks — what
``cold_store`` times; set ``REPRO_SCHEDULER`` to compare the three), times
the statement ``--repeat`` times plainly and again under cProfile, and
prints ms per statement both ways plus the top cumulative rows under
``src/repro``.  ``--rollup`` prints one line per lifecycle layer instead
(the cumulative time of the function each layer hangs from, plus the
unattributed rest), so a before/after reads without eyeballing 40 rows.
cProfile taxes Python calls, not numpy's inner loops, and sees the calling
thread only: under a pool the ``unit block`` row is that thread's wait on
the block's pair futures, and score tasks fanned over the pool show as
waiting under ``everything else``.  Read the rows as proportions, take
timings from ``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import tempfile
import time
from pathlib import Path

from repro import InspectConfig, Session

from .e2e import inputs, spec
from .e2e.spans import SpanRecorder


#: lifecycle layer -> file and the functions (none nested in another)
#: whose cumulative times add up to the layer's.  A block's unit sweep
#: runs inside ``unit_blocks`` on an inline scheduler; on a prefetching
#: pool it is one future per (model, raw sweep) pair, and the calling
#: thread's share is the submission and its wait in ``gather_sweeps``.
_LAYERS = (("parse", "sqlparser.py", ("parse_sql",)),
           ("compile + catalog join", "inspect_clause.py",
            ("_compile_inspect",)),
           ("plan build", "pipeline.py", ("build",)),
           ("hypothesis block", "pipeline.py", ("hypothesis_block",)),
           ("unit block", "pipeline.py",
            ("unit_blocks", "submit_sweeps", "gather_sweeps")),
           ("scoring", "pipeline.py", ("process",)),
           ("store commit", "disk.py", ("flush",)),
           ("assemble + select", "inspect_clause.py", ("assemble",)))


def _rollup(stats: dict, per: float) -> None:
    """One line per lifecycle layer, ms per statement."""
    cum: dict[tuple[str, str], float] = {}
    for (path, _, name), (_, _, _, ct, _) in stats.items():
        if "src/repro" in path:
            # same-named wrappers nest (_Statement.assemble calls
            # _CompiledInspect.assemble): the outer one covers both
            key = (Path(path).name, name)
            cum[key] = max(cum.get(key, 0.0), ct)
    whole = cum.get(("session.py", "sql"), 0.0) * per
    rest = whole
    print("   cum ms  layer (per statement)")
    for layer, file, names in _LAYERS:
        ms = sum(cum.get((file, name), 0.0) for name in names) * per
        rest -= ms
        print(f"{ms:9.3f}  {layer}")
    print(f"{rest:9.3f}  everything else\n{whole:9.3f}  whole statement")


def _runs(regime: str, scale: spec.Scale, sql: str, root: Path, repeat: int):
    """Yield ``repeat`` prepared, zero-argument calls of the statement."""
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
        with fresh_session(store, config=config) as session:
            yield lambda: session.sql(sql)


def _measure(runs, call) -> float:
    """Mean ms per statement; only ``call(statement)`` is inside the clock."""
    elapsed = []
    for run in runs:
        start = time.perf_counter()
        call(run)
        elapsed.append(time.perf_counter() - start)
    return sum(elapsed) / len(elapsed) * 1e3


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
                        help="one line per lifecycle layer, not the rows")
    args = parser.parse_args(argv)
    scale = spec.SCALES[args.scale]
    sql = spec.statements(scale)[args.statement]
    per = 1e3 / args.repeat
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        root = Path(tmp)
        workload, _ = inputs.generate(scale, 0)
        inputs.train_checkpoints(scale, 0, workload, root)
        runs = (args.regime, scale, sql, root, args.repeat)
        plain = _measure(_runs(*runs), lambda run: run())
        profiler = cProfile.Profile()
        profiled = _measure(_runs(*runs), profiler.runcall)
    print(f"{args.statement} [{args.regime}, {args.scale}, "
          f"{args.repeat} runs]: {plain:.2f} ms per statement, "
          f"{profiled:.2f} ms under cProfile")
    stats = pstats.Stats(profiler).stats
    if args.rollup:
        _rollup(stats, per)
        return
    rows = [(cum, tot, calls, f"{Path(path).name}:{line}({name})")
            for (path, line, name), (_, calls, tot, cum, _)
            in stats.items() if "src/repro" in path]
    print("   cum ms   self ms    calls  function (per statement)")
    for cum, tot, calls, where in sorted(rows, reverse=True)[:args.top]:
        print(f"{cum * per:9.3f} {tot * per:9.3f} "
              f"{calls / args.repeat:8.1f}  {where}")


if __name__ == "__main__":
    main()
