"""By-parts replay: the per-layer metrics of the traced run.

An outside observer cannot split one ``sql()`` call, so each layer is timed
on its own, on the same inputs, through its public function — parse,
catalog join, hypothesis extraction, unit sweep, scoring, store, paged db,
wire encoding, server — every call inside one ``replay.<layer>`` span.
``trace.parts_over_whole.*`` divides the sum of a statement's parts by the
whole statement timed without spans; it is reported, not gated (spans
inside the program are a later issue and will replace this replay).
Nothing here reads ``InspectConfig.stopwatch``.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np

from repro import InspectConfig, Session
from repro.core.cache import HypothesisCache, UnitBehaviorCache
from repro.core.pipeline import default_scheduler
from repro.db import Database, parse_sql
from repro.db.executor import execute_select
from repro.db.inspect_clause import (Schema, execute_catalog_plan,
                                     plan_catalog, resolve_expr)
from repro.extract import RnnActivationExtractor
from repro.measures.registry import get_measure
from repro.nn.kernels import gather_projection, lstm_sweep
from repro.server import protocol
from repro.store import DiskBehaviorStore
from repro.util.frame import Frame
from repro.util.testing import CountingForwardModel

from . import spec
from .inputs import register_all
from .measure import dir_bytes, median
from .serving import ServerProcess, closed_loop, open_loop, server_counters

#: a backlog is "growing" when the last statement was sent this late
BACKLOG_LATE_S = 0.5


def _ms(ctx, layer: str, fn, repeats: int = 1):
    """``(median milliseconds, last result)`` of ``fn()``, each call one
    ``replay.<layer>`` span."""
    times = []
    result = None
    for _ in range(repeats):
        with ctx.recorder.span(f"replay.{layer}"):
            start = time.perf_counter()
            result = fn()
            times.append((time.perf_counter() - start) * 1e3)
    return median(times), result


def _catalog_join(session, sql: str):
    """The FROM/WHERE stage of an INSPECT statement, as the frontend
    compiles it: resolve names, plan pushdowns and joins, execute."""
    parsed = parse_sql(sql)
    schema = Schema()
    for table, alias in parsed.tables:
        schema.add(alias, list(session.db.table(table).columns))
    where = resolve_expr(parsed.where, schema)

    def join():
        return execute_catalog_plan(
            session.db, plan_catalog(parsed.tables, where))
    return join


def _frontend(ctx, st, out) -> None:
    names = spec.distinct_statements(ctx.scale, spec.WARM_MIX)
    sqls = [ctx.statements[n] for n in names]
    total_ms, _ = _ms(ctx, "sqlparser",
                      lambda: [parse_sql(s) for s in sqls], repeats=5)
    out["sqlparser.parse_us"] = total_ms * 1e3 / len(sqls)

    st.warm_objects = ctx.fresh()

    def open_and_register():
        session = Session(db_path=str(ctx.rundir / "replay_db"))
        register_all(session, st.warm_objects, ctx.recorder)
        return session
    out["session.open_register_ms"], st.session = _ms(
        ctx, "session", open_and_register)
    st.stack.callback(st.session.close)

    out["inspect_clause.catalog_join_ms"], _ = _ms(
        ctx, "inspect_clause",
        _catalog_join(st.session, ctx.statements["inspect_epoch"]),
        repeats=20)
    st.topk_name = (f"inspect_topk[{ctx.scale.n_checkpoints - 1},"
                    f"{ctx.scale.unit_cuts[1]},10]")


def _behaviours(ctx, st, out) -> None:
    """Hypothesis extraction, one unit sweep, the kernels, the measures —
    on never-used objects, so labels and hashes are computed here."""
    cold = ctx.fresh()
    dataset = cold.dataset
    everything = np.arange(cold.n_records)
    st.n_blocks = cold.n_blocks
    st.n_hyps = len(cold.hypotheses)

    ms, st.hyp_rows = _ms(
        ctx, "hypotheses",
        lambda: [h.extract(dataset, everything) for h in cold.hypotheses])
    out["hypotheses.extract_ms"] = ms
    out["hypotheses.records_per_s"] = (
        cold.n_records * st.n_hyps / (ms / 1e3))

    counting = CountingForwardModel(cold.models[-1])
    extractor = RnnActivationExtractor()
    out["extract.sweep_ms"], units = _ms(
        ctx, "extract", lambda: extractor.extract(counting, dataset.symbols))
    out["extract.forward_calls"] = counting.forward_calls
    st.unit_rows = np.ascontiguousarray(units).reshape(cold.n_records, -1)

    lstm = cold.models[-1].lstm
    ids = dataset.symbols[:spec.BLOCK]
    h = ctx.scale.n_units
    out["nn.lstm_sweep_ms"], _ = _ms(
        ctx, "nn", lambda: lstm_sweep(
            gather_projection(ids, lstm.w_x.value, lstm.b.value),
            lstm.w_h.value, h), repeats=3)
    # per record and time step: the (h x 4h) recurrent product, the input
    # add, and roughly 16 elementwise operations per unit for the gates
    out["nn.sweep_flops"] = ids.shape[0] * ids.shape[1] * (
        8 * h * h + 4 * h + 16 * h)

    block_rows = min(spec.BLOCK, cold.n_records) * dataset.n_symbols
    u_block = units[:block_rows]
    h_block = np.stack([rows[:block_rows // dataset.n_symbols].reshape(-1)
                        for rows in st.hyp_rows], axis=1)
    keyword = [h.name for h in cold.hypotheses].index(
        f"kw:{spec.LOGREG_KEYWORDS[0]}")
    for name in ("corr", "diff_means", "jaccard", "logreg_l1"):
        hyps = h_block[:, [keyword]] if name == "logreg_l1" else h_block
        measure = get_measure(name)

        def score(measure=measure, hyps=hyps):
            state = measure.new_state(u_block.shape[1], hyps.shape[1])
            return measure.process_block(state, u_block, hyps)
        out[f"measures.{name}_block_ms"], _ = _ms(
            ctx, "measures", score, repeats=3)


def _warm_session(ctx, st, out) -> None:
    """Cache hits, plan building, convergence, persistence and the wire
    codec, on the warm session the frontend section opened."""
    session, sql = st.session, st.session.sql
    sql(ctx.statements["inspect_into"])      # fills the session caches

    def blocks(statement):
        return sum(1 for _ in session.stream_sql(ctx.statements[statement]))
    _, out["measures.blocks_to_converge.corr"] = _ms(
        ctx, "measures", lambda: blocks("inspect_one"))
    _, out["measures.blocks_to_converge.logreg_l1"] = _ms(
        ctx, "measures",
        lambda: blocks(f"inspect_logreg[{spec.LOGREG_KEYWORDS[0]}]"))

    objects = st.warm_objects
    mids = [f"epoch_{e}" for e in range(ctx.scale.n_checkpoints)]
    out["pipeline.plan_build_ms"], _ = _ms(
        ctx, "pipeline",
        lambda: session.inspect(mids, "d0").using("corr")
        .hypotheses(objects.hypotheses).plan(), repeats=5)

    everything = np.arange(objects.n_records)
    extractor = RnnActivationExtractor()
    unit_cache, hyp_cache = UnitBehaviorCache(), HypothesisCache()
    unit_cache.extract(objects.models[-1], extractor, objects.dataset,
                       everything)
    for hyp in objects.hypotheses:
        hyp_cache.extract(hyp, objects.dataset, everything)
    out["cache.unit_hit_ms"], _ = _ms(
        ctx, "cache", lambda: unit_cache.extract(
            objects.models[-1], extractor, objects.dataset, everything),
        repeats=5)
    out["cache.hyp_hit_ms"], _ = _ms(
        ctx, "cache", lambda: [
            hyp_cache.extract(hyp, objects.dataset, everything)
            for hyp in objects.hypotheses], repeats=5)

    st.topk_ms, _ = _ms(ctx, "whole.inspect_topk_warm",
                        lambda: sql(ctx.statements[st.topk_name]),
                        repeats=10)
    epoch_ms, epoch_frame = _ms(
        ctx, "whole.inspect_epoch_warm",
        lambda: sql(ctx.statements["inspect_epoch"]), repeats=3)
    into_ms, _ = _ms(ctx, "whole.inspect_into_warm",
                     lambda: sql(ctx.statements["inspect_into"]), repeats=3)
    out["db.into_persist_ms"] = into_ms - epoch_ms
    stats = session.stats()
    hits = sum(stats[t]["hits"]
               for t in ("hypothesis_cache", "unit_cache"))
    misses = sum(stats[t]["misses"]
                 for t in ("hypothesis_cache", "unit_cache"))
    out["cache.hit_ratio"] = hits / (hits + misses)

    rows = epoch_frame.rows()
    ms, _ = _ms(ctx, "frame", lambda: Frame.from_records(
        rows, columns=epoch_frame.columns), repeats=3)
    out["frame.from_records_ms_per_krow"] = ms / (len(rows) / 1e3)
    st.epoch_frame = epoch_frame

    multi = sql(ctx.statements["inspect_multi[0]"])
    st.multi_rows = len(multi)
    ms, raw = _ms(ctx, "protocol", lambda: protocol.dumps(
        protocol.result_envelope(multi, 0.0)), repeats=3)
    out["protocol.encode_ms_per_krow"] = ms / (len(multi) / 1e3)
    out["protocol.bytes_per_row"] = len(raw.encode("utf-8")) / len(multi)
    ms, _ = _ms(ctx, "protocol", lambda: protocol.frame_from_payload(
        protocol.parse_envelope(raw)["frame"]), repeats=3)
    out["protocol.decode_ms_per_krow"] = ms / (len(multi) / 1e3)


def _trace_overhead(ctx, st, out) -> None:
    """What a span around ``sql()`` costs, from paired samples: INSPECT
    statements of the warm mix on the warm session, each (after one
    untimed execution) once inside a span and once with the recorder off,
    in alternating order; the median of the pairs' ratios."""
    pairs = ctx.scale.traced_counts["warm_mix"] // 2
    drawn = spec.draw_mix(ctx.scale, spec.WARM_MIX, 1,
                          np.random.default_rng(ctx.seed))
    names = [name for name in drawn if spec.is_inspect(name)][:pairs]
    for name in set(names):
        st.session.sql(ctx.statements[name])
    ratios = []
    try:
        for i, name in enumerate(names):
            took = {}
            for spans_on in ((True, False) if i % 2 == 0 else (False, True)):
                ctx.recorder.enabled = spans_on
                start = time.perf_counter()
                with ctx.recorder.span("sql", stmt=name):
                    st.session.sql(ctx.statements[name])
                took[spans_on] = time.perf_counter() - start
            ratios.append(took[True] / took[False])
    finally:
        ctx.recorder.enabled = True
    out["trace.overhead_pct"] = 100.0 * (median(ratios) - 1.0)


def _database(ctx, st, out) -> None:
    """Index-backed against scanning SELECT, commit and reopen."""
    db = st.session.db
    query = parse_sql(ctx.statements["select_topk"])
    before = (db.index_scans, db.full_scans)
    out["db.select_index_ms"], _ = _ms(
        ctx, "db", lambda: execute_select(db, query), repeats=20)
    out["db.index_scans"] = db.index_scans - before[0]
    # one uncommitted row makes the table dirty: the planner may no longer
    # answer from the on-disk index and falls back to a scan
    table = db.table("scores")
    table.insert(table.rows[0])
    out["db.select_scan_ms"], _ = _ms(
        ctx, "db", lambda: execute_select(db, query), repeats=20)
    out["db.full_scans"] = db.full_scans - before[1]

    frame = st.epoch_frame
    rows = [tuple(row[c] for c in frame.columns) for row in frame.rows()]
    path = ctx.rundir / "replay_db_commit"
    fresh_db = Database(str(path))
    fresh_db.create_table("scores", frame.columns, rows)
    out["db.commit_ms"], _ = _ms(ctx, "db", fresh_db.commit)
    out["db.commit_rows_per_s"] = len(rows) / (out["db.commit_ms"] / 1e3)
    out["db.pages_written"] = fresh_db.storage.stats()["writes"]
    fresh_db.close()
    out["db.bytes_on_disk"] = dir_bytes(path)

    def reopen():
        reopened = Database(str(path))
        try:
            return reopened.table("scores").column("unit_score")
        finally:
            reopened.close()
    out["db.reopen_ms"], _ = _ms(ctx, "db", reopen)


def _cold_statement(ctx, statement: str, store_path, scheduler=None):
    """One cold or disk-warm iteration; returns its ``sql()`` seconds."""
    objects = ctx.fresh()
    with Session(None if store_path is None else str(store_path),
                 config=InspectConfig(early_stop=False),
                 scheduler=scheduler) as session:
        register_all(session, objects, ctx.recorder)
        start = time.perf_counter()
        session.sql(ctx.statements[statement])
        return time.perf_counter() - start


def _pipeline(ctx, st, out) -> None:
    """The cold_store iteration under each explicit scheduler, what the
    default resolves to, and what spawning a process pool costs."""
    for name in ("serial", "threads", "processes"):
        st.store_path = ctx.rundir / f"replay_store_{name}"
        _, seconds = _ms(
            ctx, "pipeline", lambda name=name: _cold_statement(
                ctx, "inspect_one", st.store_path, scheduler=name))
        out[f"pipeline.cold_{name}_ms"] = seconds * 1e3
    for key, store in (
            ("pipeline.default_scheduler", None),
            ("pipeline.default_scheduler_store",
             DiskBehaviorStore(ctx.rundir / "replay_store_probe"))):
        scheduler = default_scheduler(store=store)
        out[key] = spec.SCHEDULER_CODES[type(scheduler).__name__]
        scheduler.shutdown()

    workers = os.cpu_count() or 1

    def spawn():
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(abs, range(workers)))
    out["pipeline.pool_spawn_ms"], _ = _ms(ctx, "pipeline", spawn)

    _, seconds = _ms(ctx, "whole.inspect_epoch_cold",
                     lambda: _cold_statement(ctx, "inspect_epoch", None))
    st.cold_epoch_ms = seconds * 1e3
    _, seconds = _ms(
        ctx, "whole.inspect_one_disk",
        lambda: _cold_statement(ctx, "inspect_one", st.store_path))
    st.disk_one_ms = seconds * 1e3


def _store(ctx, st, out) -> None:
    """Write then read one checkpoint's behaviours plus every
    hypothesis's — what ``cold_store`` writes and ``disk_warm`` reads."""
    entries = {"unit": st.unit_rows}
    entries.update({f"hyp{i}": np.ascontiguousarray(rows)
                    for i, rows in enumerate(st.hyp_rows)})
    n_records = st.unit_rows.shape[0]
    everything = np.arange(n_records)
    payload = sum(rows.nbytes for rows in entries.values())
    path = ctx.rundir / "replay_store_raw"
    store = DiskBehaviorStore(path)

    def append_all():
        with store.deferred_commits():
            append_ms, _ = _ms(ctx, "store.append", lambda: [
                store.append(key, everything, rows, n_records)
                for key, rows in entries.items()])
            flush_start = time.perf_counter()
        return append_ms, (time.perf_counter() - flush_start) * 1e3
    with ctx.recorder.span("replay.store"):
        append_ms, out["store.flush_ms"] = append_all()
    out["store.append_mb_per_s"] = payload / 1e6 / (
        (append_ms + out["store.flush_ms"]) / 1e3)
    stats = store.stats()
    out["store.shards"] = stats["shards"]
    out["store.commits"] = stats["commits"]
    out["store.bytes"] = stats["bytes"]
    store.close()
    out["store.bytes_per_behavior_byte"] = dir_bytes(path) / payload

    reopened = DiskBehaviorStore(path)
    out["store.reader_open_ms"], readers = _ms(
        ctx, "store", lambda: [reopened.reader(key) for key in entries])
    ms, _ = _ms(ctx, "store",
                lambda: [reader.rows(everything) for reader in readers])
    out["store.read_mb_per_s"] = payload / 1e6 / (ms / 1e3)
    st.store_read_ms = ms
    reopened.close()


def _server(ctx, st, out) -> None:
    """Protocol floor, served-minus-in-process overhead, closed-loop
    saturation, the open loop at a few fixed rates, websocket first frame."""
    connections = os.cpu_count() or 1
    rng = np.random.default_rng(ctx.seed)
    with ServerProcess(ctx.rundir / "replay_server.log") as server:
        client = server.client("replay")
        for name in spec.distinct_statements(ctx.scale, spec.SERVED_MIX):
            client.query(ctx.statements[name])
        before = server_counters(client.stats())

        out["server.floor_ms"], _ = _ms(
            ctx, "server", lambda: client.query(
                ctx.statements["select_catalog"]), repeats=20)
        served_topk, _ = _ms(ctx, "server", lambda: client.query(
            ctx.statements[st.topk_name]), repeats=10)
        out["server.overhead_topk_ms"] = served_topk - st.topk_ms
        st.multi_served_ms, _ = _ms(
            ctx, "whole.inspect_multi_served",
            lambda: client.query(ctx.statements["inspect_multi[0]"]),
            repeats=5)

        def draw(n):
            names = spec.draw_mix(ctx.scale, spec.SERVED_MIX,
                                  -(-n // 20), rng)[:n]
            return [(name, ctx.statements[name]) for name in names]
        with ctx.recorder.span("replay.server.closed_loop"):
            out["server.closed_loop_stmts_per_s"] = closed_loop(
                server, draw(ctx.scale.closed_loop_statements), connections)

        within_limit = 0
        for rate in spec.SWEEP_RATES:
            schedule = draw(round(rate * ctx.scale.sweep_seconds))
            with ctx.recorder.span(f"replay.server.open_loop_{rate}"):
                run = open_loop(server, schedule, rate, connections,
                                ctx.recorder)
            failed = [r for r in run["results"] if r[3] is not None]
            latencies = [r[1] * 1e3 for r in run["results"]
                         if spec.is_inspect(r[0]) and r[3] is None]
            # a look at a few dozen statements, not a judged percentile
            sweep_p90 = float(np.percentile(latencies, 90))
            out[f"server.p90_ms_at_{rate}"] = sweep_p90
            if (not failed and sweep_p90 <= spec.SWEEP_P90_LIMIT_MS
                    and run["late_s"][-1] < BACKLOG_LATE_S):
                within_limit = rate
            if rate == spec.SERVED_RATE:
                out["server.gen_late_p99_ms"] = float(
                    np.percentile(run["late_s"], 99) * 1e3)
        out["server.max_rate_within_limit"] = within_limit

        def first_frame():
            with client.stream(ctx.statements["inspect_one"]) as handle:
                return next(iter(handle))
        out["server.ws_first_frame_ms"], _ = _ms(ctx, "server", first_frame)
        after = server_counters(client.stats())
    out.update({name: after[name] - before[name] for name in after})


def _parts_over_whole(ctx, st, out) -> None:
    parse_ms = out["sqlparser.parse_us"] / 1e3
    front = (parse_ms + out["inspect_clause.catalog_join_ms"]
             + out["pipeline.plan_build_ms"])
    k = ctx.scale.n_checkpoints
    corr = out["measures.corr_block_ms"]
    converge = out["measures.blocks_to_converge.corr"]
    hits = (out["cache.unit_hit_ms"] + out["cache.hyp_hit_ms"]) \
        * converge / st.n_blocks
    multi_blocks = converge * (corr + out["measures.diff_means_block_ms"]
                               + out["measures.jaccard_block_ms"])
    wire = st.multi_rows / 1e3 * (out["protocol.encode_ms_per_krow"]
                                  + out["protocol.decode_ms_per_krow"])
    parts = {
        "inspect_epoch_cold": (
            front + out["hypotheses.extract_ms"]
            + k * out["extract.sweep_ms"] + k * st.n_blocks * corr,
            st.cold_epoch_ms),
        "inspect_one_disk": (
            front + out["store.reader_open_ms"] + st.store_read_ms
            + st.n_blocks * corr, st.disk_one_ms),
        "inspect_topk_warm": (front + hits + converge * corr, st.topk_ms),
        "inspect_multi_served": (
            front + hits + multi_blocks + wire + out["server.floor_ms"],
            st.multi_served_ms),
    }
    for name, (total, whole) in parts.items():
        out[f"trace.parts_over_whole.{name}"] = total / whole


def run(ctx) -> dict:
    """Every per-layer metric except the one the traced workload itself
    yields (``extract.forward_blocks_per_stmt``)."""
    out: dict = {}
    st = SimpleNamespace()
    with ctx.recorder.span("replay"), contextlib.ExitStack() as stack:
        st.stack = stack
        for section in (_frontend, _behaviours, _warm_session,
                        _trace_overhead, _database, _pipeline, _store,
                        _server, _parts_over_whole):
            section(ctx, st, out)
    return out
