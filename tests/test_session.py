"""Session API: lifecycle, shared resources, progressive results, CLI.

The acceptance story of PR 5: one connection-style object owns the caches,
the store and the scheduler pool; Python-builder and SQL queries issued
through it share a single forward pass per model; ``.stream()`` yields
partial frames whose final snapshot is bit-identical to a one-shot
``run()``; ``close()`` releases every owned resource exactly once.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (HypothesisCache, InspectConfig, ProcessPoolScheduler,
                   SerialScheduler, Session, ThreadPoolScheduler,
                   UnitBehaviorCache, inspect)
from repro.db import Database
from repro.db.inspect_clause import run_inspect_spec
from repro.db.sqlparser import parse_sql
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.measures import CorrelationScore
from repro.util.testing import CountingForwardModel

MAX_RECORDS = 60

INSPECT_SQL = """
    SELECT S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid
    ORDER BY S.unit_score DESC
"""


@pytest.fixture
def hyps():
    return sql_keyword_hypotheses(("SELECT", "FROM"))


def make_session(model, workload, hyps, **kwargs) -> Session:
    kwargs.setdefault("config",
                      InspectConfig(mode="full", max_records=MAX_RECORDS))
    session = Session(**kwargs)
    session.register_model("m0", model)
    session.register_dataset("d0", workload.dataset)
    session.register_hypotheses(hyps, name="keywords")
    return session


# ----------------------------------------------------------------------
# shared resources: one extraction across interleaved Python + SQL
# ----------------------------------------------------------------------
class TestSharedResources:
    def test_interleaved_python_and_sql_share_one_extraction(
            self, trained_sql_model, sql_workload, hyps):
        counting = CountingForwardModel(trained_sql_model)
        with make_session(counting, sql_workload, hyps) as session:
            frame = (session.inspect("m0", "d0")
                     .using("corr").hypotheses(hyps).run())
            assert session.unit_cache.stats()["extractions"] == 1
            # hypotheses extracted once each, served to every later query
            assert session.hyp_cache.stats()["extractions"] == len(hyps)
            session.reset_counters()
            sql_frame = session.sql(INSPECT_SQL)
            again = (session.inspect("m0", "d0")
                     .using("corr").hypotheses(hyps).run())
            # the SQL query and the repeated builder query both ran against
            # warm caches: zero further extractions, one forward pass total
            assert session.unit_cache.stats()["extractions"] == 0
            assert session.hyp_cache.stats()["extractions"] == 0
            assert counting.forward_calls == 1
            assert again == frame
            assert len(sql_frame) > 0

    def test_results_bit_identical_to_standalone_paths(
            self, hand_built_session, trained_sql_model, sql_workload, hyps):
        config = InspectConfig(mode="full", max_records=MAX_RECORDS)
        with make_session(trained_sql_model, sql_workload,
                          hyps) as session:
            frame = (session.inspect("m0", "d0")
                     .using(CorrelationScore("pearson"))
                     .hypotheses(hyps).run())
            sql_rows = session.sql(INSPECT_SQL).rows()
        standalone = inspect([trained_sql_model], sql_workload.dataset,
                             [CorrelationScore("pearson")], hyps,
                             config=config)
        assert frame == standalone
        db = Database()
        db.create_table("models", ["mid"], [["m0"]])
        db.create_table("units", ["mid", "uid", "layer"],
                        [["m0", u, 0]
                         for u in range(trained_sql_model.n_units)])
        db.create_table("hypotheses", ["h", "name"],
                        [[h.name, "keywords"] for h in hyps])
        db.create_table("inputs", ["did", "seq"], [["d0", "seq"]])
        # registered catalog == hand-built catalog
        hand_built = hand_built_session(
            db, models={"m0": trained_sql_model}, hypotheses=hyps,
            datasets={"d0": sql_workload.dataset}, config=config)
        assert hand_built.sql(INSPECT_SQL).rows() == sql_rows

    def test_name_resolution_errors(self, trained_sql_model, sql_workload,
                                    hyps):
        with make_session(trained_sql_model, sql_workload, hyps) as session:
            with pytest.raises(KeyError, match="model 'nope'"):
                session.inspect("nope", "d0").using("corr") \
                    .hypotheses(hyps).run()
            with pytest.raises(KeyError, match="dataset 'nope'"):
                session.inspect("m0", "nope").using("corr") \
                    .hypotheses(hyps).run()
            with pytest.raises(KeyError, match="hypothesis 'nope'"):
                session.inspect("m0", "d0").using("corr") \
                    .hypotheses("nope").run()
            with pytest.raises(ValueError, match="no measures"):
                session.inspect("m0", "d0").hypotheses(hyps).run()

    def test_where_units_and_top_k(self, trained_sql_model, sql_workload,
                                   hyps):
        with make_session(trained_sql_model, sql_workload, hyps) as session:
            frame = (session.inspect("m0", "d0").using("corr")
                     .hypotheses(hyps).where(units=[0, 1, 2, 3])
                     .top_k(2).run())
            units = frame.where(kind="unit")
            assert set(units["h_unit_id"]) <= {0, 1, 2, 3}
            for hyp in hyps:
                assert len(units.where(hyp_id=hyp.name)) == 2
            full = (session.inspect("m0", "d0").using("corr")
                    .hypotheses(hyps).where(units=[0, 1, 2, 3]).run())
            # top_k keeps the highest-|val| rows of the uncut frame
            for hyp in hyps:
                sub = full.where(kind="unit", hyp_id=hyp.name)
                best = sorted(np.abs(sub.column("val", dtype=float)))[-2:]
                kept = np.abs(units.where(hyp_id=hyp.name)
                              .column("val", dtype=float))
                assert sorted(kept) == pytest.approx(sorted(best))

    def test_plan_describe_shows_plan(self, trained_sql_model, sql_workload,
                                hyps):
        with make_session(trained_sql_model, sql_workload, hyps) as session:
            text = (session.inspect("m0", "d0").using("corr")
                    .hypotheses(hyps).plan().describe())
            assert "InspectionPlan" in text and "BehaviorSource" in text

    def test_catalog_rows_from_registration(self, trained_sql_model,
                                            sql_workload, hyps):
        with make_session(trained_sql_model, sql_workload, hyps) as session:
            assert session.sql("SELECT mid FROM models").rows() == \
                [{"mid": "m0"}]
            n_units = trained_sql_model.n_units
            assert len(session.sql("SELECT uid FROM units")) == n_units
            assert len(session.sql("SELECT h FROM hypotheses")) == len(hyps)

    def test_reregistration_replaces_catalog_rows(self, trained_sql_model,
                                                  sql_workload, hyps):
        """Re-running a registration (notebook cell) must not duplicate
        catalog rows — joins would silently inflate the score relation."""
        with make_session(trained_sql_model, sql_workload, hyps) as session:
            session.register_model("m0", trained_sql_model)
            session.register_dataset("d0", sql_workload.dataset)
            session.register_hypotheses(hyps, name="keywords")
            assert len(session.sql("SELECT mid FROM models")) == 1
            assert len(session.sql("SELECT uid FROM units")) == \
                trained_sql_model.n_units
            assert len(session.sql("SELECT did FROM inputs")) == 1
            assert len(session.sql("SELECT h FROM hypotheses")) == len(hyps)

    def test_mismatched_catalog_attrs_raise(self, trained_sql_model,
                                            sql_workload, hyps):
        """The first registration fixes a table's schema; divergence is a
        loud error, not a silently-corrupted catalog."""
        with Session() as session:
            session.register_model("m0", trained_sql_model)
            with pytest.raises(ValueError, match="model attributes"):
                session.register_model("m1", trained_sql_model, epoch=1)
            session.register_dataset("d0", sql_workload.dataset, split="t")
            with pytest.raises(ValueError, match="dataset attributes"):
                session.register_dataset("d1", sql_workload.dataset)
            session.register_hypotheses(hyps[:1])
            with pytest.raises(ValueError, match="hypothesis attributes"):
                session.register_hypotheses(hyps[1:], family="kw")
            # a refused registration registers nothing either
            assert "m1" not in session.models
            assert "d1" not in session.datasets
            assert not {h.name for h in hyps[1:]} & set(session.hypotheses)

    def test_refused_reregistration_changes_nothing(
            self, trained_sql_model, sql_workload, hyps):
        """A mismatched re-registration of an existing name leaves its
        catalog rows, its registry entry and the registry generation as
        they were."""
        with make_session(trained_sql_model, sql_workload, hyps) as session:
            def state():
                return ({name: list(table.scan())
                         for name, table in session.db.tables.items()},
                        *({name: id(obj) for name, obj in registry.items()}
                          for registry in (session.models, session.datasets,
                                           session.hypotheses)),
                        session._registry_version)

            before = state()
            with pytest.raises(ValueError, match="model attributes"):
                session.register_model("m0", object(), units=3, epoch=2)
            with pytest.raises(ValueError, match="dataset attributes"):
                session.register_dataset("d0", sql_workload.dataset,
                                         split="t")
            with pytest.raises(ValueError, match="hypothesis attributes"):
                session.register_hypotheses(hyps, family="kw")
            assert state() == before

    def test_reregistration_publishes_every_table_whole(self, monkeypatch):
        """Every ``models`` and ``units`` table the catalog publishes
        while ``m0`` is registered again holds m0's rows exactly once: a
        concurrent reader never finds the model missing or doubled."""
        from repro.db import Table
        with Session(scheduler="serial") as session:
            session.register_model("m0", object(), units=8, epoch=1)
            session.register_model("m1", object(), units=8, epoch=1)
            seen = []

            def snapshot():
                for name in ("models", "units"):
                    rows = list(session.db.tables[name].scan())
                    seen.append((name, [r for r in rows if r[0] == "m0"]))

            create, insert_many = Database.create_table, Table.insert_many

            def create_and_snapshot(db, *args, **kwargs):
                table = create(db, *args, **kwargs)
                snapshot()
                return table

            def insert_and_snapshot(table, rows):
                insert_many(table, rows)
                snapshot()

            monkeypatch.setattr(Database, "create_table",
                                create_and_snapshot)
            monkeypatch.setattr(Table, "insert_many", insert_and_snapshot)
            monkeypatch.setattr(Table, "insert", lambda table, row:
                                insert_and_snapshot(table, [row]))
            session.register_model("m0", object(), units=8, epoch=2)
            assert {name for name, _ in seen} == {"models", "units"}
            for name, rows in seen:
                if name == "models":
                    assert len(rows) == 1, rows
                else:
                    assert sorted(r[1] for r in rows) == list(range(8)), rows

    def test_reregistration_keeps_order_and_first_columns(self, tmp_path):
        """Other keys' rows keep their order, the re-registered key's rows
        go last, the first registration's column order stays, and rows a
        reopened catalog holds for a key not yet registered are replaced,
        not doubled."""
        db_path = str(tmp_path / "catalog")
        with Session(db_path=db_path, scheduler="serial") as session:
            for mid in ("m0", "m1", "m2"):
                session.register_model(mid, object(), units=2, zeta=1,
                                       alpha=mid)
            session.register_model("m1", object(), units=2, alpha="x",
                                   zeta=2)
            assert session.db.table("models").columns == \
                ["mid", "alpha", "zeta"]
            assert list(session.db.table("models").scan()) == [
                ("m0", "m0", 1), ("m2", "m2", 1), ("m1", "x", 2)]
            assert [r[0] for r in session.db.table("units").scan()] == \
                ["m0", "m0", "m2", "m2", "m1", "m1"]
        with Session(db_path=db_path, scheduler="serial") as session:
            assert session.models == {}
            session.register_model("m0", object(), units=2, zeta=3,
                                   alpha="y")
            assert list(session.db.table("models").scan()) == [
                ("m2", "m2", 1), ("m1", "x", 2), ("m0", "y", 3)]
            assert len(session.db.table("units")) == 6


# ----------------------------------------------------------------------
# progressive results
# ----------------------------------------------------------------------
class TestStream:
    def test_stream_final_frame_bit_identical_to_run(
            self, trained_sql_model, sql_workload, hyps):
        config = InspectConfig(mode="streaming", block_size=25,
                               early_stop=False, max_records=MAX_RECORDS,
                               seed=3)
        with make_session(trained_sql_model, sql_workload, hyps,
                          config=config) as session:
            def query():
                return (session.inspect("m0", "d0").using("corr")
                        .hypotheses(hyps))
            partials = list(query().stream())
            assert len(partials) >= 2
            assert partials[0].records_processed == 25
            assert not partials[0].converged
            assert partials[-1].records_processed == MAX_RECORDS
            final = query().run()
            assert partials[-1] == final  # bit-identical columns
            # convergence state rides on every partial (behavior rows =
            # records x symbols)
            rows = 25 * sql_workload.dataset.n_symbols
            assert partials[0]["n_rows_seen"] == [rows] * len(partials[0])
            assert not any(partials[0]["converged"])

    @pytest.mark.parametrize("cores", [1, 4])
    def test_stream_abandoned_early_stops_extraction(
            self, trained_sql_model, sql_workload, hyps, fake_cpu_count,
            cores):
        # 1 core resolves the serial scheduler, 4 the prefetching thread
        # pool: a stream sweeps a block only once its consumer asks for it
        fake_cpu_count(cores)
        counting = CountingForwardModel(trained_sql_model)
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)
        with make_session(counting, sql_workload, hyps,
                          config=config) as session:
            stream = (session.inspect("m0", "d0").using("corr")
                      .hypotheses(hyps).stream())
            next(stream)
            stream.close()
            assert counting.forward_calls == 1  # one block, nothing more

    def test_stream_respects_top_k(self, trained_sql_model, sql_workload,
                                   hyps):
        config = InspectConfig(mode="streaming", block_size=30,
                               early_stop=False, max_records=MAX_RECORDS)
        with make_session(trained_sql_model, sql_workload, hyps,
                          config=config) as session:
            partials = list(session.inspect("m0", "d0").using("corr")
                            .hypotheses(hyps).top_k(3).stream())
            for partial in partials:
                for hyp in hyps:
                    assert len(partial.where(kind="unit",
                                             hyp_id=hyp.name)) == 3


# ----------------------------------------------------------------------
# lifecycle: pools, store commits, close semantics
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_shuts_down_thread_pool(self, trained_sql_model,
                                          sql_workload, hyps):
        before = set(threading.enumerate())
        scheduler = ThreadPoolScheduler(max_workers=2)
        session = make_session(trained_sql_model, sql_workload, hyps,
                               scheduler=scheduler)
        (session.inspect("m0", "d0").using("corr").hypotheses(hyps).run())
        session.close()
        assert scheduler._pool is None
        leaked = [t for t in set(threading.enumerate()) - before
                  if t.is_alive()]
        assert not leaked

    def test_close_is_idempotent_and_blocks_queries(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(trained_sql_model, sql_workload, hyps)
        # a builder captured before close() must not execute after it
        # (executing would silently respawn the shut-down pool)
        stale = (session.inspect("m0", "d0").using("corr")
                 .hypotheses(hyps))
        session.close()
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.inspect("m0", "d0")
        with pytest.raises(RuntimeError, match="closed"):
            session.sql("SELECT mid FROM models")
        with pytest.raises(RuntimeError, match="closed"):
            session.register_model("m1", trained_sql_model)
        with pytest.raises(RuntimeError, match="closed"):
            stale.run()
        with pytest.raises(RuntimeError, match="closed"):
            next(stale.stream())
        # the lower-level entry point that takes the session resolves its
        # config through the same guard
        with pytest.raises(RuntimeError, match="closed"):
            run_inspect_spec(session, parse_sql(INSPECT_SQL))

    def test_store_commits_exactly_once_per_run(self, tmp_path,
                                                trained_sql_model,
                                                sql_workload, hyps):
        with make_session(trained_sql_model, sql_workload, hyps,
                          store_path=tmp_path / "store") as session:
            store = session.store
            (session.inspect("m0", "d0").using("corr")
             .hypotheses(hyps).run())
            # cold run: every append lands in ONE deferred manifest commit
            assert store.stats()["commits"] == 1
            session.sql(INSPECT_SQL)
            # warm SQL query: everything served from memory, no new commit
            assert store.stats()["commits"] == 1
        assert store.stats()["commits"] == 1  # close() had nothing to flush

    def test_streamed_run_commits_once(self, tmp_path, trained_sql_model,
                                       sql_workload, hyps):
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)
        with make_session(trained_sql_model, sql_workload, hyps,
                          store_path=tmp_path / "store",
                          config=config) as session:
            partials = list(session.inspect("m0", "d0").using("corr")
                            .hypotheses(hyps).stream())
            assert len(partials) == 3
            assert session.store.stats()["commits"] == 1

    def test_fresh_process_equivalent_session_serves_from_store(
            self, tmp_path, trained_sql_model, sql_workload, hyps):
        path = tmp_path / "store"
        with make_session(trained_sql_model, sql_workload, hyps,
                          store_path=path) as session:
            cold = (session.inspect("m0", "d0").using("corr")
                    .hypotheses(hyps).run())
        # a second session over the same path (fresh caches, as in a new
        # process) must not run the model again
        counting = CountingForwardModel(trained_sql_model)
        with make_session(counting, sql_workload, hyps,
                          store_path=path) as warm_session:
            warm = (warm_session.inspect("m0", "d0").using("corr")
                    .hypotheses(hyps).run())
            assert counting.forward_calls == 0
            assert warm_session.unit_cache.stats()["extractions"] == 0
        assert warm == cold

    def test_stats_report_degradation_fallbacks(self, tmp_path):
        """A fallback taken anywhere in the process (here: an
        unserializable table kept memory-only) is visible in stats()."""
        with Session(db_path=str(tmp_path / "db")) as session:
            before = session.stats()["degraded"].get(
                "db.table-memory-only", 0)
            session.db.create_table("funcs", ["fn"], [(lambda x: x,)])
            session.db.commit()
            assert session.stats()["degraded"]["db.table-memory-only"] == \
                before + 1


# ----------------------------------------------------------------------
# the SQL statement lifecycle: one pool per statement, INTO on completion
# ----------------------------------------------------------------------
SWEEP_INTO_SQL = """
    SELECT D.did AS did, S.uid AS uid, S.hid AS hid,
           S.unit_score AS unit_score INTO saved
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid
    GROUP BY D.did
"""


class TestStatementLifecycle:
    @pytest.fixture
    def session(self, trained_sql_model, sql_workload, hyps):
        # scheduler pinned by *name* on the config: the session resolves
        # it once, to a pool it owns (see TestNamedScheduler)
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS,
                               scheduler="threads")
        with make_session(trained_sql_model, sql_workload, hyps,
                          config=config) as session:
            session.register_dataset("d1", sql_workload.dataset.head(40))
            yield session

    def test_into_persists_once_and_only_when_completed(self, session,
                                                        monkeypatch):
        from repro.db import inspect_clause
        persisted = []
        real = inspect_clause.materialize_into
        monkeypatch.setattr(
            inspect_clause, "materialize_into",
            lambda db, name, columns, rows: (
                persisted.append(name), real(db, name, columns, rows)))
        stream = session.stream_sql(SWEEP_INTO_SQL)
        next(stream)
        stream.close()                    # abandoned: nothing committed
        assert persisted == [] and "saved" not in session.db.tables
        partials = list(session.stream_sql(SWEEP_INTO_SQL))
        assert len(partials) == 3 + 2     # 60 and 40 records / 20 per block
        assert persisted == ["saved"]
        saved = session.sql("SELECT did, uid, hid, unit_score FROM saved")
        assert saved == partials[-1]
        assert session.sql(SWEEP_INTO_SQL) == partials[-1]
        assert persisted == ["saved", "saved"]


class TestNamedScheduler:
    """A scheduler *name* — ``scheduler=`` or pinned on ``config=`` — is
    one pool for the session's life, not one per statement."""

    @pytest.mark.parametrize("how", ["kwarg", "config"])
    @pytest.mark.parametrize("name", ["threads", "processes"])
    def test_built_once(self, name, how, trained_sql_model, sql_workload,
                        hyps, monkeypatch):
        from repro.core import pipeline
        built = []

        class Counting(pipeline._SCHEDULERS[name]):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setitem(pipeline._SCHEDULERS, name, Counting)
        knobs = dict(mode="streaming", block_size=20, early_stop=False,
                     max_records=MAX_RECORDS)
        named = (dict(scheduler=name, config=InspectConfig(**knobs))
                 if how == "kwarg"
                 else dict(config=InspectConfig(scheduler=name, **knobs)))

        def statements(session):
            session.register_dataset("d1", sql_workload.dataset.head(40))
            frames = [session.sql(SWEEP_INTO_SQL), session.sql(SWEEP_INTO_SQL),
                      list(session.stream_sql(SWEEP_INTO_SQL))[-1]]
            stream = session.stream_sql(SWEEP_INTO_SQL)
            next(stream)
            stream.close()                # abandoned: the pool stays up
            return frames + [session.inspect("m0", "d0").using("corr")
                             .hypotheses(hyps).run()]

        with make_session(trained_sql_model, sql_workload, hyps,
                          **named) as session:
            assert built == [session.scheduler]
            frames = statements(session)
            assert session.effective_config().scheduler is session.scheduler
        assert built == [session.scheduler]   # one, for every statement
        assert session.scheduler._pool is None     # and close() released it
        with make_session(trained_sql_model, sql_workload, hyps,
                          scheduler="serial",
                          config=InspectConfig(**knobs)) as serial:
            assert frames == statements(serial)


class TestOneScheduler:
    """However a scheduler is named — not at all, ``scheduler=`` or
    ``config.scheduler``, as a name or an instance — the session resolves
    one: ``session.scheduler`` is the instance every statement runs on
    and the one ``close()`` shuts down."""

    @pytest.mark.parametrize("how", ["default", "kwarg_name",
                                     "kwarg_instance", "config_name",
                                     "config_instance"])
    def test_the_sessions_scheduler_is_the_one_statements_run_on(
            self, how, monkeypatch):
        shut = []
        for cls in (SerialScheduler, ThreadPoolScheduler,
                    ProcessPoolScheduler):
            monkeypatch.setattr(
                cls, "shutdown", lambda self, real=cls.shutdown: (
                    shut.append(self), real(self)))
        mine = ThreadPoolScheduler(max_workers=1)
        kwargs = {"default": {},
                  "kwarg_name": {"scheduler": "threads"},
                  "kwarg_instance": {"scheduler": mine},
                  "config_name": {"config": InspectConfig(
                      scheduler="threads")},
                  "config_instance": {"config": InspectConfig(
                      scheduler=mine)}}[how]
        session = Session(**kwargs)
        assert session.scheduler is session.effective_config().scheduler
        if how.endswith("instance"):
            assert session.scheduler is mine
        session.close()
        assert any(done is session.scheduler for done in shut)

    def test_a_config_pinned_pool_is_the_sessions_and_close_releases_it(
            self, trained_sql_model, sql_workload, hyps):
        pinned = ThreadPoolScheduler(max_workers=2)
        session = make_session(
            trained_sql_model, sql_workload, hyps,
            config=InspectConfig(mode="full", max_records=MAX_RECORDS,
                                 scheduler=pinned))
        assert session.scheduler is pinned
        session.inspect("m0", "d0").using("corr").hypotheses(hyps).run()
        assert pinned._pool is not None
        session.close()
        assert pinned._pool is None

    @pytest.mark.parametrize("pinned", ["serial", "instance"])
    def test_a_scheduler_kwarg_beside_a_pinned_serial_builds_no_pool(
            self, pinned, monkeypatch):
        from repro.core import pipeline
        built = []

        class Counting(pipeline._SCHEDULERS["threads"]):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setitem(pipeline._SCHEDULERS, "threads", Counting)
        spec = SerialScheduler() if pinned == "instance" else pinned
        with Session(scheduler="threads",
                     config=InspectConfig(scheduler=spec)) as session:
            assert isinstance(session.scheduler, SerialScheduler)
            assert session.effective_config().scheduler is session.scheduler
        assert built == []


# ----------------------------------------------------------------------
# config resolution / validation (satellite)
# ----------------------------------------------------------------------
class TestConfigResolution:
    def test_a_pinned_tier_is_kept_and_the_other_filled_once(self):
        mine = HypothesisCache()
        with Session(config=InspectConfig(cache=mine)) as session:
            config = session.effective_config()
            assert config.cache is mine is session.hyp_cache
            assert isinstance(config.unit_cache, UnitBehaviorCache)
            assert config.unit_cache is session.unit_cache
            assert session.effective_config() is config   # no copy per query

    def test_pinned_tiers_are_the_ones_counted_and_reset(
            self, trained_sql_model, sql_workload, hyps):
        hyp_cache, unit_cache = HypothesisCache(), UnitBehaviorCache()
        config = InspectConfig(mode="full", max_records=MAX_RECORDS,
                               cache=hyp_cache, unit_cache=unit_cache)
        with make_session(trained_sql_model, sql_workload, hyps,
                          config=config) as session:
            assert session.hyp_cache is hyp_cache
            assert session.unit_cache is unit_cache
            session.inspect("m0", "d0").using("corr").hypotheses(hyps).run()
            stats = session.stats()
            assert stats["hypothesis_cache"]["extractions"] == len(hyps)
            assert stats["unit_cache"]["extractions"] == 1
            session.reset_counters()
            assert hyp_cache.extractions == unit_cache.extractions == 0
            assert session.stats()["unit_cache"]["extractions"] == 0

    def test_store_is_not_a_session_parameter(self):
        # a session's store is the one it opens at store_path
        with pytest.raises(TypeError, match="store"):
            Session(store=object())

    @pytest.mark.parametrize("kwargs", [
        {"db": Database(), "db_path": "catalog"},
        {"scheduler": "bogus"},
        {"extractor": object()},
    ], ids=["db-and-db_path", "unknown-scheduler", "not-an-extractor"])
    def test_refused_construction_makes_no_store(self, tmp_path, kwargs):
        store = tmp_path / "store"
        with pytest.raises((TypeError, ValueError)):
            Session(store, **kwargs)
        assert not store.exists()

    def test_invalid_scheduler_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            InspectConfig(scheduler="bogus")
        with pytest.raises(TypeError, match="scheduler must be"):
            InspectConfig(scheduler=123)


# ----------------------------------------------------------------------
# the python -m repro CLI (satellite)
# ----------------------------------------------------------------------
SETUP_SCRIPT = """\
from repro.data import generate_sql_workload
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.nn import CharLSTMModel
from repro.util.rng import new_rng

wl = generate_sql_workload("small", n_queries=8, window=20, stride=5,
                           seed=5, max_records=60)
model = CharLSTMModel(len(wl.vocab), n_units=8, rng=new_rng(0),
                      model_id="m0")
session.register_model("m0", model)
session.register_dataset("d0", wl.dataset)
session.register_hypotheses(sql_keyword_hypotheses(("SELECT",)),
                            name="keywords")
"""

CLI_SQL = ("SELECT S.uid, S.unit_score "
           "INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
           "FROM models M, units U, hypotheses H, inputs D "
           "WHERE M.mid = U.mid ORDER BY S.unit_score DESC LIMIT 3")


class TestCli:
    @pytest.fixture
    def setup_script(self, tmp_path):
        path = tmp_path / "setup.py"
        path.write_text(SETUP_SCRIPT, encoding="utf-8")
        return path

    def test_inline_statement(self, setup_script, capsys):
        from repro.__main__ import main
        code = main(["--setup", str(setup_script), "-c", CLI_SQL])
        out = capsys.readouterr().out
        assert code == 0
        assert "S.unit_score" in out
        assert "(3 rows)" in out

    def test_sql_file_with_multiple_statements(self, setup_script,
                                               tmp_path, capsys):
        from repro.__main__ import main
        sql_file = tmp_path / "queries.sql"
        sql_file.write_text(f"SELECT mid FROM models;\n{CLI_SQL};\n",
                            encoding="utf-8")
        code = main(["--setup", str(setup_script), str(sql_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "statement 1/2" in out and "statement 2/2" in out
        assert "m0" in out

    def test_store_path_round_trip(self, setup_script, tmp_path, capsys):
        from repro.__main__ import main
        store = tmp_path / "store"
        assert main(["--store", str(store), "--setup", str(setup_script),
                     "-c", CLI_SQL]) == 0
        # second process-equivalent invocation serves the store warm and
        # prints identical scores
        assert main(["--store", str(store), "--setup", str(setup_script),
                     "-c", CLI_SQL]) == 0
        first, second = capsys.readouterr().out.strip().split("(3 rows)")[:2]
        assert first.strip().splitlines()[-3:] == \
            second.strip().splitlines()[-3:]

    def test_sql_error_exits_nonzero(self, setup_script, capsys):
        from repro.__main__ import main
        code = main(["--setup", str(setup_script),
                     "-c", "SELECT nope FROM missing"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_requires_exactly_one_input(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main([])
        with pytest.raises(SystemExit):
            main(["-c", "SELECT 1", "also_a_file.sql"])
