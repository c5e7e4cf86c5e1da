"""Thread-safety regression tests for a shared :class:`Session`.

The inspection server multiplexes many clients onto one session, so the
session must tolerate concurrent ``register_*`` calls, concurrent SQL,
and interleaved streaming without corrupting registries, counters, or
results.  These tests hammer the session directly (no server in the
loop) so failures point at :mod:`repro.session` itself.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import (InspectConfig, Session, ThreadPoolScheduler, UnitGroup,
                   inspect)
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.measures import get_measure
from repro.nn import CharLSTMModel
from repro.util.rng import new_rng
from repro.util.testing import CountingForwardModel

MAX_RECORDS = 60
#: times each register thread of the registration hammer replaces m0
REREGISTRATIONS = 25

INSPECT_SQL = """
    SELECT S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid
    ORDER BY S.unit_score DESC
"""


class NappingModel(CountingForwardModel):
    """Counts forward sweeps and holds each one open long enough that
    statements started together overlap."""

    def hidden_states(self, ids):
        time.sleep(0.05)
        return super().hidden_states(ids)


def make_session(model, sql_workload) -> Session:
    session = Session(config=InspectConfig(
        max_records=MAX_RECORDS, block_size=16,
        early_stop=False))
    session.register_model("m0", model)
    session.register_dataset("d0", sql_workload.dataset)
    session.register_hypotheses(sql_keyword_hypotheses(("SELECT", "FROM")),
                                name="keywords")
    return session


@pytest.fixture
def session(trained_sql_model, sql_workload):
    with make_session(trained_sql_model, sql_workload) as session:
        yield session


def run_threads(targets, timeout=120):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads)


#: the twin-model statement: its rows name their model
TWIN_SQL = """
    SELECT S.mid, S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid
    ORDER BY S.unit_score DESC
"""


class TestTwinModels:
    """Two registered models with equal parameters share one unit-tier
    entry, and the statement sweeps it through one future per model:
    under a pool the second future waits for the first one's sweep, so
    the tier counts exactly what serial execution counts."""

    def run(self, trained_sql_model, sql_workload, scheduler):
        models = [NappingModel(trained_sql_model) for _ in range(2)]
        with Session(config=InspectConfig(max_records=120, block_size=40,
                                          early_stop=False),
                     scheduler=scheduler) as session:
            for mid, model in zip(("m0", "m1"), models):
                session.register_model(mid, model)
            session.register_dataset("d0", sql_workload.dataset)
            session.register_hypotheses(sql_keyword_hypotheses(
                ("SELECT", "FROM", "WHERE", "AND")), name="keywords")
            frame = session.sql(TWIN_SQL)
            tier = session.stats()["unit_cache"]
        counts = {name: tier[name]
                  for name in ("extractions", "hits", "misses")}
        return frame, counts, sum(model.forward_calls for model in models)

    def test_threads_count_what_serial_counts(self, trained_sql_model,
                                              sql_workload):
        frame, counts, calls = self.run(trained_sql_model, sql_workload,
                                        "serial")
        # three blocks: the first model sweeps each, the second reads it
        assert counts == {"extractions": 3, "hits": 120, "misses": 120}
        pooled = self.run(trained_sql_model, sql_workload,
                          ThreadPoolScheduler(max_workers=2))
        assert pooled[1] == counts
        assert pooled[2] == calls
        assert pooled[0] == frame


class TestConcurrentHammer:
    def test_concurrent_identical_sql_all_agree(self, trained_sql_model,
                                                sql_workload):
        """N threads, one cold statement, one shared session: one forward
        sweep, one hypothesis labelling and one scoring pass per block, as
        a solo run — the first block to miss its statistics claims them
        and the others wait for them and fold, no server needed."""
        solo = NappingModel(trained_sql_model)
        with make_session(solo, sql_workload) as alone:
            baseline = alone.sql(INSPECT_SQL)
            solo_extractions = alone.stats()["unit_cache"]["extractions"]
            solo_labels = alone.stats()["hypothesis_cache"]
        assert solo.forward_calls > 0

        counting = NappingModel(trained_sql_model)
        n = 6
        results: list = [None] * n
        errors: list = []
        start = threading.Barrier(n)

        with make_session(counting, sql_workload) as session:
            def go(i):
                start.wait(30)
                try:
                    results[i] = session.sql(INSPECT_SQL)
                except Exception as exc:   # repro: allow[REP005]
                    errors.append(exc)

            run_threads([lambda i=i: go(i) for i in range(n)])
            tier = session.stats()["unit_cache"]
            labels = session.stats()["hypothesis_cache"]
        assert not errors
        assert counting.forward_calls == solo.forward_calls
        assert tier["extractions"] == solo_extractions
        # one claim per sweep; every wait ended in a join
        assert tier["leads"] == solo_extractions
        assert tier["joins"] == tier["waits"]
        assert tier["inflight"] == 0
        # each block's hypotheses labelled and statistics scored once; the
        # other statements folded them
        assert labels["extractions"] == solo_labels["extractions"] > 0
        assert labels["stat_misses"] == solo_labels["stat_misses"] > 0
        assert labels["stat_hits"] == (n - 1) * solo_labels["stat_misses"]
        for frame in results:
            assert frame == baseline

    def test_registration_races_with_queries(self, trained_sql_model,
                                             sql_workload):
        session = Session(config=InspectConfig(
            max_records=MAX_RECORDS))
        session.register_model("m0", trained_sql_model)
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(
            sql_keyword_hypotheses(("SELECT",)), name="kw0")
        errors: list = []
        start = threading.Barrier(8)
        finished: list = []   # one entry per register thread that returned
        queries: list = []

        def register(i):
            start.wait(30)
            try:
                session.register_hypotheses(
                    sql_keyword_hypotheses(("FROM",)), name=f"kw{i}")
                session.register_dataset(f"d{i}", sql_workload.dataset)
                # the query threads must see m0 throughout each of its
                # replacements
                for _ in range(REREGISTRATIONS):
                    session.register_model("m0", trained_sql_model)
            except Exception as exc:   # repro: allow[REP005]
                errors.append(exc)
            finally:
                finished.append(i)

        def query():
            start.wait(30)
            # query for as long as the registrations run, and once after
            while True:
                done = len(finished) == 4
                try:
                    queries.append(session.sql("SELECT mid FROM models")["mid"])
                except Exception as exc:   # repro: allow[REP005]
                    errors.append(exc)
                    return
                if done:
                    return

        with session:
            run_threads([lambda i=i: register(i) for i in range(1, 5)]
                        + [query] * 4)
            assert not errors
            assert len(queries) > 4
            assert all(mids == ["m0"] for mids in queries), [
                mids for mids in queries if mids != ["m0"]]
            # every registration landed exactly once
            dids = session.sql("SELECT did FROM inputs")["did"]
            assert sorted(dids) == ["d0", "d1", "d2", "d3", "d4"]

    def test_query_counters_are_consistent_under_load(self, session):
        n_ok, n_bad = 4, 3
        before = session.stats()["queries"]

        def ok():
            session.sql("SELECT mid FROM models")

        def bad():
            try:
                session.sql("SELECT nope FROM nowhere")
            except Exception:   # repro: allow[REP005]
                pass

        run_threads([ok] * n_ok + [bad] * n_bad)
        after = session.stats()["queries"]
        assert after["started"] - before["started"] == n_ok + n_bad
        assert after["completed"] - before["completed"] == n_ok
        assert after["failed"] - before["failed"] == n_bad
        assert after["cancelled"] == before["cancelled"]


class TestSharedHypotheses:
    """Cold statements that share hypotheses but no block statistics (a
    second measure, a second model) label each cold cell once between
    them: the first read claims the panel's cold columns, and a read
    finding them claimed waits and gathers them, counting what serial
    execution counts."""

    STATEMENTS = (("m0", "corr"), ("m0", "diff_means"), ("m1", "corr"))

    @staticmethod
    def models(trained_sql_model, sql_workload) -> dict:
        return {"m0": trained_sql_model,
                "m1": CharLSTMModel(len(sql_workload.vocab), n_units=16,
                                    rng=new_rng(2), model_id="m1")}

    @staticmethod
    def groups(models, mid) -> list[UnitGroup]:
        return [UnitGroup(model=models[mid], unit_ids=np.arange(16),
                          name=mid)]

    def run(self, session, models, dataset, hyps, mid, measure):
        return (session.inspect(dataset=dataset).using(measure)
                .hypotheses(hyps).where(groups=self.groups(models, mid))
                .run())

    def test_concurrent_statements_label_each_cell_once(
            self, trained_sql_model, sql_workload, hyps72):
        models = self.models(trained_sql_model, sql_workload)
        dataset = sql_workload.dataset
        references = [
            inspect(None, dataset, get_measure(measure), hyps72,
                    unit_groups=self.groups(models, mid),
                    config=InspectConfig(cache=None, unit_cache=None,
                                         scheduler="serial"))
            for mid, measure in self.STATEMENTS]
        with Session(scheduler="serial") as serial:
            self.run(serial, models, dataset, hyps72, *self.STATEMENTS[0])
            solo = serial.stats()["hypothesis_cache"]["extractions"]
            for statement in self.STATEMENTS[1:]:
                self.run(serial, models, dataset, hyps72, *statement)
            serial_units = serial.stats()["unit_cache"]

        n = len(self.STATEMENTS)
        frames: list = [None] * n
        start = threading.Barrier(n)
        with Session(scheduler="threads") as session:
            def go(i):
                start.wait(30)
                frames[i] = self.run(session, models, dataset, hyps72,
                                     *self.STATEMENTS[i])

            run_threads([lambda i=i: go(i) for i in range(n)])
            labels = session.stats()["hypothesis_cache"]
            units = session.stats()["unit_cache"]
        assert labels["extractions"] == solo == len(hyps72)
        assert frames == references
        names = ("extractions", "hits", "misses")
        assert [units[name] for name in names] \
            == [serial_units[name] for name in names]


class TestStreamTracking:
    def test_completed_stream_counts_once(self, session):
        before = session.stats()["queries"]
        frames = list(session.stream_sql(INSPECT_SQL))
        assert len(frames) > 1
        after = session.stats()["queries"]
        assert after["started"] - before["started"] == 1
        assert after["completed"] - before["completed"] == 1
        assert after["streams_abandoned"] == before["streams_abandoned"]

    def test_abandoned_stream_counts_cancelled(self, session):
        before = session.stats()["queries"]
        stream = session.stream_sql(INSPECT_SQL)
        next(stream)
        stream.close()      # abandon mid-flight, as a disconnect would
        after = session.stats()["queries"]
        assert after["cancelled"] - before["cancelled"] == 1
        assert after["streams_abandoned"] - before["streams_abandoned"] == 1
        assert after["completed"] == before["completed"]

    def test_abandoned_stream_stops_extraction(self, trained_sql_model,
                                               sql_workload):
        counting = CountingForwardModel(trained_sql_model)
        session = Session(config=InspectConfig(
            max_records=MAX_RECORDS, block_size=16,
            early_stop=False, scheduler="threads"))
        session.register_model("m0", counting)
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(
            sql_keyword_hypotheses(("SELECT", "FROM")), name="keywords")
        with session:
            stream = session.stream_sql(INSPECT_SQL)
            next(stream)
            stream.close()
            time.sleep(0.2)    # drain any in-flight prefetched block
            calls_at_abandon = counting.forward_calls
            time.sleep(0.2)    # no further extraction happens
            assert counting.forward_calls == calls_at_abandon
            # only part of the sweep ran, not all of it
            full = CountingForwardModel(trained_sql_model)
        session2 = Session(config=InspectConfig(
            max_records=MAX_RECORDS, block_size=16,
            early_stop=False, scheduler="threads"))
        session2.register_model("m0", full)
        session2.register_dataset("d0", sql_workload.dataset)
        session2.register_hypotheses(
            sql_keyword_hypotheses(("SELECT", "FROM")), name="keywords")
        with session2:
            session2.sql(INSPECT_SQL)
        assert calls_at_abandon < full.forward_calls

    def test_streams_from_two_threads_interleave(self, session):
        baseline = session.sql(INSPECT_SQL)
        finals: list = [None, None]
        errors: list = []

        def consume(i):
            try:
                frames = list(session.stream_sql(INSPECT_SQL))
                finals[i] = frames[-1]
            except Exception as exc:   # repro: allow[REP005]
                errors.append(exc)

        run_threads([lambda i=i: consume(i) for i in range(2)])
        assert not errors
        assert finals[0] == baseline
        assert finals[1] == baseline
