"""The statement trace: structure, not timing.

``repro.util.trace`` is the program's one clock.  These tests pin which
spans a statement crosses in each temperature regime and under each
scheduler, that the counters on the spans are the tier counters, that
concurrent statements keep their trees apart, and that no way of ending
a statement — an error, an abandoned stream, a generator the collector
finalises, a close from another context — leaves a span open or raises
anything of its own.
"""

from __future__ import annotations

import contextvars
import gc
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (HypothesisCache, InspectConfig, InspectionPlan, Session,
                   UnitBehaviorCache, inspect)
from repro.extract import RnnActivationExtractor
from repro.core.groups import all_units_group
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.measures import CorrelationScore
from repro.nn import CharLSTMModel
from repro.util import trace
from repro.util.debuglog import degraded
from repro.util.rng import new_rng
from repro.util.testing import CountingForwardModel
from repro.util.trace import current, span, tracing

MAX_RECORDS = 60
BLOCK = 20
N_BLOCKS = 3
MIDS = ("m0", "m1")

INSPECT_SQL = """
    SELECT S.mid, S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid
    ORDER BY S.unit_score DESC
"""

#: what a warm INSPECT statement crosses on a store-less session under
#: any scheduler, as ``name -> spans per statement``: per block one
#: scoring pass with a span per (group, measure) task, which folds the
#: block statistics kept of it — no unit sweep submitted or awaited, no
#: hypothesis block gathered
WARM = {"parse": 1, "compile": 1, "plan_build": 1,
        "inspection": N_BLOCKS, "score": N_BLOCKS * len(MIDS),
        "assemble": 1}


@pytest.fixture
def hyps():
    return sql_keyword_hypotheses(("SELECT", "FROM"))


def make_session(model, workload, hyps, scheduler, **kwargs) -> Session:
    """A session over two models (the trained one and an untrained
    sibling: distinct parameters, so distinct sweeps), three blocks."""
    session = Session(
        config=InspectConfig(mode="streaming", block_size=BLOCK,
                             early_stop=False, max_records=MAX_RECORDS),
        scheduler=scheduler, **kwargs)
    sibling = CharLSTMModel(len(workload.vocab), n_units=model.n_units,
                            rng=new_rng(2), model_id="untrained_sibling")
    for mid, registered in zip(MIDS, (model, sibling)):
        session.register_model(mid, registered)
    session.register_dataset("d0", workload.dataset)
    session.register_hypotheses(hyps, name="keywords")
    return session


def base_names(root) -> Counter:
    """Spans per base name (``sweep[m0]`` -> ``sweep``) under ``root``."""
    return Counter(node.name.partition("[")[0]
                   for node in root.walk() if node is not root)


def assert_closed(root) -> None:
    assert all(node.end is not None for node in root.walk())
    assert current() is trace._NO_SPAN


TIER_COUNTERS = ("hits", "misses", "disk_hits", "extractions")


def tier_counters(session: Session) -> Counter:
    stats = session.stats()
    return Counter({name: stats["hypothesis_cache"][name]
                    + stats["unit_cache"][name] for name in TIER_COUNTERS})


# ----------------------------------------------------------------------
# the mechanism
# ----------------------------------------------------------------------
class TestSpans:
    def test_untraced_span_is_the_one_shared_noop(self):
        assert span("a") is span("b", "detail") is trace._NO_SPAN
        assert current() is trace._NO_SPAN
        with span("a") as entered:
            assert entered is trace._NO_SPAN
            current().count("dropped")
            current().attach("dropped", 1.0)

    def test_nesting_counters_and_totals(self):
        with tracing("root") as root:
            for _ in range(2):
                with span("block"):
                    with span("sweep", "m0") as sweep:
                        current().count("misses", 3)
                        assert current() is sweep
            current().attach("sweep[m0]", 0.25)
            assert current() is root
        assert_closed(root)
        assert [child.name for child in root.children] == [
            "block", "block", "sweep[m0]"]
        totals = root.totals()
        assert totals["sweep[m0]"]["calls"] == 3
        assert totals["sweep[m0]"]["total_s"] >= 0.25
        assert totals["sweep[m0]"]["misses"] == 6   # counted where it ran
        assert totals["block"].keys() == {"calls", "total_s"}
        assert totals["block"]["calls"] == 2
        # the parts of a sequential tree never exceed the whole
        assert sum(c.duration for c in root.children[:2]) <= root.duration

    def test_a_body_that_raises_closes_its_spans(self):
        with pytest.raises(RuntimeError, match="boom"):
            with tracing("root") as root:
                with span("inner"):
                    raise RuntimeError("boom")
        assert_closed(root)
        assert [node.name for node in root.walk()] == ["root", "inner"]

    def test_closing_from_another_context_needs_no_token(self):
        """A span entered in one context and closed in another (a
        generator finalised elsewhere) raises nothing and leaves the
        closing context's current span alone."""
        with tracing("mine") as mine:
            stray = tracing("stray")
            contextvars.copy_context().run(stray.__enter__)
            stray.__exit__(None, None, None)
            assert current() is mine
        assert stray.end is not None
        assert_closed(mine)

    def test_degraded_events_land_on_the_current_span(self):
        with tracing("root") as root:
            with span("inner") as inner:
                degraded("test.trace-event")
                degraded("test.trace-event")
            degraded("test.other-event")
        assert inner.counters == {"degraded:test.trace-event": 2}
        assert root.counters == {"degraded:test.other-event": 1}


# ----------------------------------------------------------------------
# what a statement crosses
# ----------------------------------------------------------------------
class TestStatementTrace:
    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    def test_warm_statement_crosses_exactly_these_spans(
            self, scheduler, trained_sql_model, sql_workload, hyps):
        with make_session(trained_sql_model, sql_workload, hyps,
                          scheduler) as session:
            session.sql(INSPECT_SQL)
            with tracing("statement") as root:
                session.sql(INSPECT_SQL)
        assert_closed(root)
        assert base_names(root) == WARM         # and so no sweep[...]
        scores = [node for node in root.walk()
                  if node.name.startswith("score[")]
        assert {node.name for node in scores} \
            == {f"score[mid={mid}, corr:pearson]" for mid in MIDS}
        # each folded kept statistics, and counted it where it did
        assert all(node.counters == {"stat_hits": 1} for node in scores)

    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    def test_cold_statement_sweeps_once_per_block_and_model(
            self, scheduler, trained_sql_model, sql_workload, hyps):
        with make_session(trained_sql_model, sql_workload, hyps,
                          scheduler) as session:
            with tracing("statement") as root:
                session.sql(INSPECT_SQL)
        assert_closed(root)
        sweeps = [node for node in root.walk()
                  if node.name.startswith("sweep[")]
        assert len(sweeps) == N_BLOCKS * len(MIDS)
        # timed on the thread that swept, hung from the statement's tree
        assert all(node.parent.name == "unit_extraction"
                   and node.parent.parent is root for node in sweeps)
        assert all(node.duration > 0 for node in sweeps)

    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("store", [False, True])
    def test_span_counters_are_the_statements_tier_counters(
            self, scheduler, store, trained_sql_model, sql_workload, hyps,
            tmp_path):
        kwargs = {"store_path": tmp_path / "store"} if store else {}
        for cold in (True, False):   # cold, then (with a store) disk-warm
            with make_session(trained_sql_model, sql_workload, hyps,
                              scheduler, **kwargs) as session:
                for first in (True, False):   # ..., then memory-warm
                    session.reset_counters()
                    committed = (session.stats()["store"]["commit_s"]
                                 if store else 0.0)
                    with tracing("statement") as root:
                        session.sql(INSPECT_SQL)
                    counted = Counter()
                    for total in root.totals().values():
                        counted.update({name: total.get(name, 0)
                                        for name in TIER_COUNTERS})
                    assert +counted == +tier_counters(session)
                    if store:   # a commit after the frame is in no trace
                        assert "store_commit" not in base_names(root)
                        # ... and only a statement that extracted commits
                        assert (session.stats()["store"]["commit_s"]
                                > committed) == (cold and first)

    def test_lead_and_join_land_on_the_statements_span(
            self, trained_sql_model, sql_workload, hyps):
        """Two identical cold statements start together while m0's first
        sweep is held open: the one that finds a block's statistics
        claimed waits and folds them, so between them they sweep, label
        and score every block once, and each statement's trace counts
        the claims it took and the waits it made."""
        roots: list = []
        gate = threading.Event()

        class Gated(CountingForwardModel):
            def hidden_states(self, ids):
                assert gate.wait(60)
                return super().hidden_states(ids)

        def statement(session):
            with tracing("statement") as root:
                session.sql(INSPECT_SQL)
            roots.append(root)

        with make_session(Gated(trained_sql_model), sql_workload, hyps,
                          "serial") as session:
            tier, labels = session.unit_cache, session.hyp_cache
            threads = [threading.Thread(target=statement, args=(session,))
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            while labels.stats()["stat_waits"] < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            gate.set()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert tier.stats()["inflight"] == 0
            swept = tier.stats()["extractions"]
            labelled = labels.stats()["extractions"]
        tasks = N_BLOCKS * len(MIDS)
        counted = []
        for root in roots:
            assert_closed(root)
            moved = Counter()
            for node in root.walk():
                moved.update(node.counters)
            # a statement's claims are its sweeps, each of its waits in
            # the unit tier ended in a join, and it scored or folded each
            # of its task blocks
            assert moved["leads"] == base_names(root)["sweep"]
            assert moved["joins"] == moved["waits"]
            assert moved["stat_hits"] + moved["stat_misses"] == tasks
            counted.append(moved)
        # the statement that waited on the first block folded it
        waited = [moved for moved in counted if moved["stat_waits"]]
        assert waited and all(moved["stat_hits"] >= len(MIDS)
                              for moved in waited)
        # together they swept each (model, block) once, labelled each
        # (hypothesis, block) once and scored each task block once: what
        # one statement alone extracts, the other folded
        assert (swept, labelled) == (tasks, N_BLOCKS * len(hyps))
        assert sum(moved["leads"] for moved in counted) == swept
        assert sum(moved["extractions"] for moved in counted) \
            == swept + labelled
        assert sum(moved["stat_misses"] for moved in counted) == tasks
        assert sum(moved["stat_hits"] for moved in counted) == tasks

    def test_into_and_plain_select(self, trained_sql_model, sql_workload,
                                   hyps):
        into_sql = """
            SELECT S.uid AS uid, S.hid AS hid, S.unit_score AS score
            INTO saved
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid
        """
        with make_session(trained_sql_model, sql_workload, hyps,
                          "serial") as session:
            with tracing("into") as into:
                session.sql(into_sql)
            with tracing("select") as select:
                session.sql("SELECT uid FROM saved WHERE score > 0")
        # the INTO write follows the last assembly, and only then
        assert [child.name for child in into.children][-2:] == [
            "assemble", "materialize_into"]
        assert base_names(select) == {"parse": 1, "select": 1}

    def test_traced_inspect_has_figure_8s_three_names(
            self, trained_sql_model, sql_workload, hyps):
        for mode in ("streaming", "materialized"):
            with tracing(mode) as root:
                inspect([trained_sql_model], sql_workload.dataset,
                        [CorrelationScore()], hyps,
                        config=InspectConfig(mode=mode, early_stop=False,
                                             max_records=MAX_RECORDS))
            assert {"unit_extraction", "hypothesis_extraction",
                    "inspection"} <= set(root.totals())


# ----------------------------------------------------------------------
# concurrency and every way a statement can end
# ----------------------------------------------------------------------
class TestLifecycles:
    def test_concurrent_statements_get_disjoint_trees(
            self, trained_sql_model, sql_workload, hyps):
        """Two statements at once on one session (one thread pool): each
        root holds its own statement's spans and nobody else's."""
        n_threads, rounds = 4, 5
        roots: list = []
        barrier = threading.Barrier(n_threads)

        def client(session):
            for _ in range(rounds):
                barrier.wait(timeout=60)
                with tracing("statement") as root:
                    session.sql(INSPECT_SQL)
                roots.append(root)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_session(trained_sql_model, sql_workload, hyps,
                              "threads") as session:
                session.sql(INSPECT_SQL)
                threads = [threading.Thread(target=client, args=(session,))
                           for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(roots) == n_threads * rounds
        seen: set[int] = set()
        for root in roots:
            assert_closed(root)
            assert base_names(root) == WARM
            nodes = {id(node) for node in root.walk()}
            assert not nodes & seen
            seen |= nodes

    def test_abandoned_stream_leaves_no_span_open(
            self, trained_sql_model, sql_workload, hyps, tmp_path):
        with make_session(trained_sql_model, sql_workload, hyps, "threads",
                          store_path=tmp_path / "store") as session:
            with tracing("abandoned") as root:
                frames = session.stream_sql(INSPECT_SQL)
                next(frames)
                frames.close()
            assert_closed(root)
            names = base_names(root)
            assert names["inspection"] == 1 and names["assemble"] == 1
            assert names["sweep"] == len(MIDS)     # one block's worth
            # the scope still closed; its commit ran after, in no trace
            assert "store_commit" not in names
            assert session.stats()["store"]["commits"] == 1
            assert session.stats()["queries"]["streams_abandoned"] == 1

    @pytest.mark.parametrize("how", ["collector", "other_thread"])
    def test_block_generator_finalised_elsewhere(
            self, how, trained_sql_model, sql_workload, hyps, tmp_path):
        """The block generator ends outside the trace that drove it — by
        the collector, or closed by a thread with a context of its own:
        its cleanup (futures, the store scope's commit) opens no span on
        the finished tree and raises nothing."""
        from repro.store import DiskBehaviorStore
        store = DiskBehaviorStore(tmp_path / "store")
        plan = InspectionPlan.build(
            [all_units_group(trained_sql_model, RnnActivationExtractor())],
            sql_workload.dataset, [CorrelationScore()], hyps,
            RnnActivationExtractor(),
            InspectConfig(mode="streaming", block_size=BLOCK,
                          early_stop=False, max_records=MAX_RECORDS,
                          scheduler="threads",
                          cache=HypothesisCache(store=store),
                          unit_cache=UnitBehaviorCache(store=store)))
        with tracing("abandoned") as root:
            steps = plan.execute_blocks()
            next(steps)
        before = [node.name for node in root.walk()]
        assert_closed(root)
        if how == "collector":
            del steps
            gc.collect()
        else:   # a new thread: a context of its own, nothing current
            with ThreadPoolExecutor(max_workers=1) as other:
                other.submit(steps.close).result(timeout=60)
        assert [node.name for node in root.walk()] == before
        assert_closed(root)
        assert store.stats()["commits"] == 1
