"""The schedulers: serial and the thread pool, and how a name picks one.

The contract under test: a ``ThreadPoolScheduler`` run is bit-identical
to serial for ``run()``, ``.stream()``'s final frame and INSPECT SQL, with
serial's tier counters and forward calls; an error the sweep raises
propagates as under serial; ``close()`` is idempotent, abandoned stream
or not, and leaves no pool thread behind.  ``default_scheduler`` picks by
usable CPUs unless ``REPRO_SCHEDULER`` names one, and every way of naming
a scheduler resolves through one table, where ``"processes"`` is an alias
of the thread pool.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest

import repro
from repro import (DiskBehaviorStore, InspectConfig, SerialScheduler,
                   Session, ThreadPoolScheduler)
from repro.core import pipeline, schedulers
from repro.core.pipeline import default_scheduler
from repro.core.schedulers import (_resolve_scheduler, _scheduler_class,
                                   usable_cpus)
from repro.extract import Extractor
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.util.debuglog import degradation_counts, reset_degradation_counts
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


def run_frame(model, workload, hyps, **kwargs):
    with make_session(model, workload, hyps, **kwargs) as session:
        return (session.inspect("m0", "d0").hypotheses(hyps)
                .using("corr").run())


TIER_COUNTERS = ("extractions", "hits", "misses", "disk_hits",
                 "disk_misses")


# ----------------------------------------------------------------------
# bit-identity: serial vs threads
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_run_identical_across_schedulers(self, trained_sql_model,
                                             sql_workload, hyps):
        serial = run_frame(trained_sql_model, sql_workload, hyps,
                           scheduler=SerialScheduler())
        threads = run_frame(trained_sql_model, sql_workload, hyps,
                            scheduler=ThreadPoolScheduler(max_workers=2))
        assert serial == threads

    def test_stream_final_frame_identical(self, trained_sql_model,
                                          sql_workload, hyps):
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)

        def final(scheduler):
            with make_session(trained_sql_model, sql_workload, hyps,
                              config=config, scheduler=scheduler) as s:
                frames = list(s.inspect("m0", "d0").hypotheses(hyps)
                              .using("corr").stream())
            return frames[-1]

        assert final(SerialScheduler()) == final(
            ThreadPoolScheduler(max_workers=2))

    def test_inspect_sql_identical(self, trained_sql_model, sql_workload,
                                   hyps):
        def sql(scheduler):
            with make_session(trained_sql_model, sql_workload, hyps,
                              scheduler=scheduler) as s:
                return s.sql(INSPECT_SQL)

        assert sql(SerialScheduler()) == sql(
            ThreadPoolScheduler(max_workers=2))

    def test_cold_threads_then_warm_serial_store_roundtrip(
            self, trained_sql_model, sql_workload, hyps, tmp_path):
        """What a thread-pool session commits is readable by a later,
        unrelated serial session."""
        cold = run_frame(trained_sql_model, sql_workload, hyps,
                         store_path=tmp_path / "store",
                         scheduler=ThreadPoolScheduler(max_workers=2))
        counting = CountingForwardModel(trained_sql_model)
        warm = run_frame(counting, sql_workload, hyps,
                         store_path=tmp_path / "store",
                         scheduler=SerialScheduler())
        assert cold == warm
        assert counting.forward_calls == 0  # served from the store


# ----------------------------------------------------------------------
# lifecycle: no pool thread outlives close(), idempotent shutdown
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_no_pool_before_the_first_statement_or_after_close(
            self, trained_sql_model, sql_workload, hyps):
        """The pool starts on first use, never starts a child process,
        and is gone after ``close()``."""
        scheduler = ThreadPoolScheduler(max_workers=2)
        session = make_session(trained_sql_model, sql_workload, hyps,
                               scheduler=scheduler)
        assert scheduler._pool is None
        session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
        assert scheduler._pool is not None
        assert multiprocessing.active_children() == []
        session.close()
        assert scheduler._pool is None
        assert multiprocessing.active_children() == []

    def test_no_leaked_workers_after_abandoned_stream(
            self, trained_sql_model, sql_workload, hyps):
        before = set(threading.enumerate())
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)
        scheduler = ThreadPoolScheduler(max_workers=2)
        session = make_session(trained_sql_model, sql_workload, hyps,
                               config=config, scheduler=scheduler)
        stream = (session.inspect("m0", "d0").hypotheses(hyps)
                  .using("corr").stream())
        next(stream)
        stream.close()  # abandon mid-run
        session.close()
        assert scheduler._pool is None
        assert [t for t in set(threading.enumerate()) - before
                if t.is_alive()] == []

    def test_close_is_idempotent(self, trained_sql_model, sql_workload,
                                 hyps):
        scheduler = ThreadPoolScheduler(max_workers=2)
        session = make_session(trained_sql_model, sql_workload, hyps,
                               scheduler=scheduler)
        session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
        session.close()
        session.close()
        scheduler.shutdown()  # third shutdown, directly: still a no-op
        assert scheduler._pool is None


# ----------------------------------------------------------------------
# counters: serial's, forward calls included
# ----------------------------------------------------------------------
class TestCounters:
    def test_extraction_once(
            self, trained_sql_model, sql_workload, hyps, tmp_path):
        counting = CountingForwardModel(trained_sql_model)
        with make_session(counting, sql_workload, hyps,
                          store_path=tmp_path / "store",
                          scheduler=ThreadPoolScheduler(max_workers=2)
                          ) as session:
            session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
            stats = session.stats()
        # one block, one sweep
        assert counting.forward_calls == 1
        assert stats["unit_cache"]["extractions"] == 1
        assert stats["hypothesis_cache"]["extractions"] == len(hyps)
        assert stats["store"]["commits"] == 1

    @pytest.mark.parametrize("store", [False, True])
    def test_streamed_counters_are_serials(self, trained_sql_model,
                                           sql_workload, hyps, tmp_path,
                                           store):
        """Three blocks, cold then warm: every tier counter and the
        model's forward calls equal the serial run's."""
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)

        def run(scheduler, path):
            counting = CountingForwardModel(trained_sql_model)
            with make_session(counting, sql_workload, hyps, config=config,
                              scheduler=scheduler,
                              store_path=path if store else None) as s:
                frames = [s.inspect("m0", "d0").hypotheses(hyps)
                          .using("corr").run() for _ in range(2)]
                stats = s.stats()
            counts = {tier: {name: stats[tier][name]
                             for name in TIER_COUNTERS}
                      for tier in ("unit_cache", "hypothesis_cache")}
            return frames, counts, counting.forward_calls

        serial = run(SerialScheduler(), tmp_path / "serial")
        threads = run(ThreadPoolScheduler(max_workers=2),
                      tmp_path / "threads")
        assert threads == serial
        assert serial[2] == MAX_RECORDS // 20

    def test_abandoned_after_block_one_swept_one_block(
            self, trained_sql_model, sql_workload, hyps):
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)
        counting = CountingForwardModel(trained_sql_model)
        with make_session(counting, sql_workload, hyps, config=config,
                          scheduler=ThreadPoolScheduler(max_workers=2)
                          ) as session:
            stream = (session.inspect("m0", "d0").hypotheses(hyps)
                      .using("corr").stream())
            next(stream)
            stream.close()
            stats = session.stats()
        assert counting.forward_calls == 1
        assert stats["unit_cache"]["extractions"] == 1
        assert stats["hypothesis_cache"]["extractions"] == len(hyps)

    def test_warm_store_run_extracts_nothing(self, trained_sql_model,
                                             sql_workload, hyps, tmp_path):
        run_frame(trained_sql_model, sql_workload, hyps,
                  store_path=tmp_path / "store",
                  scheduler=ThreadPoolScheduler(max_workers=2))
        counting = CountingForwardModel(trained_sql_model)
        with make_session(counting, sql_workload, hyps,
                          store_path=tmp_path / "store",
                          scheduler=ThreadPoolScheduler(max_workers=2)
                          ) as session:
            session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
            stats = session.stats()
        assert counting.forward_calls == 0
        assert stats["unit_cache"]["extractions"] == 0
        assert stats["hypothesis_cache"]["extractions"] == 0
        assert stats["unit_cache"]["disk_hits"] > 0


# ----------------------------------------------------------------------
# what the sweep raises propagates
# ----------------------------------------------------------------------
class _UnpicklableHypothesis:
    """A hypothesis whose closure cannot be pickled."""

    def __init__(self, inner):
        self.name = inner.name
        self._inner = inner
        self._blocker = lambda: None  # defeats pickle

    def extract(self, dataset, indices=None):
        return self._inner.extract(dataset, indices)


class _LambdaCarrier(CountingForwardModel):
    """A model carrying an unpicklable attribute."""

    def __init__(self, inner):
        super().__init__(inner)
        self._blocker = lambda: None


class _WrongRows(Extractor):
    """Sweeps the wrong number of rows."""

    def n_units(self, model) -> int:
        return model.n_units

    def raw_states(self, model, records):
        return np.zeros((3, 1, model.n_units))


class TestGracefulDegradation:
    """No work leaves the process: what cannot be pickled runs on the pool
    as it does inline."""

    def test_unpicklable_hypothesis_still_identical(self, trained_sql_model,
                                                    sql_workload):
        base = sql_keyword_hypotheses(("SELECT", "FROM"))
        wrapped = [_UnpicklableHypothesis(h) for h in base]
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            pickle.dumps(wrapped[0])
        serial = run_frame(trained_sql_model, sql_workload, wrapped,
                           scheduler=SerialScheduler())
        reset_degradation_counts()
        threads = run_frame(trained_sql_model, sql_workload, wrapped,
                            scheduler=ThreadPoolScheduler(max_workers=2))
        assert serial == threads
        assert degradation_counts() == {}

    def test_unpicklable_model_sweeps_as_under_serial(
            self, trained_sql_model, sql_workload, hyps):
        model = _LambdaCarrier(trained_sql_model)
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            pickle.dumps(model)
        serial = run_frame(trained_sql_model, sql_workload, hyps,
                           scheduler=SerialScheduler())
        reset_degradation_counts()
        threads = run_frame(model, sql_workload, hyps,
                            scheduler=ThreadPoolScheduler(max_workers=2))
        assert threads == serial
        assert degradation_counts() == {}
        assert model.forward_calls == 1

    def test_wrong_row_count_raises_as_under_serial(
            self, trained_sql_model, sql_workload, hyps):
        def error(scheduler):
            with pytest.raises(ValueError, match="row mismatch") as info:
                run_frame(trained_sql_model, sql_workload, hyps,
                          extractor=_WrongRows(), scheduler=scheduler)
            return str(info.value)

        want = error(SerialScheduler())
        reset_degradation_counts()
        assert error(ThreadPoolScheduler(max_workers=2)) == want
        assert degradation_counts() == {}    # raised, not worked around


# ----------------------------------------------------------------------
# default_scheduler selection rules
# ----------------------------------------------------------------------
class TestDefaultScheduler:
    """One usable CPU -> serial, otherwise threads; a store does not enter
    the choice, ``REPRO_SCHEDULER`` overrides it."""

    @pytest.mark.parametrize("forced,expected", [
        ("serial", SerialScheduler), ("threads", ThreadPoolScheduler),
        ("processes", ThreadPoolScheduler)])
    def test_env_override_wins(self, monkeypatch, fake_cpu_count, forced,
                               expected):
        monkeypatch.setenv("REPRO_SCHEDULER", forced)
        fake_cpu_count(4)
        with default_scheduler() as scheduler:
            assert type(scheduler) is expected

    @pytest.mark.parametrize("cpus,expected", [(1, SerialScheduler),
                                               (4, ThreadPoolScheduler)])
    def test_cpus_decide_with_and_without_a_store(
            self, monkeypatch, tmp_path, fake_cpu_count, cpus, expected):
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        fake_cpu_count(cpus)
        store = DiskBehaviorStore(tmp_path / "store")
        for scheduler in (default_scheduler(), default_scheduler(store=store)):
            with scheduler:
                assert type(scheduler) is expected

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="platform has no affinity mask")
    def test_one_cpu_affinity_on_a_many_core_host_picks_serial(
            self, monkeypatch):
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2})
        assert usable_cpus() == 1
        assert isinstance(default_scheduler(), SerialScheduler)
        assert ThreadPoolScheduler().max_workers == 1

    def test_store_backed_default_is_bit_identical_and_commits_once(
            self, monkeypatch, tmp_path, fake_cpu_count, trained_sql_model,
            sql_workload, hyps):
        """The path a multi-core user gets: threads over a store."""
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        fake_cpu_count(4)
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)
        n_blocks = MAX_RECORDS // 20
        reference = run_frame(trained_sql_model, sql_workload, hyps,
                              config=config, scheduler=SerialScheduler())

        def run():
            with make_session(trained_sql_model, sql_workload, hyps,
                              config=config,
                              store_path=tmp_path / "store") as session:
                assert type(session.scheduler) is ThreadPoolScheduler
                frame = (session.inspect("m0", "d0").hypotheses(hyps)
                         .using("corr").run())
                return frame, session.stats()

        frame, stats = run()
        assert frame == reference
        assert stats["hypothesis_cache"]["extractions"] == len(hyps) * n_blocks
        assert stats["unit_cache"]["extractions"] == 1 * n_blocks
        assert stats["store"]["commits"] == 1
        frame, stats = run()
        assert frame == reference
        assert stats["hypothesis_cache"]["extractions"] == 0
        assert stats["unit_cache"]["extractions"] == 0


# ----------------------------------------------------------------------
# one table resolves every name
# ----------------------------------------------------------------------
class TestSchedulerNames:
    """``Session(scheduler=)``, ``InspectConfig(scheduler=)`` and
    ``REPRO_SCHEDULER`` resolve a name through one table, where
    ``"processes"`` is an alias of the thread pool."""

    def test_processes_names_the_thread_pool_everywhere(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        with Session(scheduler="processes") as session:
            assert type(session.scheduler) is ThreadPoolScheduler
        with Session(config=InspectConfig(scheduler="processes")) as session:
            assert type(session.scheduler) is ThreadPoolScheduler
        monkeypatch.setenv("REPRO_SCHEDULER", "processes")
        with Session() as session:
            assert type(session.scheduler) is ThreadPoolScheduler

    def test_the_package_exports_two_scheduler_classes(self):
        """No third class stands behind an alias."""
        for names in (dir(repro), repro.__all__):
            assert sorted(n for n in names if n.endswith("Scheduler")) \
                == ["Scheduler", "SerialScheduler", "ThreadPoolScheduler"]

    @pytest.mark.parametrize("spec,cls", [
        (None, SerialScheduler), ("serial", SerialScheduler),
        ("threads", ThreadPoolScheduler), ("processes", ThreadPoolScheduler)])
    def test_a_name_builds_an_owned_scheduler_of_its_class(self, spec, cls):
        assert _scheduler_class(spec) is cls
        scheduler, owned = _resolve_scheduler(spec)
        with scheduler:
            assert (type(scheduler), owned) == (cls, True)

    def test_an_instance_is_run_on_as_given_and_not_owned(self):
        for instance in (SerialScheduler(), ThreadPoolScheduler(2)):
            assert _scheduler_class(instance) is None
            assert _resolve_scheduler(instance) == (instance, False)

    @pytest.mark.parametrize("typo", ["bogus", "thread", "Threads", "SERIAL",
                                      "process", ""])
    def test_an_unknown_name_is_refused_everywhere(self, typo, monkeypatch):
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        with pytest.raises(ValueError, match="unknown scheduler"):
            InspectConfig(scheduler=typo)
        with pytest.raises(ValueError, match="unknown scheduler"):
            Session(scheduler=typo)
        with pytest.raises(ValueError, match="unknown scheduler"):
            _resolve_scheduler(typo)
        if typo:        # an empty REPRO_SCHEDULER forces nothing
            monkeypatch.setenv("REPRO_SCHEDULER", typo)
            with pytest.raises(ValueError, match="unknown scheduler"):
                default_scheduler()

    @pytest.mark.parametrize("spec", [123, 1.5, ["threads"],
                                      ThreadPoolScheduler],
                             ids=["int", "float", "list", "class"])
    def test_a_spec_that_is_no_name_or_instance_is_refused(self, spec):
        for build in (lambda: InspectConfig(scheduler=spec),
                      lambda: Session(scheduler=spec),
                      lambda: _resolve_scheduler(spec)):
            with pytest.raises(TypeError, match="scheduler must be"):
                build()

    def test_no_process_pool_class_or_start_method_is_left(self):
        assert "ProcessPoolScheduler" not in dir(schedulers)
        assert "ProcessPoolScheduler" not in dir(pipeline)
        with pytest.raises(TypeError):
            ThreadPoolScheduler(max_workers=2, mp_context="spawn")
