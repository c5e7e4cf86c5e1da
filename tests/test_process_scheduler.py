"""Shard-parallel process execution: the PR-6 acceptance tests.

The contract under test: a ``ProcessPoolScheduler`` run is bit-identical
to serial for ``run()``, ``.stream()``'s final frame and INSPECT SQL;
workers exchange behaviors through the mmap'd store (no pickled arrays
over the result pipe, one manifest commit per run); cross-process
counters fold back so extraction-once assertions stay meaningful; and
``Session.close()`` reaps the pool even when a stream was abandoned.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import sys

import numpy as np
import pytest

from repro import (DiskBehaviorStore, InspectConfig, ProcessPoolScheduler,
                   SerialScheduler, Session, ThreadPoolScheduler)
from repro.core.pipeline import default_scheduler
from repro.core.schedulers import usable_cpus
from repro.core.shard import ShardTask, run_shard_task
from repro.hypotheses import grammar_hypotheses
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


def worker_shards(root) -> list[str]:
    """Shard files written by pool workers (coordinator stems are hex)."""
    return [name for name in os.listdir(os.path.join(root, "shards"))
            if name.startswith("w")]


# ----------------------------------------------------------------------
# bit-identity: serial vs threads vs processes
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_run_identical_across_schedulers(self, trained_sql_model,
                                             sql_workload, hyps):
        serial = run_frame(trained_sql_model, sql_workload, hyps,
                           scheduler=SerialScheduler())
        threads = run_frame(trained_sql_model, sql_workload, hyps,
                            scheduler=ThreadPoolScheduler(max_workers=2))
        procs = run_frame(trained_sql_model, sql_workload, hyps,
                          scheduler=ProcessPoolScheduler(max_workers=2))
        assert serial == threads
        assert serial == procs

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
            ProcessPoolScheduler(max_workers=2))

    def test_inspect_sql_identical(self, trained_sql_model, sql_workload,
                                   hyps):
        def sql(scheduler):
            with make_session(trained_sql_model, sql_workload, hyps,
                              scheduler=scheduler) as s:
                return s.sql(INSPECT_SQL)

        assert sql(SerialScheduler()) == sql(
            ProcessPoolScheduler(max_workers=2))

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="platform has no spawn start method")
    def test_spawn_context_identical(self, trained_sql_model, sql_workload,
                                     hyps, tmp_path):
        """Tasks must survive a cold interpreter: no closures, no fork
        inheritance — everything travels by pickle/content identity."""
        store = DiskBehaviorStore(tmp_path / "store")
        spawned = run_frame(
            trained_sql_model, sql_workload, hyps, store=store,
            scheduler=ProcessPoolScheduler(max_workers=2,
                                           mp_context="spawn"))
        serial = run_frame(trained_sql_model, sql_workload, hyps,
                           scheduler=SerialScheduler())
        assert spawned == serial
        # the pool genuinely did the extraction: worker-stem shards exist
        assert worker_shards(tmp_path / "store")

    def test_cold_process_then_warm_serial_store_roundtrip(
            self, trained_sql_model, sql_workload, hyps, tmp_path):
        """Worker-written shards are adopted into the manifest and are
        readable by a later, unrelated serial session."""
        cold = run_frame(trained_sql_model, sql_workload, hyps,
                         store=DiskBehaviorStore(tmp_path / "store"),
                         scheduler=ProcessPoolScheduler(max_workers=2))
        assert worker_shards(tmp_path / "store")
        counting = CountingForwardModel(trained_sql_model)
        warm = run_frame(counting, sql_workload, hyps,
                         store=DiskBehaviorStore(tmp_path / "store"),
                         scheduler=SerialScheduler())
        assert cold == warm
        assert counting.forward_calls == 0  # served from adopted shards


# ----------------------------------------------------------------------
# lifecycle: pool reaping, idempotent shutdown, scratch store cleanup
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_no_leaked_workers_after_close(self, trained_sql_model,
                                           sql_workload, hyps):
        session = make_session(
            trained_sql_model, sql_workload, hyps,
            scheduler=ProcessPoolScheduler(max_workers=2))
        session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
        assert multiprocessing.active_children()  # pool is live mid-session
        session.close()
        assert multiprocessing.active_children() == []

    def test_no_leaked_workers_after_abandoned_stream(
            self, trained_sql_model, sql_workload, hyps):
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)
        session = make_session(trained_sql_model, sql_workload, hyps,
                               config=config,
                               scheduler=ProcessPoolScheduler(max_workers=2))
        stream = (session.inspect("m0", "d0").hypotheses(hyps)
                  .using("corr").stream())
        next(stream)
        stream.close()  # abandon mid-run
        session.close()
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self, trained_sql_model, sql_workload,
                                 hyps):
        scheduler = ProcessPoolScheduler(max_workers=2)
        session = make_session(trained_sql_model, sql_workload, hyps,
                               scheduler=scheduler)
        session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
        session.close()
        session.close()
        scheduler.shutdown()  # third shutdown, directly: still a no-op
        assert multiprocessing.active_children() == []

    def test_scratch_store_removed_on_shutdown(self, trained_sql_model,
                                               sql_workload, hyps):
        scheduler = ProcessPoolScheduler(max_workers=2)
        with make_session(trained_sql_model, sql_workload, hyps,
                          scheduler=scheduler) as session:
            session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
            scratch_root = scheduler.scratch_store().root
            assert scratch_root.exists()
        assert not scratch_root.exists()

    def test_stream_outliving_the_scratch_store_finalises_quietly(
            self, monkeypatch, trained_sql_model, sql_workload, hyps):
        """A stream left open across ``close()``: its commit scope closes
        after the scratch directory is gone, with nothing left to publish."""
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        reset_degradation_counts()
        session = make_session(trained_sql_model, sql_workload, hyps,
                               config=config, scheduler="processes")
        stream = (session.inspect("m0", "d0").hypotheses(hyps)
                  .using("corr").stream())
        next(stream)
        session.close()
        del stream
        gc.collect()
        assert unraisable == []
        # (a task that finished after the last block read finds its file gone)
        assert set(degradation_counts()) <= {"shard.files-vanished"}

    def test_scratch_store_commits_once_per_run_in_the_plans_scope(
            self, trained_sql_model, sql_workload, hyps):
        """A store-less session: the tiers sit on the scheduler's scratch
        store, so the plan's commit scope — the only one — covers it."""
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)
        reset_degradation_counts()
        with make_session(trained_sql_model, sql_workload, hyps,
                          config=config, scheduler="processes") as session:
            scratch = session.scheduler.scratch_store()
            assert session.store is None
            assert session.unit_cache.store is scratch
            cold = (session.inspect("m0", "d0").hypotheses(hyps)
                    .using("corr").run())
            assert scratch.stats()["commits"] == 1
            assert worker_shards(scratch.root)    # the exchange did run
            assert session.sql(INSPECT_SQL) is not None
            assert scratch.stats()["commits"] == 1   # warm: nothing to commit
        assert cold == run_frame(trained_sql_model, sql_workload, hyps,
                                 config=config, scheduler=SerialScheduler())
        assert not [event for event in degradation_counts()
                    if event.startswith("shard.")]


# ----------------------------------------------------------------------
# cross-process counter aggregation
# ----------------------------------------------------------------------
class TestCounterFolding:
    def test_extraction_once_with_folded_counters(
            self, trained_sql_model, sql_workload, hyps, tmp_path):
        counting = CountingForwardModel(trained_sql_model)
        with make_session(counting, sql_workload, hyps,
                          store=DiskBehaviorStore(tmp_path / "store"),
                          scheduler=ProcessPoolScheduler(max_workers=2)
                          ) as session:
            session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
            stats = session.stats()
        # single-block workload -> one shard task -> exactly one sweep,
        # folded back from the worker into the live coordinator model
        assert counting.forward_calls == 1
        assert stats["unit_cache"]["extractions"] == 1
        assert stats["hypothesis_cache"]["extractions"] == len(hyps)
        assert stats["store"]["commits"] == 1  # coordinator-only commit

    def test_warm_store_run_extracts_nothing(self, trained_sql_model,
                                             sql_workload, hyps, tmp_path):
        run_frame(trained_sql_model, sql_workload, hyps,
                  store=DiskBehaviorStore(tmp_path / "store"),
                  scheduler=ProcessPoolScheduler(max_workers=2))
        counting = CountingForwardModel(trained_sql_model)
        with make_session(counting, sql_workload, hyps,
                          store=DiskBehaviorStore(tmp_path / "store"),
                          scheduler=ProcessPoolScheduler(max_workers=2)
                          ) as session:
            session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
            stats = session.stats()
        assert counting.forward_calls == 0
        assert stats["unit_cache"]["extractions"] == 0
        assert stats["hypothesis_cache"]["extractions"] == 0
        assert stats["unit_cache"]["disk_hits"] > 0


# ----------------------------------------------------------------------
# graceful degradation: unpicklable payloads extract inline
# ----------------------------------------------------------------------
class _UnpicklableHypothesis:
    """A hypothesis whose closure cannot travel to a worker."""

    def __init__(self, inner):
        self.name = inner.name
        self._inner = inner
        self._blocker = lambda: None  # defeats pickle

    def extract(self, dataset, indices=None):
        return self._inner.extract(dataset, indices)


class TestGracefulDegradation:
    def test_unpicklable_hypothesis_still_identical(self, trained_sql_model,
                                                    sql_workload):
        base = sql_keyword_hypotheses(("SELECT", "FROM"))
        wrapped = [_UnpicklableHypothesis(h) for h in base]
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            pickle.dumps(wrapped[0])
        serial = run_frame(trained_sql_model, sql_workload, wrapped,
                           scheduler=SerialScheduler())
        procs = run_frame(trained_sql_model, sql_workload, wrapped,
                          scheduler=ProcessPoolScheduler(max_workers=2))
        assert serial == procs


    def test_mixed_bundle_ships_its_picklable_members(
            self, trained_sql_model, sql_workload, tmp_path):
        """One worker, so one bundle holding both kinds: the wrapped
        hypothesis extracts inline (one degraded event, as ever), the
        grammar hypotheses beside it still travel — as one pickle."""
        grammar = grammar_hypotheses(sql_workload.grammar,
                                     sql_workload.queries,
                                     sql_workload.trees,
                                     mode="derivation")[:5]
        hyps = grammar + [_UnpicklableHypothesis(
            sql_keyword_hypotheses(("FROM",))[0])]
        serial = run_frame(trained_sql_model, sql_workload, hyps,
                           scheduler=SerialScheduler())
        reset_degradation_counts()
        with make_session(trained_sql_model, sql_workload, hyps,
                          store=DiskBehaviorStore(tmp_path / "store"),
                          scheduler=ProcessPoolScheduler(max_workers=1)
                          ) as session:
            procs = (session.inspect("m0", "d0").hypotheses(hyps)
                     .using("corr").run())
            stats = session.stats()["hypothesis_cache"]
        assert serial == procs
        assert degradation_counts().get("shard.unpicklable") == 1
        # five folded from the worker's bundle, one extracted inline
        assert stats["extractions"] == len(hyps)
        assert stats["disk_hits"] == MAX_RECORDS * len(grammar)


class TestHypothesisBundle:
    def test_bundle_task_runs_from_one_pickle(self, sql_workload, tmp_path):
        ds = sql_workload.dataset
        hyps = grammar_hypotheses(sql_workload.grammar, sql_workload.queries,
                                  sql_workload.trees, mode="derivation")[:6]
        indices = np.array([40, 3, 17])
        task = ShardTask(
            kind="hyp", store_root=str(tmp_path), n_records=ds.n_records,
            n_symbols=ds.n_symbols, dataset_key="bundle-test",
            dataset_blob=pickle.dumps(ds),
            hypotheses_blob=pickle.dumps(hyps),
            items=[(f"hyp/test/{i}", indices) for i in range(len(hyps))])
        shipped = pickle.loads(task.hypotheses_blob)
        assert all(h.provider is shipped[0].provider for h in shipped)
        result = run_shard_task(task)
        assert result["extractions"] == len(task.items) == len(hyps)
        # what was evaluated together is one panel: record-major rows,
        # the items' keys as its members, in column order
        (desc,) = result["descriptors"]
        assert desc["members"] == [key for key, _ in task.items]
        assert desc["row_width"] == ds.n_symbols * len(hyps)
        with open(tmp_path / "shards" / desc["file"], "rb") as segment:
            segment.seek(desc["data"][0])
            cells = np.load(segment).reshape(3, ds.n_symbols, len(hyps))
        for j, hyp in enumerate(hyps):
            assert np.array_equal(cells[:, :, j], hyp.extract(ds, indices))


# ----------------------------------------------------------------------
# default_scheduler selection rules
# ----------------------------------------------------------------------
class TestDefaultScheduler:
    """One usable CPU -> serial, otherwise threads; a store does not enter
    the choice, ``REPRO_SCHEDULER`` overrides it."""

    @pytest.mark.parametrize("forced", ["serial", "threads", "processes"])
    def test_env_override_wins(self, monkeypatch, fake_cpu_count, forced):
        monkeypatch.setenv("REPRO_SCHEDULER", forced)
        fake_cpu_count(4)
        with default_scheduler() as scheduler:
            assert scheduler.name == forced

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
        assert ProcessPoolScheduler().max_workers == 1

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

        def run(store):
            with make_session(trained_sql_model, sql_workload, hyps,
                              config=config, store=store) as session:
                assert isinstance(session.scheduler, ThreadPoolScheduler)
                frame = (session.inspect("m0", "d0").hypotheses(hyps)
                         .using("corr").run())
                return frame, session.stats()

        store = DiskBehaviorStore(tmp_path / "store")
        frame, stats = run(store)
        assert frame == reference
        assert stats["hypothesis_cache"]["extractions"] == len(hyps) * n_blocks
        assert stats["unit_cache"]["extractions"] == 1 * n_blocks
        assert store.commits == 1
        assert not worker_shards(tmp_path / "store")   # committed in-process
        frame, stats = run(DiskBehaviorStore(tmp_path / "store"))
        assert frame == reference
        assert stats["hypothesis_cache"]["extractions"] == 0
        assert stats["unit_cache"]["extractions"] == 0
