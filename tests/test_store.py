"""Tests for the persistent behavior store and shared-forward-pass
extraction: crash safety, GC, cross-session/cross-process warm reads with
zero model calls, raw-sweep fusion, and scheduler lifecycle."""

import contextlib
import errno
import glob
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import (DiskBehaviorStore, HypothesisCache, InspectConfig,
                   InspectionPlan, Session, ThreadPoolScheduler,
                   UnitBehaviorCache, UnitGroup, inspect)
from repro.extract import RnnActivationExtractor
from repro.core.cache import hyp_store_key, panel_store_key
from repro.core.source import block_moments
from repro.hypotheses import (CharSetHypothesis, KeywordHypothesis,
                              grammar_hypotheses)
from repro.hypotheses.base import PrecomputedHypothesis
from repro.measures import CorrelationScore, DiffMeansScore, JaccardScore
from repro.nn import CharLSTMModel
from repro.store.segment import SegmentDirectory, write_blob
from repro.util.debuglog import degradation_counts, reset_degradation_counts
from repro.util.rng import new_rng
from repro.util.testing import CountingForwardModel as _CountingForwardModel

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def hyps():
    return [KeywordHypothesis("SELECT"), CharSetHypothesis("space", " ")]


def _frame_tuples(frame):
    """Comparable row tuples (vals kept at full float precision)."""
    return list(zip(frame["model_id"], frame["group_id"], frame["score_id"],
                    frame["hyp_id"], frame["h_unit_id"], frame["val"],
                    frame["kind"], frame["n_rows_seen"], frame["converged"]))


def _marks_char(char):
    """Factory for closure-carrying hypothesis functions (two closures with
    different captured chars must get different content identities)."""
    def fn(text):
        return np.array([1.0 if c == char else 0.0 for c in text])
    return fn


# ----------------------------------------------------------------------
# the disk store itself
# ----------------------------------------------------------------------
class TestDiskBehaviorStore:
    def test_roundtrip(self, tmp_path):
        store = DiskBehaviorStore(tmp_path)
        rows = np.arange(12, dtype=np.float64).reshape(3, 4)
        store.append("k", np.array([0, 2, 5]), rows, n_records=8)
        reader = store.reader("k")
        assert reader is not None
        assert reader.n_filled == 3
        assert np.array_equal(reader.filled_mask(np.arange(8)),
                              [True, False, True, False, False, True,
                               False, False])
        assert np.array_equal(reader.rows(np.array([5, 0])), rows[[2, 0]])

    def test_appends_accumulate_across_instances(self, tmp_path):
        """A second store handle (a "restarted session") sees committed
        shards and can extend the entry at record granularity."""
        first = DiskBehaviorStore(tmp_path)
        first.append("k", np.arange(3), np.ones((3, 2)), n_records=10)
        second = DiskBehaviorStore(tmp_path)
        second.append("k", np.arange(3, 6), np.full((3, 2), 2.0),
                      n_records=10)
        for store in (first, second):
            reader = store.reader("k")
            assert reader.n_filled == 6
            got = reader.rows(np.arange(6))
            assert np.array_equal(got[:3], np.ones((3, 2)))
            assert np.array_equal(got[3:], np.full((3, 2), 2.0))

    def test_dtype_and_multi_shard_gather(self, tmp_path):
        store = DiskBehaviorStore(tmp_path)
        a = np.arange(4, dtype=np.float32).reshape(2, 2)
        b = np.arange(10, 14, dtype=np.float32).reshape(2, 2)
        store.append("k", np.array([1, 3]), a, n_records=5)
        store.append("k", np.array([0, 4]), b, n_records=5)
        reader = store.reader("k")
        got = reader.rows(np.array([0, 1, 3, 4]))
        assert got.dtype == np.float32
        assert np.array_equal(got, np.stack([b[0], a[0], a[1], b[1]]))

    def test_unfilled_read_raises(self, tmp_path):
        store = DiskBehaviorStore(tmp_path)
        store.append("k", np.array([0]), np.zeros((1, 2)), n_records=4)
        with pytest.raises(KeyError):
            store.reader("k").rows(np.array([0, 3]))

    def test_truncated_shard_detected_and_dropped(self, tmp_path):
        """A partial (truncated) shard invalidates the entry: it is never
        served, and the entry is dropped so callers re-extract."""
        store = DiskBehaviorStore(tmp_path)
        store.append("k", np.arange(4), np.ones((4, 8)), n_records=4)
        (data_file,) = glob.glob(str(tmp_path / "shards/*.seg"))
        size = os.path.getsize(data_file)
        with open(data_file, "r+b") as f:
            f.truncate(size // 2)
        fresh = DiskBehaviorStore(tmp_path)  # no cached reader
        assert fresh.reader("k") is None
        assert fresh.stats()["invalid_dropped"] == 1
        assert fresh.stats()["entries"] == 0
        # the key is usable again after the drop
        fresh.append("k", np.arange(2), np.zeros((2, 8)), n_records=4)
        assert fresh.reader("k").n_filled == 2

    def test_manifest_is_the_commit_point(self, tmp_path):
        """Orphan shards (written but never committed) are invisible to
        readers and swept by gc()."""
        store = DiskBehaviorStore(tmp_path)
        store.append("k", np.arange(2), np.zeros((2, 2)), n_records=4)
        orphan = tmp_path / "shards" / "deadbeef-99.npy"
        np.save(orphan, np.ones((5, 5)))
        fresh = DiskBehaviorStore(tmp_path)
        assert fresh.keys() == ["k"]
        report = fresh.gc()
        assert report["orphans_removed"] == 1
        assert not orphan.exists()
        assert fresh.reader("k") is not None  # live shards untouched

    def test_gc_sweeps_shards_not_the_root(self, tmp_path):
        """The sweep's scope is the segment directory: a file the store
        did not write beside the manifest survives gc()."""
        store = DiskBehaviorStore(tmp_path)
        store.append("k", np.arange(2), np.zeros((2, 2)), n_records=4)
        notes = tmp_path / "notes.txt"
        notes.write_text("not a segment")
        assert store.gc()["orphans_removed"] == 0
        assert notes.read_text() == "not a segment"
        assert store.reader("k") is not None

    def test_two_processes_on_one_directory_lose_nothing(self, tmp_path):
        """A writer that read the manifest before another process
        committed layers its commit over that one, not over its memory."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
                [sys.executable, "-c", _SECOND_STORE_WRITER, str(tmp_path)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=env) as child:
            try:
                assert child.stdout.readline().strip() == "opened"
                DiskBehaviorStore(tmp_path).append(
                    "a", np.arange(3), np.full((3, 4), 1.0), n_records=3)
                child.stdin.write("go\n")
                child.stdin.flush()
                assert child.wait(timeout=300) == 0
            finally:
                child.kill()
        fresh = DiskBehaviorStore(tmp_path)
        assert sorted(fresh.keys()) == ["a", "b"]
        for key, value in (("a", 1.0), ("b", 2.0)):
            assert np.array_equal(fresh.reader(key).rows(np.arange(3)),
                                  np.full((3, 4), value))
        assert len(list((tmp_path / "shards").iterdir())) \
            == fresh.stats()["files"] == 2
        assert fresh.gc()["orphans_removed"] == 0

    def test_gc_evicts_lru_under_byte_budget(self, tmp_path):
        store = DiskBehaviorStore(tmp_path)
        for name in ("a", "b", "c"):
            store.append(name, np.arange(10), np.zeros((10, 100)),
                         n_records=10)
        entry_bytes = store.stats()["bytes"] // 3
        store.reader("a")  # refresh recency: "b" becomes the LRU entry
        report = store.gc(max_bytes=2 * entry_bytes + 100)
        assert report["evicted"] == ["b"]
        assert store.stats()["bytes"] <= 2 * entry_bytes + 100
        assert store.reader("a") is not None
        assert store.reader("c") is not None
        # evicted entries re-extract instead of serving stale bytes
        assert store.reader("b") is None

    def test_dropping_an_absent_key_keeps_recency(self, tmp_path):
        """A read's recency bump outlives a drop that removes nothing."""
        store = DiskBehaviorStore(tmp_path)
        for name in ("a", "b"):
            store.append(name, np.arange(10), np.zeros((10, 100)),
                         n_records=10)
        store.reader("a")  # "b" becomes the LRU entry
        store.drop("absent")
        entry_bytes = store.stats()["bytes"] // 2
        assert store.gc(max_bytes=entry_bytes + 100)["evicted"] == ["b"]

    def test_a_gc_that_moves_nothing_publishes_nothing(self, tmp_path):
        store = DiskBehaviorStore(tmp_path)
        store.append("k", np.arange(2), np.zeros((2, 2)), n_records=4)
        committed = os.stat(tmp_path / "manifest.json")
        for _ in range(3):
            assert store.gc() == {"evicted": [], "orphans_removed": 0}
        assert store.stats()["commits"] == 1
        assert os.stat(tmp_path / "manifest.json").st_ino \
            == committed.st_ino

    def test_append_budget_protects_newest(self, tmp_path):
        store = DiskBehaviorStore(tmp_path, max_bytes=1)
        store.append("a", np.arange(4), np.zeros((4, 50)), n_records=4)
        store.append("b", np.arange(4), np.zeros((4, 50)), n_records=4)
        assert store.keys() == ["b"]

    def test_reader_extends_across_appends(self, tmp_path):
        """Appending does not invalidate a cached reader: the same object
        maps just the new shard instead of re-loading everything."""
        store = DiskBehaviorStore(tmp_path)
        store.append("k", np.arange(2), np.zeros((2, 3)), n_records=6)
        first = store.reader("k")
        store.append("k", np.arange(2, 4), np.ones((2, 3)), n_records=6)
        second = store.reader("k")
        assert second is first  # extended in place
        assert second.n_filled == 4
        assert np.array_equal(second.rows(np.arange(2, 4)), np.ones((2, 3)))

    def test_recreated_entry_invalidates_stale_readers(self, tmp_path):
        """A cross-process drop-and-recreate at the same shard count must
        not be confused with an append: the incarnation token changes and
        the stale reader (wrong fill mask, unlinked mmaps) is discarded."""
        holder = DiskBehaviorStore(tmp_path)
        holder.append("k", np.arange(4), np.ones((4, 2)), n_records=4)
        assert holder.reader("k").n_filled == 4  # now cached in `holder`
        other = DiskBehaviorStore(tmp_path)
        other.drop("k")
        other.append("k", np.arange(2), np.full((2, 2), 7.0), n_records=4)
        reader = holder.reader("k")  # same shard count, new incarnation
        assert reader.n_filled == 2
        assert np.array_equal(reader.rows(np.arange(2)),
                              np.full((2, 2), 7.0))

    def test_deferred_commits_batch_into_one_manifest(self, tmp_path):
        """Inside a deferred scope shards are written but invisible; the
        scope exit publishes them all in one commit."""
        store = DiskBehaviorStore(tmp_path)
        with store.deferred_commits():
            store.append("a", np.arange(2), np.zeros((2, 2)), n_records=4)
            store.append("a", np.arange(2, 4), np.ones((2, 2)), n_records=4)
            store.append("b", np.arange(3), np.zeros((3, 5)), n_records=3)
            other = DiskBehaviorStore(tmp_path)  # another process's view
            assert other.reader("a") is None
            assert other.reader("b") is None
        store.flush()   # settles the commit the scope handed off
        fresh = DiskBehaviorStore(tmp_path)
        assert fresh.reader("a").n_filled == 4
        assert fresh.reader("b").n_filled == 3
        assert np.array_equal(fresh.reader("a").rows(np.arange(2, 4)),
                              np.ones((2, 2)))

    @pytest.mark.parametrize("n_parts", [1, 2, 5])
    @pytest.mark.parametrize("dtype,width", [(np.int64, None),
                                             (np.float64, 7)])
    def test_write_blob_is_np_save_of_the_concatenation(self, tmp_path,
                                                        n_parts, dtype, width):
        """The format did not move: a blob written from its parts is the
        bytes ``np.save`` writes for their stack, so this build and its
        parent read each other's segments."""
        rng = np.random.default_rng(n_parts)
        parts = [rng.integers(-9, 9, size=(n,) if width is None
                              else (n, width)).astype(dtype)
                 for n in range(3, 3 + n_parts)]
        with open(tmp_path / "blob", "w+b") as f:
            f.write(b"xyz")                 # the blob starts on a boundary
            offset, nbytes = write_blob(f, parts)
            f.seek(offset)
            written = f.read()
        expected = io.BytesIO()
        np.save(expected, np.concatenate(parts))
        assert offset == 64 and nbytes == len(written)
        assert written == expected.getvalue()

    def test_write_blob_refuses_parts_that_do_not_stack(self, tmp_path):
        with open(tmp_path / "blob", "wb") as f:
            for parts in ([np.zeros((2, 3)), np.zeros((2, 4))],
                          [np.zeros(2), np.zeros(2, dtype=np.int64)]):
                with pytest.raises(ValueError, match="agree"):
                    write_blob(f, parts)
            assert f.tell() == 0

    def test_multi_block_entry_reads_back_in_record_order(self, tmp_path):
        """An entry's appends are written back to back as its one shard;
        the reader's location table puts every record's row where it was
        appended."""
        n = 23
        rows = np.random.default_rng(0).normal(size=(n, 6))
        order = np.random.default_rng(1).permutation(n)
        store = DiskBehaviorStore(tmp_path)
        with store.deferred_commits():
            for block in np.split(order, [4, 5, 17]):
                store.append("k", block, rows[block], n_records=n)
        stats = store.stats()
        assert (stats["appends"], stats["shards"], stats["commits"]) \
            == (4, 1, 1)
        reader = DiskBehaviorStore(tmp_path).reader("k")
        assert np.array_equal(reader.rows(np.arange(n)), rows)
        assert np.array_equal(reader.rows(order[::2]), rows[order[::2]])

    def test_width_change_replaces_entry(self, tmp_path):
        store = DiskBehaviorStore(tmp_path)
        store.append("k", np.arange(2), np.zeros((2, 4)), n_records=4)
        store.append("k", np.arange(2), np.ones((2, 6)), n_records=4)
        reader = store.reader("k")
        assert reader.row_width == 6
        assert np.array_equal(reader.rows(np.arange(2)), np.ones((2, 6)))

    def test_shared_segment_counts_until_its_last_entry_leaves(self,
                                                               tmp_path):
        """Entries committed together share one segment file: deleting
        one never takes the file from under the others, and the byte
        budget sees the file, dead bytes included."""
        store = DiskBehaviorStore(tmp_path)
        filled = {name: np.full((10, 100), float(ord(name)))
                  for name in "abc"}
        with store.deferred_commits():
            for name, rows in filled.items():
                store.append(name, np.arange(10), rows, n_records=10)
        store.flush()   # settles the commit the scope handed off
        (segment,) = (tmp_path / "shards").iterdir()
        whole = store.stats()
        assert (whole["files"], whole["shards"]) == (1, 3)
        assert whole["file_bytes"] == segment.stat().st_size
        budget = 2 * (whole["bytes"] // 3) + 100  # room for two entries
        store.reader("a")  # refresh recency: "b" becomes the LRU entry
        store.drop("b")
        assert segment.exists()
        assert store.reader("b") is None
        for name in "ac":
            assert np.array_equal(store.reader(name).rows(np.arange(10)),
                                  filled[name])
        after = store.stats()
        assert after["bytes"] <= budget < after["file_bytes"]
        assert after["file_bytes"] == whole["file_bytes"]
        # the budget is on bytes on disk: the two live entries fit it, the
        # file they pin does not, so both go (LRU first) and the file with
        # the last of them
        report = store.gc(max_bytes=budget)
        assert report["evicted"] == ["a", "c"]
        assert not segment.exists()
        assert store.stats()["file_bytes"] == 0 <= budget
        # evicted entries re-extract: every key is usable again
        for name, rows in filled.items():
            assert store.reader(name) is None
            store.append(name, np.arange(10), rows, n_records=10)
            assert np.array_equal(store.reader(name).rows(np.arange(10)),
                                  rows)

    # -- the commit unit under faults: right rows or re-extract ---------
    def test_crash_between_segment_and_manifest_rename(self, tmp_path):
        """A process dying after its segment is in place but before the
        manifest names it leaves the previous commit, plus one orphan."""
        child = (
            "import os, sys\n"
            "import numpy as np\n"
            "from repro.store import DiskBehaviorStore, disk\n"
            "store = DiskBehaviorStore(sys.argv[1])\n"
            "store.append('a', np.arange(3), np.ones((3, 4)), n_records=3)\n"
            "rename, renamed = os.replace, []\n"
            "def replace(tmp, path):\n"
            "    if renamed:  # the segment is in place, the manifest next\n"
            "        os._exit(7)\n"
            "    renamed.append(rename(tmp, path))\n"
            "disk.os.replace = replace\n"
            "store.append('b', np.arange(3), np.ones((3, 4)), n_records=3)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", child, str(tmp_path)],
                              env=env, timeout=120)
        assert proc.returncode == 7
        assert len(list((tmp_path / "shards").iterdir())) == 2
        fresh = DiskBehaviorStore(tmp_path)
        assert fresh.keys() == ["a"]
        assert fresh.reader("b") is None
        assert fresh.gc()["orphans_removed"] == 1
        assert np.array_equal(fresh.reader("a").rows(np.arange(3)),
                              np.ones((3, 4)))

    def test_truncated_segment_drops_every_entry_in_it(self, tmp_path):
        store = DiskBehaviorStore(tmp_path)
        store.append("other", np.arange(4), np.full((4, 8), 3.0),
                     n_records=4)
        (kept,) = (tmp_path / "shards").iterdir()
        keys = [f"k{i}" for i in range(5)]
        with store.deferred_commits():
            for key in keys:
                store.append(key, np.arange(4), np.ones((4, 8)), n_records=4)
        store.flush()   # settles the commit the scope handed off
        (torn,) = [p for p in (tmp_path / "shards").iterdir() if p != kept]
        with open(torn, "r+b") as f:
            f.truncate(torn.stat().st_size - 1)
        fresh = DiskBehaviorStore(tmp_path)
        assert fresh.readers(keys) == [None] * len(keys)
        assert fresh.stats()["invalid_dropped"] == len(keys)
        assert fresh.keys() == ["other"]
        assert not torn.exists()  # went with its last entry
        assert np.array_equal(fresh.reader("other").rows(np.arange(4)),
                              np.full((4, 8), 3.0))
        for key in keys:  # every key is usable again
            fresh.append(key, np.arange(2), np.zeros((2, 8)), n_records=4)
            assert fresh.reader(key).n_filled == 2

    @pytest.mark.parametrize("tamper", [
        lambda meta, shard: shard["data"].__setitem__(1, 1 << 20),
        lambda meta, shard: shard["index"].__setitem__(0, 1 << 20),
        lambda meta, shard: shard.update(data=shard["index"],
                                         index=shard["data"]),
        lambda meta, shard: shard["data"].__setitem__(0, 64),
        lambda meta, shard: shard.update(rows=shard["rows"] - 1),
        lambda meta, shard: meta.update(row_width=meta["row_width"] // 2),
        lambda meta, shard: meta.update(dtype="<f4"),
        lambda meta, shard: shard.update(file_bytes=shard["file_bytes"] - 8),
        lambda meta, shard: shard.update(file="missing.seg"),
    ], ids=["data-past-file", "index-past-file", "spans-swapped",
            "span-off-the-blob", "rows", "row_width", "dtype",
            "file_bytes", "file"])
    def test_record_disagreeing_with_its_segment_is_never_served(
            self, tmp_path, tamper):
        """A manifest record whose span runs past the file, or whose npy
        header disagrees with the recorded geometry, takes the corrupt
        entry path — dropped and re-extracted, never a wrong row."""
        store = DiskBehaviorStore(tmp_path)
        with store.deferred_commits():
            store.append("k", np.arange(4), np.ones((4, 8)), n_records=4)
            store.append("good", np.arange(4), np.zeros((4, 8)),
                         n_records=4)
        store.flush()   # settles the commit the scope handed off
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        meta = manifest["entries"]["k"]
        tamper(meta, meta["shards"][0])
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        fresh = DiskBehaviorStore(tmp_path)
        assert fresh.reader("k") is None
        assert fresh.stats()["invalid_dropped"] == 1
        assert fresh.keys() == ["good"]
        assert np.array_equal(fresh.reader("good").rows(np.arange(4)),
                              np.zeros((4, 8)))
        fresh.append("k", np.arange(4), np.ones((4, 8)), n_records=4)
        assert np.array_equal(fresh.reader("k").rows(np.arange(4)),
                              np.ones((4, 8)))


# ----------------------------------------------------------------------
# caches as memory tiers over the disk tier
# ----------------------------------------------------------------------
class TestTieredCaches:
    def test_unit_cache_warm_restart_zero_extractions(
            self, tmp_path, trained_sql_model, sql_workload):
        idx = np.arange(10)
        ext = RnnActivationExtractor()
        cold = UnitBehaviorCache(store=DiskBehaviorStore(tmp_path))
        a = cold.extract(trained_sql_model, ext, sql_workload.dataset, idx)
        assert cold.stats()["extractions"] == 1
        # fresh memory tier + fresh store handle = a restarted session
        warm = UnitBehaviorCache(store=DiskBehaviorStore(tmp_path))
        b = warm.extract(trained_sql_model, ext, sql_workload.dataset, idx)
        stats = warm.stats()
        assert stats["extractions"] == 0
        assert stats["disk_hits"] == 10 and stats["disk_misses"] == 0
        assert np.array_equal(a, b)

    def test_disk_tier_serves_views_without_model(self, tmp_path,
                                                  trained_sql_model,
                                                  sql_workload):
        """Raw rows persisted once serve every transform/unit view later."""
        idx = np.arange(6)
        store = DiskBehaviorStore(tmp_path)
        cold = UnitBehaviorCache(store=store)
        cold.extract(trained_sql_model, RnnActivationExtractor(),
                     sql_workload.dataset, idx)
        warm = UnitBehaviorCache(store=DiskBehaviorStore(tmp_path))
        grad = warm.extract(trained_sql_model,
                            RnnActivationExtractor(transform="gradient"),
                            sql_workload.dataset, idx,
                            hid_units=np.array([2, 5]))
        assert warm.stats()["extractions"] == 0
        direct = RnnActivationExtractor(transform="gradient").extract(
            trained_sql_model, sql_workload.dataset.symbols[idx],
            hid_units=np.array([2, 5]))
        assert np.array_equal(grad, direct)

    def test_hypothesis_cache_warm_restart(self, tmp_path, sql_workload,
                                           hyps):
        idx = np.arange(12)
        cold = HypothesisCache(store=DiskBehaviorStore(tmp_path))
        a = cold.extract(hyps[0], sql_workload.dataset, idx)
        warm = HypothesisCache(store=DiskBehaviorStore(tmp_path))
        b = warm.extract(hyps[0], sql_workload.dataset, idx)
        assert warm.stats()["extractions"] == 0
        assert warm.stats()["disk_hits"] == 12
        assert np.array_equal(a, b)

    def test_partial_streams_compose_across_sessions(self, tmp_path,
                                                     sql_workload, hyps):
        first = HypothesisCache(store=DiskBehaviorStore(tmp_path))
        first.extract(hyps[0], sql_workload.dataset, np.arange(4))
        second = HypothesisCache(store=DiskBehaviorStore(tmp_path))
        second.extract(hyps[0], sql_workload.dataset, np.arange(8))
        stats = second.stats()
        assert stats["disk_hits"] == 4    # the first session's records
        assert stats["disk_misses"] == 4  # the new ones
        assert stats["extractions"] == 1

    def test_edited_hypothesis_never_served_stale(self, tmp_path,
                                                  sql_workload):
        """Hypothesis store entries carry a content identity: a hypothesis
        whose wrapped function changed — same name, same width — must be
        re-extracted in the next session, not served from disk."""
        from repro.hypotheses.base import FunctionHypothesis
        idx = np.arange(6)
        first = HypothesisCache(store=DiskBehaviorStore(tmp_path))
        first.extract(FunctionHypothesis("h", _marks_char("S")),
                      sql_workload.dataset, idx)
        # same name, edited behavior, fresh session
        edited = FunctionHypothesis("h", _marks_char("F"))
        second = HypothesisCache(store=DiskBehaviorStore(tmp_path))
        got = second.extract(edited, sql_workload.dataset, idx)
        assert second.stats()["extractions"] == 1  # not served stale
        assert np.array_equal(got, edited.extract(sql_workload.dataset, idx))
        # while an *identical* reconstruction (a new process re-running the
        # same code) does share the persisted behaviors
        third = HypothesisCache(store=DiskBehaviorStore(tmp_path))
        third.extract(FunctionHypothesis("h", _marks_char("F")),
                      sql_workload.dataset, idx)
        assert third.stats()["extractions"] == 0
        assert third.stats()["disk_hits"] == 6

    def test_hypothesis_identity_stable_across_rebuilds(self, sql_workload):
        """Hypotheses holding helper objects (parse providers, grammars)
        must key identically when re-constructed — by a new process or a
        new session — and never leak process-local addresses into keys."""
        from repro.hypotheses import grammar_hypotheses
        build = lambda: grammar_hypotheses(  # noqa: E731
            sql_workload.grammar, sql_workload.queries, sql_workload.trees,
            mode="derivation")
        for h1, h2 in zip(build(), build()):
            assert h1.cache_key() == h2.cache_key()
            assert " at 0x" not in h1.cache_key()

    def test_corrupt_store_falls_back_to_extraction(self, tmp_path,
                                                    trained_sql_model,
                                                    sql_workload):
        idx = np.arange(5)
        ext = RnnActivationExtractor()
        cold = UnitBehaviorCache(store=DiskBehaviorStore(tmp_path))
        a = cold.extract(trained_sql_model, ext, sql_workload.dataset, idx)
        for path in glob.glob(str(tmp_path / "shards/*.seg")):
            with open(path, "r+b") as f:
                f.truncate(16)
        warm = UnitBehaviorCache(store=DiskBehaviorStore(tmp_path))
        b = warm.extract(trained_sql_model, ext, sql_workload.dataset, idx)
        assert warm.stats()["extractions"] == 1  # re-extracted, not served
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# end-to-end: inspect() against a store path
# ----------------------------------------------------------------------
def _tiers(store) -> dict:
    """The stateless way to a disk tier: both memory tiers over ``store``."""
    return dict(cache=HypothesisCache(store=store),
                unit_cache=UnitBehaviorCache(store=store))


class TestWarmInspect:
    def _config(self, tmp_path, **kwargs):
        kwargs.setdefault("early_stop", False)
        return InspectConfig(mode="streaming", seed=0,
                             **_tiers(DiskBehaviorStore(tmp_path)), **kwargs)

    def test_store_reached_through_the_tiers_commits_once(
            self, tmp_path, trained_sql_model, sql_workload, hyps):
        """The tiers are the store's one home: the run's commit scope, and
        what ``explain()`` reports, come from what they write through."""
        config = self._config(tmp_path, block_size=16)
        assert sql_workload.dataset.n_records > 4 * 16   # several blocks
        frame = inspect([trained_sql_model], sql_workload.dataset,
                        [CorrelationScore()], hyps, config=config)
        stats = config.cache.store.stats()
        assert (stats["commits"], stats["files"]) == (1, 1)
        with Session(config=config, scheduler="serial") as session:
            assert "store=on" in (
                session.inspect(trained_sql_model, sql_workload.dataset)
                .using("corr").hypotheses(hyps).plan().describe())
        reference = inspect(
            [trained_sql_model], sql_workload.dataset, [CorrelationScore()],
            hyps, config=InspectConfig(mode="streaming", early_stop=False,
                                       seed=0, block_size=16))
        assert _frame_tuples(frame) == _frame_tuples(reference)

    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    def test_tiers_on_two_stores_commit_once_each(
            self, tmp_path, scheduler, trained_sql_model, sql_workload,
            hyps):
        hyp_store = DiskBehaviorStore(tmp_path / "h")
        unit_store = DiskBehaviorStore(tmp_path / "u")
        knobs = dict(mode="streaming", early_stop=False, seed=0,
                     block_size=16)
        frame = inspect(
            [trained_sql_model], sql_workload.dataset, [CorrelationScore()],
            hyps, config=InspectConfig(
                cache=HypothesisCache(store=hyp_store),
                unit_cache=UnitBehaviorCache(store=unit_store),
                scheduler=scheduler, **knobs))
        for store, prefix in ((hyp_store, "panel/"), (unit_store, "unit/")):
            stats = store.stats()
            assert (stats["commits"], stats["files"]) == (1, 1)
            assert all(key.startswith(prefix) for key in store.keys())
        reference = inspect([trained_sql_model], sql_workload.dataset,
                            [CorrelationScore()], hyps,
                            config=InspectConfig(**knobs))
        assert _frame_tuples(frame) == _frame_tuples(reference)

    def test_fresh_session_runs_zero_forward_passes(self, tmp_path,
                                                    trained_sql_model,
                                                    sql_workload, hyps):
        calls = {"hyp": 0}

        class _Counting(KeywordHypothesis):
            def extract(self, ds, indices=None):
                calls["hyp"] += 1
                return super().extract(ds, indices)

        counted = [_Counting("SELECT"), hyps[1]]
        cold_model = _CountingForwardModel(trained_sql_model)
        cold = inspect([cold_model], sql_workload.dataset,
                       [CorrelationScore(), DiffMeansScore()], counted,
                       config=self._config(tmp_path))
        assert cold_model.forward_calls > 0
        calls["hyp"] = 0

        # a fresh session: new store handle, new (empty) memory tiers; its
        # first read waits for the commit the cold run left running
        warm_model = _CountingForwardModel(trained_sql_model)
        warm = inspect([warm_model], sql_workload.dataset,
                       [CorrelationScore(), DiffMeansScore()], counted,
                       config=self._config(tmp_path))
        assert warm_model.forward_calls == 0
        assert calls["hyp"] == 0
        assert _frame_tuples(cold) == _frame_tuples(warm)

    def test_warm_scores_bit_identical_to_memory_path(self, tmp_path,
                                                      trained_sql_model,
                                                      sql_workload, hyps):
        """The disk tier must be invisible in the numbers: scores match the
        pure in-memory configuration bit for bit."""
        memory_cfg = InspectConfig(mode="streaming", early_stop=False,
                                   seed=0, unit_cache=UnitBehaviorCache(),
                                   cache=HypothesisCache())
        baseline = inspect([trained_sql_model], sql_workload.dataset,
                           [CorrelationScore()], hyps, config=memory_cfg)
        inspect([trained_sql_model], sql_workload.dataset,
                [CorrelationScore()], hyps, config=self._config(tmp_path))
        warm = inspect([trained_sql_model], sql_workload.dataset,
                       [CorrelationScore()], hyps,
                       config=self._config(tmp_path))
        assert _frame_tuples(baseline) == _frame_tuples(warm)

    def test_store_survives_early_stopped_runs(self, tmp_path,
                                               trained_sql_model,
                                               sql_workload, hyps):
        """Record-granularity persistence: an early-stopped streaming run
        still contributes its extracted prefix to later sessions."""
        cfg = self._config(tmp_path, early_stop=True, block_size=16)
        inspect([trained_sql_model], sql_workload.dataset,
                [CorrelationScore()], hyps, config=cfg)
        store = DiskBehaviorStore(tmp_path)
        unit_keys = [k for k in store.keys() if k.startswith("unit/")]
        assert unit_keys
        reader = store.reader(unit_keys[0])
        assert 0 < reader.n_filled <= sql_workload.dataset.n_records


# ----------------------------------------------------------------------
# the group commit, end to end: flush counts, format upgrade, stat counts
# ----------------------------------------------------------------------
EPOCHS_SQL = ("SELECT M.epoch AS epoch, S.uid AS uid, S.hid AS hid, "
              "S.unit_score AS unit_score "
              "INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
              "FROM models M, units U, hypotheses H, inputs D "
              "WHERE M.mid = U.mid GROUP BY M.epoch")


class TestGroupCommit:
    CONFIG = dict(early_stop=False, block_size=128)

    def _session(self, sql_workload, hyps, store=None, n_models=1,
                 **kwargs) -> Session:
        kwargs.setdefault("config", InspectConfig(**self.CONFIG))
        session = Session(None if store is None else str(store), **kwargs)
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(hyps)
        for epoch in range(n_models):
            session.register_model(
                f"epoch_{epoch}",
                CharLSTMModel(len(sql_workload.vocab), n_units=8,
                              rng=new_rng(epoch), model_id=f"epoch_{epoch}"),
                epoch=epoch)
        return session

    def _reference(self, sql_workload, hyps):
        """The statement's frame, serial and with no tier at all."""
        with self._session(
                sql_workload, hyps, scheduler="serial",
                config=InspectConfig(cache=None, unit_cache=None,
                                     **self.CONFIG)) as session:
            return session.sql(EPOCHS_SQL)

    @pytest.fixture
    def fsyncs(self, monkeypatch, tmp_path):
        """Number of ``os.fsync`` calls so far, forked pool workers'
        included (each call also appends a byte to a log file)."""
        monkeypatch.delenv("REPRO_DB_PATH", raising=False)  # no persistent db
        log = tmp_path / "fsync.log"
        log.touch()
        real = os.fsync

        def counting(fd):
            with open(log, "ab") as f:
                f.write(b".")
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return lambda: log.stat().st_size

    @pytest.mark.parametrize("n_hyps", [8, 72])
    def test_cold_serial_statement_fsyncs_twice(self, tmp_path, fsyncs,
                                                sql_workload, hyps72,
                                                n_hyps):
        """One segment, one manifest, and one panel beside the unit entry
        — however many hypotheses commit."""
        with self._session(sql_workload, hyps72[:n_hyps], tmp_path / "s",
                           scheduler="serial") as session:
            session.sql(EPOCHS_SQL)
            stats = session.stats()["store"]
        assert fsyncs() == 2
        assert (stats["files"], stats["commits"]) == (1, 1)
        assert stats["shards"] == stats["entries"] == 2

    def test_cold_threads_statement_fsyncs_twice(
            self, tmp_path, fsyncs, sql_workload, hyps72):
        """As under serial: one segment and one manifest."""
        with self._session(sql_workload, hyps72, tmp_path / "s",
                           scheduler="threads") as session:
            session.sql(EPOCHS_SQL)
            stats = session.stats()["store"]
        assert fsyncs() == 2
        assert (stats["files"], stats["commits"]) == (1, 1)
        assert stats["shards"] == stats["entries"] == 2

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_version_1_directory_reads_as_empty_and_says_so(
            self, tmp_path, sql_workload, hyps72, version):
        """Neither the file-pair format (1), the per-hypothesis entries (2),
        the record-major unit rows (3), the float64-only panels (4) nor the
        ``clock`` manifest (5) are read: the upgraded store re-extracts,
        reports the fact once, and gc() sweeps the old files."""
        hyps = hyps72[:6]
        reference = self._reference(sql_workload, hyps)
        with self._session(sql_workload, hyps, tmp_path / "new") as session:
            session.sql(EPOCHS_SQL)
            cold = session.stats()

        old = tmp_path / "old"
        if version == 1:
            (old / "shards").mkdir(parents=True)
            pair = {"data": "0123456789abcdef-1-77.npy",
                    "index": "0123456789abcdef-1-77.idx.npy", "rows": 3}
            np.save(old / "shards" / pair["data"], np.ones((3, 4)))
            np.save(old / "shards" / pair["index"], np.arange(3))
            for part in ("data", "index"):
                pair[f"{part}_bytes"] = os.path.getsize(
                    old / "shards" / pair[part])
            entries = {"unit/stale": {
                "n_records": 3, "row_width": 4, "dtype": "<f8",
                "created": 1, "last_used": 1, "shards": [pair],
                "nbytes": pair["data_bytes"] + pair["index_bytes"]}}
            stale_files = [pair["data"], pair["index"]]
        else:   # segments as now, entries as version 2 to 5 wrote them
            # 2: one entry per hypothesis, no members; 3: unit rows
            # record-major, no n_symbols; 4: a panel, always float64;
            # 5: a panel as now
            stale = {2: "hyp/stale", 3: "unit/stale", 4: "panel/stale",
                     5: "panel/stale"}[version]
            DiskBehaviorStore(old).append(
                stale, np.arange(3), np.full((3, 4), 0.5), n_records=3,
                members=["m0", "m1"] if version >= 4 else None)
            entries = json.loads((old / "manifest.json").read_text())[
                "entries"]
            if version < 4:
                del entries[stale]["n_symbols"]
            if version == 2:
                del entries[stale]["members"]
            # (under a name this process's next commit cannot reuse)
            (shard,) = entries[stale]["shards"]
            stale_files = ["9-1.seg"]
            written = old / "shards" / shard["file"]
            (old / "shards" / stale_files[0]).write_bytes(
                written.read_bytes())
            written.unlink()
            shard["file"] = stale_files[0]
        (old / "manifest.json").write_text(json.dumps(
            {"version": version, "clock": 1, "entries": entries}))
        stale = next(iter(entries))

        reset_degradation_counts()
        with self._session(sql_workload, hyps, old) as session:
            frame = session.sql(EPOCHS_SQL)
            upgraded = session.stats()
        assert frame == reference
        for tier in ("hypothesis_cache", "unit_cache"):
            assert upgraded[tier]["extractions"] \
                == cold[tier]["extractions"] > 0
        assert upgraded["degraded"]["store.manifest-version"] == 1
        assert stale not in DiskBehaviorStore(old).keys()
        assert DiskBehaviorStore(old).gc()["orphans_removed"] \
            == len(stale_files)
        assert not (old / "shards" / stale_files[0]).exists()
        assert degradation_counts()["store.manifest-version"] == 1

        with self._session(sql_workload, hyps, old) as session:
            assert session.sql(EPOCHS_SQL) == reference
            warm = session.stats()
        for tier in ("hypothesis_cache", "unit_cache"):
            assert warm[tier]["extractions"] == 0
            assert warm[tier]["disk_hits"] > 0

    def test_fresh_session_maps_a_whole_unit_entry(self, tmp_path,
                                                   sql_workload, hyps72):
        """A unit entry one shard holds whole, in record order, is served
        as that shard's mapping — no gather, no transpose, no copy — with
        the frame and the tier counters a gathered read gives."""
        hyps = hyps72[:6]
        reference = self._reference(sql_workload, hyps)
        with self._session(sql_workload, hyps, tmp_path,
                           scheduler="threads") as session:
            session.sql(EPOCHS_SQL)
        with self._session(sql_workload, hyps, tmp_path,
                           scheduler="serial") as session:
            frame = session.sql(EPOCHS_SQL)
            (entry,) = session.unit_cache._entries.values()
            reader = session.store.reader(entry.store_key)
            counts = session.stats()["unit_cache"]
        assert frame == reference
        assert reader.n_shards == 1 and reader.whole is not None
        assert np.shares_memory(entry.matrix, reader.whole)
        assert not entry.matrix.flags.writeable
        n = sql_workload.dataset.n_records
        assert (counts["disk_hits"], counts["misses"], counts["hits"],
                counts["disk_misses"], counts["extractions"]) \
            == (n, n, 0, 0, 0)

    def test_unit_entry_filled_across_sessions_is_gathered(
            self, tmp_path, sql_workload, hyps72):
        """An early-stopped statement, then a full one: the entry is two
        shards, no mapping holds it whole, and the shard-by-shard gather
        serves the same frame."""
        hyps = hyps72[:6]
        n = sql_workload.dataset.n_records
        reference = self._reference(sql_workload, hyps)
        early = InspectConfig(early_stop=True, error_threshold=0.5,
                              block_size=64)
        with self._session(sql_workload, hyps, tmp_path, config=early,
                           scheduler="serial") as session:
            session.sql(EPOCHS_SQL)
            first = session.stats()["unit_cache"]["extractions"]
        with self._session(sql_workload, hyps, tmp_path,
                           scheduler="serial") as session:
            assert session.sql(EPOCHS_SQL) == reference
            second = session.stats()["unit_cache"]
        assert first > 0 and second["extractions"] > 0
        assert 0 < second["disk_hits"] < n    # the early statement's records
        with self._session(sql_workload, hyps, tmp_path,
                           scheduler="serial") as session:
            frame = session.sql(EPOCHS_SQL)
            (entry,) = session.unit_cache._entries.values()
            reader = session.store.reader(entry.store_key)
            counts = session.stats()["unit_cache"]
        assert frame == reference
        assert reader.n_shards == 2 and reader.whole is None
        assert entry.matrix.flags.writeable
        assert (counts["disk_hits"], counts["extractions"]) == (n, 0)

    def test_threads_store_reads_back_under_serial(
            self, tmp_path, sql_workload, hyps72):
        """What a thread-pool session commits, a serial session serves
        unchanged."""
        hyps = hyps72[:6]
        reference = self._reference(sql_workload, hyps)
        with self._session(sql_workload, hyps, tmp_path,
                           scheduler="threads") as session:
            assert session.sql(EPOCHS_SQL) == reference
        with self._session(sql_workload, hyps, tmp_path,
                           scheduler="serial") as session:
            frame = session.sql(EPOCHS_SQL)
            counts = session.stats()["unit_cache"]
        assert frame == reference
        assert (counts["disk_hits"], counts["extractions"]) \
            == (sql_workload.dataset.n_records, 0)
        (key,) = [k for k in DiskBehaviorStore(tmp_path).keys()
                  if k.startswith("unit/")]
        assert DiskBehaviorStore(tmp_path).reader(key).n_symbols \
            == sql_workload.dataset.n_symbols

    def test_unreadable_manifest_is_reported_a_new_store_is_not(
            self, tmp_path):
        reset_degradation_counts()
        assert DiskBehaviorStore(tmp_path / "new").keys() == []
        assert degradation_counts() == {}
        (tmp_path / "new" / "manifest.json").write_text("{ torn")
        assert DiskBehaviorStore(tmp_path / "new").keys() == []
        assert degradation_counts() == {"store.manifest-unreadable": 1}

    def test_disk_warm_epoch_statement_checks_the_manifest_per_block(
            self, tmp_path, monkeypatch, sql_workload, hyps72):
        """One manifest ``stat`` per block read, not one per key (228 per
        statement before ``readers``), with the same frame and the same
        tier counters."""
        n_models = 4
        with self._session(sql_workload, hyps72, tmp_path,
                           n_models=n_models) as session:
            cold = session.sql(EPOCHS_SQL)
        stats_calls = []
        real = SegmentDirectory.stat
        monkeypatch.setattr(
            SegmentDirectory, "stat",
            lambda self: stats_calls.append(1) or real(self))
        with self._session(sql_workload, hyps72, tmp_path,
                           n_models=n_models) as session:
            warm = session.sql(EPOCHS_SQL)
            during = len(stats_calls)
            tiers = session.stats()
        assert warm == cold
        assert 0 < during <= 24
        n_records = sql_workload.dataset.n_records
        for tier, columns in (("hypothesis_cache", len(hyps72)),
                              ("unit_cache", n_models)):
            counts = tiers[tier]
            assert counts["extractions"] == counts["disk_misses"] == 0
            assert counts["disk_hits"] == counts["misses"] \
                == n_records * columns
            assert counts["hits"] == 0


# ----------------------------------------------------------------------
# the panel blob under faults (the store-side sibling of
# tests/test_db_storage.py::TestSegmentFaults): a typed error inside the
# store, that panel dropped and nothing else, its members re-extracted
# ----------------------------------------------------------------------
class TestSegmentFaults:
    BLOCK = 128

    def _session(self, sql_workload, hyps, store=None, **caches) -> Session:
        config = InspectConfig(early_stop=False, shuffle=False,
                               block_size=self.BLOCK, **caches)
        session = Session(store and str(store), config=config,
                          scheduler="serial")
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(hyps)
        session.register_model(
            "epoch_0", CharLSTMModel(len(sql_workload.vocab), n_units=8,
                                     rng=new_rng(0), model_id="epoch_0"),
            epoch=0)
        return session

    @pytest.fixture
    def populated(self, tmp_path, sql_workload, hyps72):
        """A store whose 72-member panel sits in a segment of its own
        (written by a bare tier) beside the unit entry a statement then
        added; with the serial uncached frame of that statement."""
        dataset = sql_workload.dataset
        store = DiskBehaviorStore(tmp_path / "s")
        tier = HypothesisCache(store=store)
        with store.deferred_commits():
            for start in range(0, dataset.n_records, self.BLOCK):
                tier.extract_block(
                    hyps72, dataset,
                    np.arange(start, min(start + self.BLOCK,
                                         dataset.n_records)))
        store.flush()   # settles the commit the scope handed off
        (panel_file,) = (tmp_path / "s" / "shards").iterdir()
        with self._session(sql_workload, hyps72, cache=None,
                           unit_cache=None) as session:
            reference = session.sql(EPOCHS_SQL)
        with self._session(sql_workload, hyps72, tmp_path / "s") as session:
            assert session.sql(EPOCHS_SQL) == reference
            stats = session.stats()
        assert stats["hypothesis_cache"]["extractions"] == 0
        assert stats["store"]["entries"] == stats["store"]["files"] == 2
        return tmp_path / "s", panel_file, reference

    @staticmethod
    def _panel(path) -> tuple[str, dict]:
        manifest = json.loads((path / "manifest.json").read_text())
        (key,) = [k for k in manifest["entries"] if k.startswith("panel/")]
        return key, manifest["entries"][key]

    def _assert_only_the_panel_is_lost(self, path, sql_workload, hyps72,
                                       reference) -> None:
        key, meta = self._panel(path)
        with self._session(sql_workload, hyps72, path) as session:
            assert session.sql(EPOCHS_SQL) == reference
            stats = session.stats()
        n_blocks = -(-sql_workload.dataset.n_records // self.BLOCK)
        assert stats["store"]["invalid_dropped"] == 1
        assert stats["hypothesis_cache"]["extractions"] == 72 * n_blocks
        assert stats["hypothesis_cache"]["disk_hits"] == 0
        assert stats["unit_cache"]["extractions"] == 0   # its entry served
        # the members are back under the same key, in a new incarnation
        new_key, new_meta = self._panel(path)
        assert new_key == key and new_meta["created"] != meta["created"]
        with self._session(sql_workload, hyps72, path) as session:
            assert session.sql(EPOCHS_SQL) == reference
            assert session.stats()["hypothesis_cache"]["extractions"] == 0

    def _assert_reader_raises(self, path) -> None:
        from repro.store.disk import StoreEntryReader
        from repro.store.segment import CorruptEntryError, map_segment
        key, meta = self._panel(path)
        with pytest.raises(CorruptEntryError):
            StoreEntryReader(key, meta, lambda name, size: map_segment(
                path / "shards" / name, size))

    def test_flipped_header_byte(self, populated, sql_workload, hyps72):
        path, panel_file, reference = populated
        offset = self._panel(path)[1]["shards"][0]["data"][0]
        raw = bytearray(panel_file.read_bytes())
        raw[offset + 30] ^= 0xFF            # inside the npy header's dict
        panel_file.write_bytes(bytes(raw))
        self._assert_reader_raises(path)
        self._assert_only_the_panel_is_lost(path, sql_workload, hyps72,
                                            reference)

    def test_truncated_panel(self, populated, sql_workload, hyps72):
        path, panel_file, reference = populated
        with open(panel_file, "r+b") as f:
            f.truncate(panel_file.stat().st_size - 1)
        self._assert_reader_raises(path)
        self._assert_only_the_panel_is_lost(path, sql_workload, hyps72,
                                            reference)
        assert not panel_file.exists()      # went with its only entry

    def test_disk_filling_mid_segment_publishes_nothing(
            self, tmp_path, monkeypatch, sql_workload, hyps72):
        """A part's ``tofile`` raises ENOSPC after the blob's header and
        earlier parts went out: no segment becomes visible, the manifest
        stays as it was, the commit's error is the next flush's and the
        session answers the next statement; a later session re-extracts."""
        from repro.store import disk

        n_blocks = -(-sql_workload.dataset.n_records // self.BLOCK)
        assert n_blocks >= 2            # bytes are out before the fault
        path = tmp_path / "s"
        DiskBehaviorStore(path).append("other", np.arange(4),
                                       np.ones((4, 8)), n_records=4)
        committed = (path / "manifest.json").read_bytes()
        (kept,) = (path / "shards").glob("*.seg")
        root_before = sorted(p.name for p in path.iterdir())
        with self._session(sql_workload, hyps72, cache=None,
                           unit_cache=None) as session:
            reference = session.sql(EPOCHS_SQL)
        with self._session(sql_workload, hyps72, path) as session:
            with monkeypatch.context() as patch:
                patch.setattr(disk, "write_blob",
                              write_blob_last_part_failing)
                session.sql(EPOCHS_SQL)    # its commit runs after it
                with pytest.raises(OSError) as caught:
                    session.store.flush()
            assert caught.value.errno == errno.ENOSPC
            # not even the segment's temp file is left behind
            assert list((path / "shards").iterdir()) == [kept]
            assert sorted(p.name for p in path.iterdir()) == root_before
            assert (path / "manifest.json").read_bytes() == committed
            assert session.stats()["store"]["commits"] == 0
            assert session.sql(EPOCHS_SQL) == reference
        with self._session(sql_workload, hyps72, path) as session:
            assert session.sql(EPOCHS_SQL) == reference
            stats = session.stats()
        assert stats["hypothesis_cache"]["extractions"] == 72 * n_blocks
        assert stats["unit_cache"]["extractions"] == n_blocks
        assert (stats["store"]["commits"], stats["store"]["entries"]) \
            == (1, 3)

    @pytest.mark.parametrize("fault", ["header dtype byte", "manifest <f8"])
    def test_a_uint8_panel_read_at_another_width(
            self, populated, sql_workload, hyps72, fault):
        """The label panel is a ``|u1`` blob; a flipped byte in its
        header's dtype, or a manifest that says ``<f8`` over it, is a
        typed error, never cells read at the wrong width: the panel
        re-extracts (at label width again) and the frame stays."""
        path, panel_file, reference = populated
        key, meta = self._panel(path)
        assert meta["dtype"] == "|u1"
        if fault == "header dtype byte":
            offset = meta["shards"][0]["data"][0]
            raw = bytearray(panel_file.read_bytes())
            at = raw.index(b"'|u1'", offset, offset + 128)
            raw[at + 2] ^= ord("u") ^ ord("i")      # now says '|i1'
            panel_file.write_bytes(bytes(raw))
        else:
            manifest = json.loads((path / "manifest.json").read_text())
            manifest["entries"][key]["dtype"] = "<f8"
            (path / "manifest.json").write_text(json.dumps(manifest))
        self._assert_reader_raises(path)
        self._assert_only_the_panel_is_lost(path, sql_workload, hyps72,
                                            reference)
        assert self._panel(path)[1]["dtype"] == "|u1"

    @pytest.mark.parametrize("keep", [71, 36])
    def test_members_disagreeing_with_the_row_width(
            self, populated, sql_workload, hyps72, keep):
        """71 members do not divide the rows; 36 do, into columns of the
        wrong width — either way no column can be told from its
        neighbour, so none is served."""
        path, _, reference = populated
        manifest = json.loads((path / "manifest.json").read_text())
        key, _ = self._panel(path)
        del manifest["entries"][key]["members"][keep:]
        (path / "manifest.json").write_text(json.dumps(manifest))
        self._assert_only_the_panel_is_lost(path, sql_workload, hyps72,
                                            reference)

    def test_gc_evicts_whole_panels_and_a_segment_with_its_last(
            self, tmp_path):
        store = DiskBehaviorStore(tmp_path)
        rows = np.arange(10 * 12, dtype=float).reshape(10, 12)
        with store.deferred_commits():      # two panels, one segment
            store.append("panel/a", np.arange(10), rows, 10,
                         members=["m0", "m1", "m2"])
            store.append("panel/b", np.arange(10), rows[:, :8] + 1, 10,
                         members=["m2", "m3"])
        store.flush()   # settles the commit the scope handed off
        (shared,) = (tmp_path / "shards").iterdir()
        store.append("panel/c", np.arange(10), rows[:, :4] + 2, 10,
                     members=["m4"])

        def holders():
            return {reader.key: (pos.tolist(), cols.tolist())
                    for reader, pos, cols
                    in store.panels(["m0", "m2", "m3", "m4"], 4)}
        assert holders() == {"panel/a": ([0, 1], [0, 2]),
                             "panel/b": ([1, 2], [0, 1]),
                             "panel/c": ([3], [0])}
        # least recently used first, a panel at a time: "a" alone frees
        # nothing (the segment it shares with "b" stays, dead bytes
        # counted), so "b" follows and the file goes with it
        report = store.gc(max_bytes=store.stats()["file_bytes"] - 1)
        assert report["evicted"] == ["panel/a", "panel/b"]
        assert not shared.exists()
        assert store.stats()["evictions"] == 2
        assert holders() == {"panel/c": ([3], [0])}
        assert np.array_equal(store.reader("panel/c").rows(np.arange(10)),
                              rows[:, :4] + 2)


    @pytest.mark.parametrize("seen_by", ["flush", "close", "gc", "drop"])
    def test_a_commit_failing_after_the_frame_is_raised_once(
            self, tmp_path, monkeypatch, sql_workload, hyps72, seen_by):
        """ENOSPC in the commit a statement left running: the statement's
        frame is the reference, nothing is published, the failure is
        reported when it happens, and the next ``flush``, ``close``,
        ``gc`` or ``drop`` raises it — once."""
        from repro.store import disk
        path = tmp_path / "s"
        DiskBehaviorStore(path).append("other", np.arange(4),
                                       np.ones((4, 8)), n_records=4)
        committed = (path / "manifest.json").read_bytes()
        with self._session(sql_workload, hyps72, cache=None,
                           unit_cache=None) as session:
            reference = session.sql(EPOCHS_SQL)
        reset_degradation_counts()
        session = self._session(sql_workload, hyps72, path)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(disk, "write_blob",
                              write_blob_last_part_failing)
                assert session.sql(EPOCHS_SQL) == reference
                session.stats()     # waits for the commit, raises nothing
            assert degradation_counts()["store.async-commit-failed"] == 1
            assert (path / "manifest.json").read_bytes() == committed
            assert not list(path.rglob("*.tmp.*"))
            assert session.sql(EPOCHS_SQL) == reference
            see = {"flush": session.store.flush, "close": session.close,
                   "gc": session.store.gc,
                   "drop": lambda: session.store.drop("other")}[seen_by]
            with pytest.raises(OSError) as caught:
                see()
            assert caught.value.errno == errno.ENOSPC
            session.store.flush()   # raised once
        finally:
            session.close()
        assert degradation_counts()["store.async-commit-failed"] == 1


class _OnAFullDisk(np.ndarray):
    def tofile(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def write_blob_last_part_failing(f, parts):
    """:func:`write_blob` on a disk that fills during its last part, after
    the blob's header and earlier parts went out."""
    return write_blob(f, [*parts[:-1], parts[-1].view(_OnAFullDisk)])


# ----------------------------------------------------------------------
# the commit runs after the frame: a crash before it, back-to-back and
# concurrent commits, and the thread it runs on
# ----------------------------------------------------------------------
COMMIT_THREAD = "repro-store-commit"

ONE_MODEL_SQL = EPOCHS_SQL.replace("WHERE M.mid = U.mid",
                                   "WHERE M.mid = U.mid AND M.mid = '{}'")

_STALLED_COMMIT = """
import os, sys, threading, time
from pathlib import Path
from repro import InspectConfig, Session
from repro.data import generate_sql_workload
from repro.hypotheses import CharSetHypothesis, KeywordHypothesis
from repro.nn import CharLSTMModel
from repro.store.disk import DiskBehaviorStore
from repro.util.rng import new_rng

register = DiskBehaviorStore._register_shard
def stalled(self, *args):     # its segment is in place, the manifest next
    threading.Event().wait(20)
    return register(self, *args)
DiskBehaviorStore._register_shard = stalled

path = Path(sys.argv[1])
wl = generate_sql_workload("default", n_queries=30, window=30, stride=5,
                           seed=11)
session = Session(str(path), scheduler="serial", config=InspectConfig(
    early_stop=False, block_size=128))
session.register_dataset("d0", wl.dataset)
session.register_hypotheses([KeywordHypothesis("SELECT"),
                             CharSetHypothesis("space", " ")])
session.register_model("epoch_0", CharLSTMModel(
    len(wl.vocab), n_units=8, rng=new_rng(0), model_id="epoch_0"), epoch=0)
kept = set((path / "shards").glob("*.seg"))
session.sql(sys.argv[2])
while not set((path / "shards").glob("*.seg")) - kept:
    time.sleep(0.01)
os._exit(0)
"""


@pytest.fixture
def commit_starts(monkeypatch) -> list:
    """The store commit threads started so far."""
    started = []
    start = threading.Thread.start

    def counting(thread):
        if thread.name == COMMIT_THREAD:
            started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


class TestCommitAfterReturn:
    CONFIG = TestGroupCommit.CONFIG
    _session = TestGroupCommit._session

    def _references(self, sql_workload, hyps, statements,
                    n_models=1) -> list:
        """The statements' frames, serial and with no tier at all."""
        with self._session(sql_workload, hyps, n_models=n_models,
                           scheduler="serial", config=InspectConfig(
                               cache=None, unit_cache=None,
                               **self.CONFIG)) as session:
            return [session.sql(sql) for sql in statements]

    def test_a_crash_after_the_frame_reopens_the_previous_commit(
            self, tmp_path, sql_workload, hyps):
        """A process that exits once its statement returned, its commit
        stalled between segment and manifest: reopening serves the
        previous commit, gc sweeps the orphan, and the next session
        re-extracts to the reference frame."""
        path = tmp_path / "s"
        DiskBehaviorStore(path).append("other", np.arange(4),
                                       np.ones((4, 8)), n_records=4)
        committed = (path / "manifest.json").read_bytes()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _STALLED_COMMIT, str(path), EPOCHS_SQL],
            env=env, timeout=300)
        assert proc.returncode == 0
        assert (path / "manifest.json").read_bytes() == committed
        fresh = DiskBehaviorStore(path)
        assert fresh.keys() == ["other"]
        assert len(list((path / "shards").iterdir())) == 2
        assert fresh.gc()["orphans_removed"] == 1
        (reference,) = self._references(sql_workload, hyps, [EPOCHS_SQL])
        with self._session(sql_workload, hyps, path) as session:
            assert session.sql(EPOCHS_SQL) == reference
            stats = session.stats()
        n_blocks = -(-sql_workload.dataset.n_records
                     // self.CONFIG["block_size"])
        assert stats["unit_cache"]["extractions"] == n_blocks
        assert stats["hypothesis_cache"]["extractions"] \
            == len(hyps) * n_blocks
        assert stats["store"]["commits"] == 1

    def test_commits_handed_off_back_to_back_land_in_order(
            self, tmp_path, monkeypatch):
        """Two scopes end while the first one's commit is held before it
        starts: both return, and the commits then land in scope order,
        each row once."""
        gate = threading.Event()
        commit_after = DiskBehaviorStore._commit_after

        def held(*args):    # before the commit takes the store's lock
            assert gate.wait(30)
            return commit_after(*args)

        monkeypatch.setattr(DiskBehaviorStore, "_commit_after", held)
        store = DiskBehaviorStore(tmp_path)
        for key in "ab":
            with store.deferred_commits():
                store.append(key, np.arange(4), np.full((4, 2), ord(key)),
                             n_records=4)
        assert not (tmp_path / "manifest.json").exists()
        gate.set()
        assert store.keys() == ["a", "b"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        shards = [manifest["entries"][key]["shards"] for key in "ab"]
        assert [len(s) for s in shards] == [1, 1]
        seqs = [int(s[0]["file"].partition("-")[0]) for s in shards]
        assert seqs[0] < seqs[1]
        stats = store.stats()
        assert (stats["commits"], stats["files"]) == (2, 2)
        for key in "ab":
            assert np.array_equal(store.reader(key).rows(np.arange(4)),
                                  np.full((4, 2), ord(key)))

    def test_a_new_handle_reads_after_the_commit_in_flight(self, tmp_path,
                                                           monkeypatch):
        """Another handle on the directory (a stateless ``inspect()`` on
        a new store) waits for the commit this process handed off last:
        its first read sees those rows, never the manifest before them."""
        gate = threading.Event()
        commit_after = DiskBehaviorStore._commit_after

        def held(*args):
            assert gate.wait(30)
            return commit_after(*args)

        monkeypatch.setattr(DiskBehaviorStore, "_commit_after", held)
        store = DiskBehaviorStore(tmp_path)
        with store.deferred_commits():
            store.append("a", np.arange(4), np.ones((4, 2)), n_records=4)
        read = []
        reader = threading.Thread(
            target=lambda: read.append(DiskBehaviorStore(tmp_path).keys()))
        reader.start()
        reader.join(0.2)
        assert reader.is_alive() and not read   # waiting on the commit
        gate.set()
        reader.join(30)
        assert read == [["a"]]

    def test_only_an_explicit_call_raises_a_failed_commit(
            self, tmp_path, monkeypatch):
        """After a handed-off commit failed, a standalone append, an
        overflowing scope and a read that drops a corrupt entry all
        commit and raise nothing; the next ``flush()`` raises it, once."""
        from repro.store import disk
        store = DiskBehaviorStore(tmp_path)
        store.append("torn", np.arange(4), np.ones((4, 8)), n_records=4)
        with monkeypatch.context() as patch:
            patch.setattr(disk, "write_blob", write_blob_last_part_failing)
            with store.deferred_commits():
                store.append("lost", np.arange(4), np.ones((4, 8)),
                             n_records=4)
            assert store.keys() == ["torn"]     # the commit failed
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["entries"]["torn"]["shards"][0]["file"] = "missing.seg"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert store.readers(["torn"]) == [None]
        store.append("kept", np.arange(4), np.zeros((4, 8)), n_records=4)
        store.max_pending_bytes = 1
        with store.deferred_commits():
            store.append("over", np.arange(4), np.zeros((4, 8)),
                         n_records=4)
        assert store.keys() == ["kept", "over"]
        with pytest.raises(OSError) as caught:
            store.flush()
        assert caught.value.errno == errno.ENOSPC
        store.flush()

    def test_a_statement_dropping_a_corrupt_entry_after_a_failed_commit(
            self, tmp_path, monkeypatch, sql_workload, hyps):
        """A session whose last commit failed runs a statement that finds
        its unit entry corrupt: the entry is dropped and re-extracted, the
        frame is the reference, and the commit's error waits for the next
        ``flush()``."""
        from repro.store import disk
        path = tmp_path / "s"
        statements = [ONE_MODEL_SQL.format(f"epoch_{i}") for i in range(2)]
        references = self._references(sql_workload, hyps, statements,
                                      n_models=2)
        with self._session(sql_workload, hyps, path, n_models=2) as session:
            session.sql(statements[0])      # epoch_0's rows and the panel
        reset_degradation_counts()
        session = self._session(sql_workload, hyps, path, n_models=2)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(disk, "write_blob",
                              write_blob_last_part_failing)
                assert session.sql(statements[1]) == references[1]
                session.stats()     # its commit ran, and failed
            assert degradation_counts()["store.async-commit-failed"] == 1
            manifest = json.loads((path / "manifest.json").read_text())
            (unit_key,) = [key for key in manifest["entries"]
                           if not key.startswith("panel/")]
            manifest["entries"][unit_key]["shards"][0]["file"] \
                = "missing.seg"
            (path / "manifest.json").write_text(json.dumps(manifest))
            assert session.sql(statements[0]) == references[0]
            assert session.stats()["store"]["invalid_dropped"] == 1
            with pytest.raises(OSError) as caught:
                session.store.flush()
            assert caught.value.errno == errno.ENOSPC
        finally:
            session.close()

    @pytest.mark.parametrize("concurrent", [False, True])
    def test_two_cold_statements_commit_each_row_once(
            self, tmp_path, sql_workload, hyps, concurrent):
        """Two cold statements over two models on one ``threads``
        session, back to back (two commits) or at once (one commit when
        their scopes overlap, else two): every entry holds each record
        once, and each frame is its reference."""
        statements = [ONE_MODEL_SQL.format(f"epoch_{i}") for i in range(2)]
        references = self._references(sql_workload, hyps, statements,
                                      n_models=2)
        frames = [None, None]
        barrier = threading.Barrier(2)

        def run(session, i):
            if concurrent:
                barrier.wait(30)
            frames[i] = session.sql(statements[i])

        with self._session(sql_workload, hyps, tmp_path / "s", n_models=2,
                           scheduler="threads") as session:
            threads = [threading.Thread(target=run, args=(session, i))
                       for i in range(2)]
            for thread in threads:
                thread.start()
                if not concurrent:
                    thread.join()
            for thread in threads:
                thread.join()
            stats = session.stats()["store"]
        assert frames == references
        assert stats["files"] == stats["commits"]
        assert stats["commits"] in ((1, 2) if concurrent else (2,))
        n = sql_workload.dataset.n_records
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert len(manifest["entries"]) == 3      # two unit entries, a panel
        for meta in manifest["entries"].values():
            assert sum(shard["rows"] for shard in meta["shards"]) == n
        fresh = DiskBehaviorStore(tmp_path / "s")
        for key in manifest["entries"]:
            assert fresh.reader(key).filled_mask(np.arange(n)).all()

    def test_a_disk_warm_statement_starts_no_commit_thread(
            self, tmp_path, sql_workload, hyps, commit_starts):
        with self._session(sql_workload, hyps, tmp_path / "s") as session:
            cold = session.sql(EPOCHS_SQL)
        assert len(commit_starts) == 1
        with self._session(sql_workload, hyps, tmp_path / "s") as session:
            assert session.sql(EPOCHS_SQL) == cold
            stats = session.stats()
        assert stats["unit_cache"]["extractions"] == 0
        assert stats["hypothesis_cache"]["extractions"] == 0
        assert len(commit_starts) == 1

    @pytest.mark.parametrize("ending", ["clean", "failed commit",
                                        "abandoned stream"])
    def test_no_commit_thread_outlives_close(
            self, tmp_path, monkeypatch, sql_workload, hyps, commit_starts,
            ending):
        from repro.store import disk
        session = self._session(sql_workload, hyps, tmp_path / "s",
                                scheduler="threads")
        try:
            with monkeypatch.context() as patch:
                if ending == "failed commit":
                    patch.setattr(disk, "write_blob",
                                  write_blob_last_part_failing)
                if ending == "abandoned stream":
                    frames = session.stream_sql(EPOCHS_SQL)
                    next(frames)
                    frames.close()
                else:
                    session.sql(EPOCHS_SQL)
                with (pytest.raises(OSError) if ending == "failed commit"
                      else contextlib.nullcontext()):
                    session.close()
        finally:
            session.close()
        assert len(commit_starts) == 1
        assert not any(thread.is_alive() for thread in commit_starts)
        assert not [thread for thread in threading.enumerate()
                    if thread.name == COMMIT_THREAD]


# ----------------------------------------------------------------------
# panels at label width: a panel shard is written in the narrowest dtype
# its cells round-trip through bit for bit, and is served as float64
# ----------------------------------------------------------------------
def _dtype_of(path, key: str) -> str:
    """The dtype the committed manifest records for entry ``key``."""
    manifest = json.loads((Path(path) / "manifest.json").read_text())
    return manifest["entries"][key]["dtype"]


def _precomputed(matrix: np.ndarray) -> list:
    """One hypothesis per last-axis column of ``(n_records, ns, k)``."""
    return [PrecomputedHypothesis(f"p{j}", matrix[:, :, j])
            for j in range(matrix.shape[2])]


class TestPanelWidth:
    N = 10

    @staticmethod
    def _append_panel(path, rows: np.ndarray) -> None:
        DiskBehaviorStore(path).append("panel/p", np.arange(len(rows)), rows,
                                       len(rows), members=["m0", "m1"])

    @pytest.mark.parametrize("high", [2, 256])      # 0/1 labels, counts
    def test_label_and_count_panels_are_stored_as_uint8(self, tmp_path,
                                                        high):
        rows = new_rng(0).integers(0, high, size=(self.N, 8)).astype(float)
        rows[0, :2] = [0, high - 1]
        self._append_panel(tmp_path, rows)
        assert _dtype_of(tmp_path, "panel/p") == "|u1"
        got = DiskBehaviorStore(tmp_path).reader("panel/p").rows(
            np.arange(self.N))
        assert got.dtype == np.uint8
        assert got.astype(np.float64).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("odd", [0.5, 256.0, -1.0, np.nan, -0.0])
    def test_a_cell_uint8_cannot_hold_keeps_the_panel_float64(
            self, tmp_path, odd):
        rows = np.ones((self.N, 8))
        rows[3, 5] = odd
        self._append_panel(tmp_path, rows)
        assert _dtype_of(tmp_path, "panel/p") == "<f8"
        got = DiskBehaviorStore(tmp_path).reader("panel/p").rows(
            np.arange(self.N))
        assert got.tobytes() == rows.tobytes()

    def test_one_inexact_append_keeps_the_whole_shard_float64(self,
                                                              tmp_path):
        """Two appends stack into one shard: its dtype is chosen for both,
        so a 0.5 in the second keeps the labels of the first ``<f8``."""
        store = DiskBehaviorStore(tmp_path)
        rows = np.vstack([np.ones((5, 8)), np.full((5, 8), 0.5)])
        with store.deferred_commits():
            for at in (np.arange(5), np.arange(5, 10)):
                store.append("panel/p", at, rows[at], 10,
                             members=["m0", "m1"])
        store.flush()   # settles the commit the scope handed off
        assert _dtype_of(tmp_path, "panel/p") == "<f8"
        reader = DiskBehaviorStore(tmp_path).reader("panel/p")
        assert reader.n_shards == 1
        assert reader.rows(np.arange(10)).tobytes() == rows.tobytes()

    def test_unit_and_plain_entries_keep_their_dtype(self, tmp_path):
        store = DiskBehaviorStore(tmp_path)
        labels = np.ones((self.N, 8))
        with store.deferred_commits():
            store.append("plain/f8", np.arange(self.N), labels, self.N)
            store.append("plain/f4", np.arange(self.N),
                         labels.astype(np.float32), self.N)
            store.append_units("unit/u", np.arange(self.N),
                               np.ones((4, self.N, 2)))
        store.flush()   # settles the commit the scope handed off
        for key, dtype in (("plain/f8", "<f8"), ("plain/f4", "<f4"),
                           ("unit/u", "<f8")):
            assert _dtype_of(tmp_path, key) == dtype

    @pytest.mark.parametrize("labels_first", [True, False])
    def test_two_flushes_of_one_panel_never_serve_a_wrong_row(
            self, tmp_path, sql_workload, labels_first):
        """Half the records are 0/1 labels, the other half hold a 0.5; each
        half is one session's flush.  Labels first: the panel is ``|u1``,
        the 0.5 shard cannot join it and replaces it, so the labelled half
        re-extracts.  The 0.5 half first: the panel is ``<f8``, the labels
        join it exactly and every record is served."""
        dataset = sql_workload.dataset
        n, half = dataset.n_records, dataset.n_records // 2
        matrix = (new_rng(0).random((n, dataset.n_symbols, 2)) < 0.5) * 1.0
        matrix[half:, 0, 0] = 0.5
        hyps = _precomputed(matrix)
        labelled, halves = np.arange(half), np.arange(half, n)
        for records in ((labelled, halves) if labels_first
                        else (halves, labelled)):
            HypothesisCache(store=DiskBehaviorStore(tmp_path)).extract_block(
                hyps, dataset, records)
        (key,) = DiskBehaviorStore(tmp_path).keys()
        assert _dtype_of(tmp_path, key) == "<f8"
        kept = DiskBehaviorStore(tmp_path).reader(key).filled_mask(
            np.arange(n))
        assert np.flatnonzero(kept).tolist() == (
            halves.tolist() if labels_first else list(range(n)))

        cache = HypothesisCache(store=DiskBehaviorStore(tmp_path))
        block = cache.extract_block(hyps, dataset, np.arange(n))
        assert block.dtype == np.float64
        assert block.tobytes() == matrix.reshape(-1, 2).tobytes()
        stats = cache.stats()
        lost = half if labels_first else 0
        assert (stats["disk_hits"], stats["disk_misses"]) \
            == (2 * (n - lost), 2 * lost)
        assert stats["extractions"] == (2 if lost else 0)

    def test_a_float32_panel_is_served_as_float64(self, tmp_path,
                                                  sql_workload):
        """A panel appended as float32 through the public path: the block
        and the moments summed over it are float64, bit for bit the
        appended values widened."""
        dataset = sql_workload.dataset
        n, ns = dataset.n_records, dataset.n_symbols
        narrow = new_rng(1).random((n, ns, 2)).astype(np.float32)
        hyps = _precomputed(narrow)
        members = [hyp_store_key(dataset.cache_key(), h.cache_key())
                   for h in hyps]
        DiskBehaviorStore(tmp_path).append(
            panel_store_key(dataset.cache_key(), members), np.arange(n),
            narrow.reshape(n, -1), n, members=members)
        cache = HypothesisCache(store=DiskBehaviorStore(tmp_path))
        block = cache.extract_block(hyps, dataset, np.arange(n))
        assert block.dtype == np.float64 and block.flags.c_contiguous
        assert block.tobytes() \
            == narrow.astype(np.float64).reshape(-1, 2).tobytes()
        stats = cache.stats()
        assert (stats["extractions"], stats["disk_hits"]) == (0, 2 * n)
        sums, squares = block_moments(block)()
        assert sums.dtype == squares.dtype == np.float64

    def test_disk_warm_inspect_over_uint8_panels_is_the_serial_frame(
            self, tmp_path, sql_workload, hyps72, trained_sql_model):
        """Labels and depth counts above 1, stored ``|u1``: a disk-warm
        ``inspect()`` scores them bit for bit as the tier-less serial run,
        with no extraction and every cell a disk hit."""
        wl = sql_workload
        dataset = wl.dataset
        depth = [h for h in grammar_hypotheses(
                     wl.grammar, wl.queries, wl.trees, encodings=("depth",),
                     mode="derivation")
                 if h.extract(dataset).max() > 1][:3]
        assert len(depth) == 3
        hyps = hyps72[:4] + hyps72[-2:] + depth
        measures = [CorrelationScore(), DiffMeansScore(), JaccardScore()]
        knobs = dict(mode="streaming", early_stop=False, shuffle=False,
                     seed=0, block_size=128)

        def run(**tiers):
            config = InspectConfig(**tiers, **knobs)
            frame = inspect([trained_sql_model], dataset, measures, hyps,
                            config=config)
            return frame, config

        reference, _ = run(scheduler="serial")
        _, cold = run(**_tiers(DiskBehaviorStore(tmp_path)))
        cold.cache.store.flush()   # the run's commit ran after it
        store = DiskBehaviorStore(tmp_path)
        panels = [k for k in store.keys() if k.startswith("panel/")]
        assert panels and all(_dtype_of(tmp_path, k) == "|u1"
                              for k in panels)
        warm, config = run(**_tiers(store))
        assert _frame_tuples(warm) == _frame_tuples(reference)
        hyp, unit = config.cache.stats(), config.unit_cache.stats()
        assert hyp["extractions"] == unit["extractions"] == 0
        assert hyp["disk_hits"] == len(hyps) * dataset.n_records
        assert unit["disk_hits"] == dataset.n_records


# ----------------------------------------------------------------------
# shared-forward-pass extraction
# ----------------------------------------------------------------------
class TestSharedForwardPass:
    def _transform_groups(self, model, n_units):
        return [UnitGroup(model=model, unit_ids=np.arange(n_units),
                          name=t, extractor=RnnActivationExtractor(
                              transform=t))
                for t in ("activation", "abs", "gradient")] + [
            UnitGroup(model=model, unit_ids=np.array([1, 3]), name="subset",
                      extractor=RnnActivationExtractor())]

    def test_fused_extractors_run_one_sweep_uncached(self, trained_sql_model,
                                                     sql_workload, hyps):
        """K extractors differing only by transform/unit subset trigger one
        hidden_states sweep per block, not K."""
        model = _CountingForwardModel(trained_sql_model)
        groups = self._transform_groups(model, trained_sql_model.n_units)
        cfg = InspectConfig(mode="full", seed=0, max_records=100)
        frame = inspect(None, sql_workload.dataset, [CorrelationScore()],
                        hyps, unit_groups=groups, config=cfg)
        assert model.forward_calls == 1
        # every view must match its own dedicated (unfused) run, which
        # sweeps once per extractor
        unfused = _CountingForwardModel(trained_sql_model)
        for group in groups:
            solo = inspect(None, sql_workload.dataset, [CorrelationScore()],
                           hyps,
                           unit_groups=[UnitGroup(
                               model=unfused,
                               unit_ids=group.unit_ids, name=group.name,
                               extractor=group.extractor)],
                           config=InspectConfig(mode="full", seed=0,
                                                max_records=100))
            mine = frame.where(group_id=group.name).sort("val")
            assert mine["val"] == solo.sort("val")["val"]
        assert unfused.forward_calls == len(groups)

    def test_fused_extractors_share_one_cache_entry(self, trained_sql_model,
                                                    sql_workload, hyps):
        model = _CountingForwardModel(trained_sql_model)
        groups = self._transform_groups(model, trained_sql_model.n_units)
        cache = UnitBehaviorCache()
        cfg = InspectConfig(mode="streaming", early_stop=False, seed=0,
                            unit_cache=cache, max_records=80)
        inspect(None, sql_workload.dataset, [CorrelationScore()], hyps,
                unit_groups=groups, config=cfg)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["extractions"] == model.forward_calls > 0

    def test_fused_narrow_groups_match_solo_runs(self, trained_sql_model,
                                                 sql_workload, hyps):
        """Fused extraction with only-narrow unit subsets engages the
        raw-column union narrowing and stays bit-identical to unfused."""
        model = _CountingForwardModel(trained_sql_model)
        groups = [
            UnitGroup(model=model, unit_ids=np.array([1, 3]), name="act",
                      extractor=RnnActivationExtractor()),
            UnitGroup(model=model, unit_ids=np.array([2, 5]), name="grad",
                      extractor=RnnActivationExtractor(
                          transform="gradient"))]
        cfg = InspectConfig(mode="full", seed=0, max_records=60)
        frame = inspect(None, sql_workload.dataset, [CorrelationScore()],
                        hyps, unit_groups=groups, config=cfg)
        assert model.forward_calls == 1
        for group in groups:
            solo = inspect(None, sql_workload.dataset, [CorrelationScore()],
                           hyps,
                           unit_groups=[UnitGroup(
                               model=trained_sql_model,
                               unit_ids=group.unit_ids, name=group.name,
                               extractor=group.extractor)],
                           config=InspectConfig(mode="full", seed=0,
                                                max_records=60))
            mine = frame.where(group_id=group.name).sort("val")
            assert mine["val"] == solo.sort("val")["val"]

    def test_non_extractor_is_rejected_at_the_boundary(
            self, trained_sql_model, sql_workload, hyps):
        """A duck-typed object with extract()/n_units() is not an
        extractor: every entry point says so with one TypeError, before
        the model runs."""

        class _Duck:
            def n_units(self, model):
                return model.n_units

            def extract(self, model, records, hid_units=None):
                out = model.hidden_states(records)
                return out.reshape(-1, out.shape[-1])

        model = _CountingForwardModel(trained_sql_model)
        dataset = sql_workload.dataset
        measures = [CorrelationScore()]
        entry_points = [
            lambda: UnitGroup(model=model, unit_ids=np.arange(4),
                              extractor=_Duck()),
            lambda: InspectionPlan.build(
                [UnitGroup(model=model, unit_ids=np.arange(4))], dataset,
                measures, hyps, _Duck(), InspectConfig(max_records=30)),
            lambda: inspect(model, dataset, measures, hyps,
                            extractor=_Duck(),
                            config=InspectConfig(max_records=30)),
            lambda: Session(extractor=_Duck()),
        ]
        for enter in entry_points:
            with pytest.raises(TypeError, match="repro.extract.Extractor"):
                enter()
        assert model.forward_calls == 0

    def test_seq2seq_layers_share_one_sweep(self):
        from repro.extract import EncoderActivationExtractor
        from repro.nmt import generate_nmt_corpus, train_nmt_model
        corpus = generate_nmt_corpus(n_sentences=30, seed=3)
        model = train_nmt_model(corpus, n_units=6, epochs=1, seed=0)
        l0 = EncoderActivationExtractor(layer=0)
        l1 = EncoderActivationExtractor(layer=1, transform="abs")
        both = EncoderActivationExtractor(layer=None)
        assert l0.raw_key() == l1.raw_key() == both.raw_key()
        raw = both.raw_rows(model, corpus.src[:4])
        states = raw.reshape(4, corpus.src.shape[1], -1)
        for ext in (l0, l1, both):
            view = ext.finalize_states(states, ext.raw_columns(model))
            direct = ext.extract(model, corpus.src[:4])
            assert np.array_equal(view, direct)


# ----------------------------------------------------------------------
# cross-process warm rerun (the acceptance criterion, literally)
# ----------------------------------------------------------------------
_CHILD = """
import json, sys
import numpy as np
from repro import (DiskBehaviorStore, HypothesisCache, InspectConfig,
                   UnitBehaviorCache, inspect)
from repro.data import generate_sql_workload
from repro.hypotheses import KeywordHypothesis
from repro.measures import CorrelationScore
from repro.nn import CharLSTMModel, TrainConfig, train_model
from repro.util.rng import new_rng

wl = generate_sql_workload("small", n_queries=8, window=20, stride=5,
                           seed=5, max_records=48)
model = CharLSTMModel(len(wl.vocab), 8, new_rng(2), model_id="xproc")
train_model(model, wl.dataset.symbols, wl.targets,
            TrainConfig(epochs=1, batch_size=32, lr=3e-3))
store = DiskBehaviorStore(sys.argv[1])
unit_cache = UnitBehaviorCache(store=store)
hyp_cache = HypothesisCache(store=store)
cfg = InspectConfig(mode="streaming", early_stop=False, seed=0,
                    unit_cache=unit_cache, cache=hyp_cache)
frame = inspect([model], wl.dataset, [CorrelationScore()],
                [KeywordHypothesis("SELECT")], config=cfg)
print(json.dumps({
    "extractions": (unit_cache.stats()["extractions"]
                    + hyp_cache.stats()["extractions"]),
    "disk_hits": unit_cache.stats()["disk_hits"],
    "vals": [float(v) for v in frame["val"]],
}))
"""


_SECOND_STORE_WRITER = """
import sys
import numpy as np
from repro.store import DiskBehaviorStore

store = DiskBehaviorStore(sys.argv[1])
store.keys()                     # read before the parent commits 'a'
print("opened", flush=True)
sys.stdin.readline()             # ... and told to go on after it did
store.append("b", np.arange(3), np.full((3, 4), 2.0), n_records=3)
"""


@pytest.mark.slow
def test_cross_process_warm_read(tmp_path):
    """A genuinely separate process re-deriving the same (model, dataset)
    serves the whole inspection from the store: zero extractor invocations,
    bit-identical scores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")

    def run():
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    cold = run()
    assert cold["extractions"] > 0
    warm = run()
    assert warm["extractions"] == 0
    assert warm["disk_hits"] > 0
    assert warm["vals"] == cold["vals"]


# ----------------------------------------------------------------------
# scheduler lifecycle
# ----------------------------------------------------------------------
class TestSchedulerLifecycle:
    def test_context_manager_releases_pool(self):
        with ThreadPoolScheduler(max_workers=2) as scheduler:
            assert scheduler.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
            assert scheduler._pool is not None
        assert scheduler._pool is None

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_map_raises_only_after_every_started_item_finished(self, error):
        """An item may write through the caches: none outlives ``map`` —
        and so the caller's store scope — however a sibling ends."""
        started, finished = threading.Event(), []

        def item(kind):
            if kind == "fails":
                assert started.wait(timeout=30)
                raise error("boom")
            started.set()
            time.sleep(0.2)
            finished.append(kind)

        with ThreadPoolScheduler(max_workers=2) as scheduler:
            with pytest.raises(error, match="boom"):
                scheduler.map(item, ["fails", "slow"])
            assert finished == ["slow"]

    def test_repeated_runs_do_not_leak_threads(self, trained_sql_model,
                                               sql_workload, hyps):
        cfg_kwargs = dict(mode="streaming", max_records=30)
        inspect([trained_sql_model], sql_workload.dataset,
                [CorrelationScore()], hyps,
                config=InspectConfig(scheduler="threads", **cfg_kwargs))
        settled = threading.active_count()
        for _ in range(3):
            inspect([trained_sql_model], sql_workload.dataset,
                    [CorrelationScore()], hyps,
                    config=InspectConfig(scheduler="threads", **cfg_kwargs))
        assert threading.active_count() <= settled

    def test_session_context_manager_shuts_down_session_pool(
            self, hand_built_session):
        from repro.db.engine import Database
        with hand_built_session(Database(), models={}, hypotheses=[],
                                datasets={}) as ctx:
            if isinstance(ctx.scheduler, ThreadPoolScheduler):
                ctx.scheduler.map(lambda x: x, [1, 2])
        if isinstance(ctx.scheduler, ThreadPoolScheduler):
            assert ctx.scheduler._pool is None
