"""Columnar, segment-backed table storage.

Covers ``repro.db.storage`` plus the engine wiring:

- SortedIndex: scans bit-identical to ``sort_indices`` filtered to the
  range, every bound combination, ascending and descending, duplicate runs
  longer than a batch, int64 extremes;
- dictionary columns: kinds, exact-value round trip, code lookup;
- TableStorage: catalog round-trip, auto-indexes, gathers, drops, one
  segment and two fsyncs per commit, staged changes invisible to other
  handles until commit, two handles on one directory losing nothing, a
  commit reading back what it committed, non-segment files left alone,
  other manifest versions refused;
- faults: a flipped byte, a truncated segment, a bad span or a lying
  header is a ``CorruptEntryError`` on first touch, never a wrong row;
- the segment directory both stores commit through: a failed manifest
  publish leaves the directory as it was, a commit that changes nothing
  publishes nothing, another version is refused on every read and commit,
  a recorded digest is checked;
- Database persistence: exact-value round-trips, staged inserts,
  drops, memory-only fallback, index gating on uncommitted state;
- planner: sargable edge cases (fractional int bounds, missing dict
  keys, type-mismatched literals) bit-identical to the full scan;
- a randomized differential suite: persistent+indexed vs
  ``use_indexes=False`` vs in-memory over WHERE/ORDER BY/LIMIT/GROUP BY;
- satellites: single-pass descending ``sort_indices``, ``topk_indices``;
- crash recovery in a subprocess: a commit killed between the segment's
  publish and the manifest's leaves the previous commit intact; a
  truncated segment surfaces as ``CorruptEntryError`` instead of silent
  corruption; two processes committing to one directory lose nothing;
- a reopened persistent :class:`Session` answering score queries with
  zero registered models (no re-extraction, lazy tables).
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import random
import subprocess
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.db import Database, bind, execute_select, parse_sql
from repro.db.executor import sort_indices, topk_indices
from repro.db.planner import plan_scan
from repro.db.storage import (DictEncoder, SortedIndex, TableStorage,
                              derive_kinds)
from repro.store.segment import (CorruptEntryError, ManifestError,
                                 SegmentDirectory, blob, map_segment,
                                 write_blob)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def run_sql(db: Database, sql: str):
    return execute_select(db, parse_sql(sql))


# ----------------------------------------------------------------------
# SortedIndex
# ----------------------------------------------------------------------
def _collect(scan_iter) -> np.ndarray:
    batches = [np.asarray(b) for b in scan_iter]
    if not batches:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(batches)


def _index(keys: np.ndarray) -> SortedIndex:
    order = np.argsort(keys, kind="stable")
    return SortedIndex(keys[order], order.astype(np.int64))


def _in_range(keys, lo, hi, lo_incl, hi_incl) -> np.ndarray:
    mask = np.ones(keys.shape[0], dtype=bool)
    if lo is not None:
        mask &= keys >= lo if lo_incl else keys > lo
    if hi is not None:
        mask &= keys <= hi if hi_incl else keys < hi
    return mask


class TestSortedIndex:
    @pytest.mark.parametrize("n", [0, 1, 50, 700])
    def test_full_scan_matches_stable_argsort(self, n):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, max(n // 4, 1), size=n).astype(np.int64)
        index = _index(keys)
        assert len(index) == n

        asc = _collect(index.scan())
        np.testing.assert_array_equal(asc, np.argsort(keys, kind="stable"))

        desc = _collect(index.scan(descending=True))
        expected = np.argsort(-keys, kind="stable") if n \
            else np.arange(0, dtype=np.int64)
        np.testing.assert_array_equal(desc, expected)

    @pytest.mark.parametrize("lo,hi,lo_incl,hi_incl", [
        (10, 20, True, True), (10, 20, False, False),
        (10, 20, True, False), (None, 15, True, True),
        (15, None, False, True), (None, None, True, True),
        (99, 99, True, True), (20, 10, True, True),
    ])
    def test_range_bounds(self, lo, hi, lo_incl, hi_incl):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 30, size=300).astype(np.int64)
        index = _index(keys)

        expect = np.flatnonzero(_in_range(keys, lo, hi, lo_incl, hi_incl))
        got = np.sort(_collect(index.scan(lo, hi, lo_incl, hi_incl)))
        np.testing.assert_array_equal(got, expect)

        got_desc = np.sort(_collect(
            index.scan(lo, hi, lo_incl, hi_incl, descending=True)))
        np.testing.assert_array_equal(got_desc, expect)

    def test_float_keys(self):
        rng = np.random.default_rng(11)
        keys = np.round(rng.random(200), 1)  # heavy duplicates
        np.testing.assert_array_equal(
            _collect(_index(keys).scan(descending=True)),
            np.argsort(-keys, kind="stable"))

    @pytest.mark.parametrize("keys", [
        # duplicate runs several batches long, between short ones
        np.repeat(np.array([5, 1, 9, 3, 7], dtype=np.int64),
                  [3 * SortedIndex.BATCH + 7, 2, 2 * SortedIndex.BATCH, 1,
                   SortedIndex.BATCH])[
            np.random.default_rng(0).permutation(6 * SortedIndex.BATCH + 10)],
        # int64 extremes: negation overflows, so order must come from
        # comparisons alone
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1,
                  np.iinfo(np.int64).min, 5, np.iinfo(np.int64).max] * 9,
                 dtype=np.int64),
        np.round(np.random.default_rng(2).random(2500), 2) - 0.5,
    ], ids=["long-runs", "int64-extremes", "floats"])
    def test_scan_equals_sort_indices_filtered_to_the_range(self, keys):
        """The differential: for every bound combination and direction the
        concatenated batches are exactly ``sort_indices`` with the rows
        outside the range struck — order of ties included."""
        index = _index(keys)
        distinct = np.unique(keys)
        picks = [None, distinct[0], distinct[len(distinct) // 2],
                 distinct[-1]]
        if keys.dtype.kind == "f":
            picks.append(0.123)  # a bound that is no key
        for descending in (False, True):
            full = sort_indices(keys, descending=descending)
            for lo in picks:
                for hi in picks:
                    for lo_incl in (True, False):
                        for hi_incl in (True, False):
                            keep = _in_range(keys, lo, hi, lo_incl, hi_incl)
                            batches = list(index.scan(
                                lo, hi, lo_incl, hi_incl, descending))
                            np.testing.assert_array_equal(
                                _collect(batches), full[keep[full]],
                                err_msg=f"{lo} {hi} {lo_incl} {hi_incl} "
                                        f"{descending}")
                            assert all(b.size for b in batches)

    def test_a_limit_reader_pays_one_batch(self):
        keys = np.arange(50 * SortedIndex.BATCH, dtype=np.int64)
        for descending in (False, True):
            first = next(iter(_index(keys).scan(descending=descending)))
            assert first.size == SortedIndex.BATCH


# ----------------------------------------------------------------------
# dictionary columns
# ----------------------------------------------------------------------
class TestDictColumns:
    def test_derive_kinds(self):
        arrays = [np.arange(3, dtype=np.int64),
                  np.ones(3, dtype=np.float64),
                  np.array(["a", "b", "a"], dtype=object)]
        assert derive_kinds(arrays) == ["i8", "f8", "dict"]

    def test_dict_round_trip_and_code_for(self):
        enc = DictEncoder()
        values = np.array(["x", None, True, 3, "x"], dtype=object)
        codes = enc.encode(values)
        np.testing.assert_array_equal(enc.decode(codes), values)
        assert enc.code_for("x") == codes[0]
        assert enc.code_for("never-stored") is None
        assert enc.code_for([1, 2]) is None  # unhashable → None, no raise


# ----------------------------------------------------------------------
# TableStorage
# ----------------------------------------------------------------------
def _segments(path) -> list[str]:
    return sorted(p.name for p in path.iterdir() if ".seg" in p.name)


class TestTableStorage:
    def test_commit_reopen_round_trip(self, tmp_path):
        store = TableStorage(tmp_path / "db")
        store.create("t", ["uid"], [np.arange(5, dtype=np.int64)])
        store.commit()
        store.close()

        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        assert manifest["version"] == 2
        ent = manifest["tables"]["t"]
        assert (ent["columns"], ent["kinds"], ent["n_rows"]) == \
            (["uid"], ["i8"], 5)
        assert [ent["file"]] == _segments(tmp_path / "db")
        assert ent["file_bytes"] == \
            (tmp_path / "db" / ent["file"]).stat().st_size

        store = TableStorage(tmp_path / "db")
        _, arrays = store.load_columns("t")
        np.testing.assert_array_equal(arrays[0], np.arange(5))
        assert not arrays[0].flags.writeable  # a view of the mapped blob
        store.close()

    def test_create_reopen_auto_index(self, tmp_path):
        store = TableStorage(tmp_path / "db")
        uid = np.arange(100, dtype=np.int64)
        score = np.linspace(0, 1, 100)
        name = np.array([f"u{i % 7}" for i in range(100)], dtype=object)
        store.create("scores", ["uid", "score", "name"], [uid, score, name])
        store.commit()
        store.close()

        store = TableStorage(tmp_path / "db")
        assert store.table_names() == ["scores"]
        cols, arrays = store.load_columns("scores")
        assert cols == ["uid", "score", "name"]
        np.testing.assert_array_equal(arrays[0], uid)
        np.testing.assert_array_equal(arrays[1], score)
        np.testing.assert_array_equal(arrays[2], name)
        # uid / score / name are all hot columns → auto-indexed
        for col in ("uid", "score", "name"):
            assert store.index_info("scores", col) is not None
        store.close()

    def test_append_maintains_indexes(self, tmp_path):
        db = Database(str(tmp_path / "db"))
        db.create_table("t", ["uid"], [(i,) for i in range(10)])
        db.commit()
        db.table("t").insert_many([(i,) for i in range(10, 30)])
        db.commit()
        index, _ = db.index_for("t", "uid")
        assert len(index) == 30
        rids = np.sort(_collect(index.scan(5, 24)))
        np.testing.assert_array_equal(rids, np.arange(5, 25))
        db.close()

    def test_nan_float_column_not_indexed(self, tmp_path):
        store = TableStorage(tmp_path / "db")
        vals = np.array([1.0, np.nan, 3.0])
        store.create("t", ["score"], [vals])
        assert store.index_info("t", "score") is None
        _, arrays = store.load_columns("t")  # values still stored exactly
        np.testing.assert_array_equal(arrays[0], vals)
        store.close()

    def test_gather_decodes_requested_columns_only(self, tmp_path):
        store = TableStorage(tmp_path / "db")
        store.create("t", ["uid", "name"],
                     [np.arange(50, dtype=np.int64),
                      np.array([f"n{i}" for i in range(50)], dtype=object)])
        rids = np.array([40, 3, 3, 17], dtype=np.int64)
        for _ in range(2):  # staged, then committed and read off the map
            out = store.gather("t", rids, ["name"])
            assert list(out) == ["name"]
            np.testing.assert_array_equal(
                out["name"],
                np.array(["n40", "n3", "n3", "n17"], dtype=object))
            store.commit()
        assert store.stats()["reads"] == 1  # the one column asked for
        store.close()

    def test_gather_out_of_range_raises(self, tmp_path):
        store = TableStorage(tmp_path / "db")
        store.create("t", ["x"], [np.zeros(4, dtype=np.int64)])
        store.commit()
        for bad in ([4], [-1], [0, 1, -5], [2, 99]):
            with pytest.raises(IndexError):
                store.gather("t", np.array(bad, dtype=np.int64), ["x"])
        store.close()

    def test_drop_removes_table(self, tmp_path):
        store = TableStorage(tmp_path / "db")
        store.create("t", ["uid"], [np.arange(5, dtype=np.int64)])
        store.commit()
        store.drop("t")
        store.commit()
        store.close()
        store = TableStorage(tmp_path / "db")
        assert "t" not in store
        assert _segments(tmp_path / "db") == []  # its segment went with it
        store.close()

    def test_one_segment_and_two_fsyncs_per_commit(self, tmp_path,
                                                   monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(real_fsync(fd)))
        db = Database(str(tmp_path / "db"))
        for t in range(4):  # 4 tables, 8 indexes
            db.create_table(f"t{t}", ["uid", "score", "note"],
                            [(i, i / 7, "n") for i in range(50)])
        db.commit()
        assert len(synced) == 2  # the segment, then the manifest
        assert len(_segments(tmp_path / "db")) == 1
        stats = db.storage.stats()
        assert (stats["commits"], stats["tables"], stats["indexes"]) == \
            (1, 4, 8)
        assert stats["writes"] == 4 * 3 + 8 * 2  # blobs, not pages
        db.commit()  # nothing moved: nothing written, nothing renamed
        assert len(synced) == 2
        db.table("t0").insert((50, 1.0, "n"))
        db.commit()  # one table restaged, whole
        assert len(synced) == 4
        assert len(_segments(tmp_path / "db")) == 2
        db.drop_table("t1")
        db.commit()  # drop-only: the manifest alone
        assert len(synced) == 5
        db.close()
        assert len(synced) == 5

    def test_other_manifest_version_is_refused(self, tmp_path):
        """A directory of another format (version 1 was the paged store)
        raises — tables are user data, not a cache to read as empty — and
        nothing in it is touched."""
        root = tmp_path / "db"
        root.mkdir()
        (root / "manifest.json").write_text(
            json.dumps({"version": 1, "table": [0], "meta": {"tables": {}}}))
        (root / "pages.bin").write_bytes(b"\0" * 4096)
        (root / ".lock").write_bytes(b"")  # every committed one has it
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        with pytest.raises(ValueError, match="version 1"):
            TableStorage(root)
        with pytest.raises(ValueError, match="version 1"):
            Database(str(root))
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    def test_another_version_appearing_refuses_every_commit(self, tmp_path):
        """An open handle whose directory gets a manifest of another
        version raises on this commit and on the retry; neither writes a
        manifest over it nor sweeps a segment."""
        root = tmp_path / "db"
        store = TableStorage(root)
        store.create("t", ["uid"], [np.arange(3, dtype=np.int64)])
        store.commit()
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["version"] = 3
        (root / "manifest.json").write_text(json.dumps(manifest))
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        store.create("u", ["uid"], [np.arange(2, dtype=np.int64)])
        for _ in range(2):
            with pytest.raises(ValueError, match="version 3"):
                store.commit()
            assert {p.name: p.read_bytes() for p in root.iterdir()} == before
        assert store.load_columns("t")[1][0].tolist() == [0, 1, 2]


class TestStagingVisibility:
    """What a handle staged is invisible to every other handle until its
    commit(); what a handle opened stays readable whatever others do."""

    def _committed(self, tmp_path) -> TableStorage:
        store = TableStorage(tmp_path / "db")
        store.create("old", ["uid"], [np.arange(3, dtype=np.int64)])
        store.create("gone", ["uid"], [np.arange(4, dtype=np.int64)])
        store.commit()
        return store

    def test_staged_changes_are_invisible_until_commit(self, tmp_path):
        store = self._committed(tmp_path)
        store.create("new", ["uid"], [np.arange(7, dtype=np.int64)])
        store.create("old", ["uid"], [np.arange(30, 35, dtype=np.int64)])
        store.drop("gone")
        # the staging handle reads its own writes ...
        assert store.table_names() == ["old", "new"]
        assert store.n_rows("old") == 5
        # ... a second handle sees the last commit only
        other = TableStorage(tmp_path / "db")
        assert other.table_names() == ["old", "gone"]
        np.testing.assert_array_equal(other.load_columns("old")[1][0],
                                      np.arange(3))
        store.commit()
        fresh = TableStorage(tmp_path / "db")
        assert fresh.table_names() == ["old", "new"]
        np.testing.assert_array_equal(fresh.load_columns("old")[1][0],
                                      np.arange(30, 35))
        for handle in (store, other, fresh):
            handle.close()

    def test_close_without_commit_discards_staged_changes(self, tmp_path):
        store = self._committed(tmp_path)
        store.create("old", ["uid"], [np.arange(9, dtype=np.int64)])
        store.drop("gone")
        store.close()  # crash-equivalent: no commit
        store.commit()  # nothing left to publish
        fresh = TableStorage(tmp_path / "db")
        assert fresh.table_names() == ["old", "gone"]
        assert fresh.n_rows("old") == 3
        assert len(_segments(tmp_path / "db")) == 1
        fresh.close()

    def test_handle_opened_before_a_replace_reads_the_old_rows(
            self, tmp_path):
        self._committed(tmp_path).close()
        early = Database(str(tmp_path / "db"))   # lazy: nothing read yet
        late = Database(str(tmp_path / "db"))
        late.create_table("old", ["uid"], [(i,) for i in range(50, 60)],
                          replace=True)
        late.drop_table("gone")
        late.commit()
        assert len(_segments(tmp_path / "db")) == 1  # the old one is gone
        assert not early.table("old").is_loaded
        assert early.table("old").rows == [(0,), (1,), (2,)]
        assert early.table("gone").rows == [(0,), (1,), (2,), (3,)]
        rows = run_sql(early, "SELECT uid FROM old WHERE uid >= 1 "
                              "ORDER BY uid DESC LIMIT 2")
        assert [r["uid"] for r in rows] == [2, 1]
        early.close()
        late.close()

    def test_two_handles_on_one_directory_lose_nothing(self, tmp_path):
        path = str(tmp_path / "db")
        d1, d2 = Database(path), Database(path)
        d1.create_table("x1", ["uid"], [(1,)])
        d1.commit()
        d2.create_table("x2", ["uid"], [(2,)])
        d2.commit()  # must layer over d1's commit, not over its own memory
        fresh = Database(path)
        assert sorted(fresh.tables) == ["x1", "x2"]
        assert fresh.table("x1").rows == [(1,)]
        assert fresh.table("x2").rows == [(2,)]
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        assert sorted(t["file"] for t in manifest["tables"].values()) == \
            _segments(tmp_path / "db")  # no orphan segment left
        # a drop by one handle does not resurrect through the other
        d1.drop_table("x1")
        d1.commit()
        d2.create_table("x3", ["uid"], [(3,)])
        d2.commit()
        assert sorted(Database(path).tables) == ["x2", "x3"]
        for db in (d1, d2, fresh):
            db.close()

    def test_a_commit_reads_back_what_it_committed(self, tmp_path):
        """The committing handle maps its new segment before it lets go of
        the lock: another handle's commit right after it, replacing the
        table and sweeping that segment, leaves it reading its own rows."""
        a, b = TableStorage(tmp_path / "db"), TableStorage(tmp_path / "db")
        a.create("t", ["uid"], [np.arange(5)])
        b.create("t", ["uid"], [np.arange(7)])
        locked = a._dir.locked

        @contextlib.contextmanager
        def then_b_commits():
            with locked() as manifest:
                yield manifest
            b.commit()
        a._dir.locked = then_b_commits
        a.commit()
        assert a.load_columns("t")[1][0].tolist() == list(range(5))
        assert TableStorage(tmp_path / "db").n_rows("t") == 7

    def test_a_file_that_is_not_a_segment_survives_commit(self, tmp_path):
        """A commit sweeps the segments nothing names, and nothing else
        the directory holds."""
        path = tmp_path / "db"
        db = Database(str(path))
        db.create_table("t", ["uid"], [(1,)])
        db.commit()
        (path / "notes.txt").write_text("not a segment")
        db.create_table("t", ["uid"], [(2,)], replace=True)  # new segment
        db.commit()
        assert (path / "notes.txt").read_text() == "not a segment"
        manifest = json.loads((path / "manifest.json").read_text())
        assert _segments(path) == [manifest["tables"]["t"]["file"]]
        db.close()


# ----------------------------------------------------------------------
# faults: the right rows or a typed error, never a wrong row
# ----------------------------------------------------------------------
class TestSegmentFaults:
    N = 40

    @pytest.fixture
    def path(self, tmp_path):
        """A directory holding the table under attack and, from another
        commit, one more."""
        db = Database(str(tmp_path / "db"))
        db.create_table("other", ["uid"], [(i,) for i in range(5)])
        db.commit()
        db.create_table("t", ["uid", "score", "name"],
                        [(i, i / 8, f"u{i % 3}") for i in range(self.N)])
        db.close()
        return tmp_path / "db"

    @staticmethod
    def _manifest(path) -> dict:
        return json.loads((path / "manifest.json").read_text())

    def _flip(self, path, offset: int) -> None:
        segment = path / self._manifest(path)["tables"]["t"]["file"]
        raw = bytearray(segment.read_bytes())
        raw[offset] ^= 0xFF
        segment.write_bytes(bytes(raw))

    def _edit(self, path, edit) -> None:
        manifest = self._manifest(path)
        edit(manifest["tables"]["t"])
        (path / "manifest.json").write_text(json.dumps(manifest))

    def _assert_only_t_is_lost(self, path, touch) -> None:
        db = Database(str(path))             # opening checks nothing yet
        with pytest.raises(CorruptEntryError):
            touch(db)
        with pytest.raises(CorruptEntryError):  # and it stays an error
            touch(db)
        assert not db.table("t").is_loaded   # lazy, not silently empty
        assert db.table("other").rows == [(i,) for i in range(5)]
        db.close()

    def test_flipped_byte_in_a_column_blob(self, path):
        offset, nbytes, _ = self._manifest(path)["tables"]["t"]["blobs"][1]
        self._flip(path, offset + nbytes - 5)  # inside the payload
        self._assert_only_t_is_lost(path, lambda db: db.table("t").rows)

    def test_flipped_byte_in_an_index_blob(self, path):
        info = self._manifest(path)["tables"]["t"]["indexes"]["score"]
        self._flip(path, info["order"][0] + info["order"][1] - 3)
        sql = "SELECT uid FROM t ORDER BY score DESC LIMIT 3"
        self._assert_only_t_is_lost(path, lambda db: run_sql(db, sql))
        # the columns themselves are intact: the scan answers
        db = Database(str(path))
        db.use_indexes = False
        assert [r["uid"] for r in run_sql(db, sql)] == [39, 38, 37]
        db.close()

    def test_every_byte_of_a_blob_header_is_checked_or_irrelevant(self,
                                                                  path):
        """The checksum covers the payload; the npy header is pinned by
        structure.  Flip each header byte in turn: the table either fails
        typed or still reads right."""
        offset, _, _ = self._manifest(path)["tables"]["t"]["blobs"][0]
        for at in range(offset, offset + 128):
            self._flip(path, at)
            db = Database(str(path))
            try:
                assert db.table("t").column("uid").tolist() == \
                    list(range(self.N))
            except CorruptEntryError:
                pass
            finally:
                db.close()
                self._flip(path, at)  # restore

    def test_truncated_segment(self, path):
        segment = path / self._manifest(path)["tables"]["t"]["file"]
        with open(segment, "r+b") as f:
            f.truncate(segment.stat().st_size - 1)
        self._assert_only_t_is_lost(path, lambda db: db.table("t").rows)

    def test_span_past_the_file(self, path):
        def edit(ent):
            ent["blobs"][0][0] = ent["file_bytes"] - 8
        self._edit(path, edit)
        self._assert_only_t_is_lost(
            path, lambda db: db.table("t").column("uid"))

    @pytest.mark.parametrize("field,value", [("n_rows", N - 1),
                                             ("kinds", ["f8", "f8", "dict"])])
    def test_header_disagreeing_with_the_catalog(self, path, field, value):
        self._edit(path, lambda ent: ent.__setitem__(field, value))
        self._assert_only_t_is_lost(
            path, lambda db: db.table("t").column("uid"))

    def test_threads_reading_one_map_never_see_a_corrupt_blob(self,
                                                              tmp_path):
        """Every reader of a segment shares its one map, and table storage
        reads without a lock: ``blob`` must not parse headers through the
        map's file position, which a concurrent reader moves."""
        arrays = [np.arange(n, dtype=dtype)
                  for n, dtype in ((5, "<i8"), (17, "<f8"), (40, "<i4"),
                                   (9, "<f8"))]
        path = tmp_path / "one.seg"
        with open(path, "wb") as f:
            spans = [write_blob(f, [array]) for array in arrays]
        segment = map_segment(path, path.stat().st_size)
        failures: list = []
        start = threading.Barrier(4)

        def read(k: int) -> None:
            start.wait()
            for i in range(3000):
                want = arrays[(i + k) % len(arrays)]
                try:
                    got = blob(segment, spans[(i + k) % len(arrays)],
                               want.shape, want.dtype, "blob")
                except (CorruptEntryError, SystemError) as exc:
                    # a moved file position; a concurrent AST parse
                    failures.append(exc)
                else:
                    if not np.array_equal(got, want):
                        failures.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestBlob:
    """``blob`` reads one npy blob of a mapped segment by slicing the map,
    never through the file position its readers share."""

    @staticmethod
    def _segment(tmp_path, blobs):
        path = tmp_path / "one.seg"
        with open(path, "wb") as f:
            spans = [write_blob(f, parts) for parts in blobs]
        return map_segment(path, path.stat().st_size), spans

    @pytest.mark.parametrize("dtype,shape", [
        ("<i8", (5,)), ("<f8", (3, 4)), ("<i4", (0,)), ("<f4", (2, 3, 2)),
        ("|b1", (7,)), ("|u1", (1, 64))])
    def test_round_trips_a_written_array(self, tmp_path, dtype, shape):
        want = (np.arange(np.prod(shape, dtype=np.int64)) % 3
                ).astype(dtype).reshape(shape)
        # a blob ahead of it, so this one starts at an aligned offset > 0
        segment, spans = self._segment(tmp_path, [[np.arange(3)], [want]])
        got = blob(segment, spans[1], want.shape, want.dtype, "blob")
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable

    def test_stacked_parts_read_back_as_their_concatenation(self, tmp_path):
        parts = [np.arange(6.0).reshape(2, 3), np.arange(3.0).reshape(1, 3)]
        segment, spans = self._segment(tmp_path, [parts])
        got = blob(segment, spans[0], (3, 3), np.dtype("<f8"), "blob")
        assert np.array_equal(got, np.concatenate(parts))

    def test_leaves_the_map_file_position_alone(self, tmp_path):
        want = np.arange(10.0)
        segment, spans = self._segment(tmp_path, [[np.arange(4)], [want]])
        segment.seek(3)
        blob(segment, spans[1], want.shape, want.dtype, "blob")
        assert segment.tell() == 3

    @pytest.mark.parametrize("cut", [4, 9, 30])
    def test_a_span_cut_inside_its_header_is_corrupt(self, tmp_path, cut):
        want = np.arange(10.0)
        segment, spans = self._segment(tmp_path, [[want], [np.arange(4)]])
        with pytest.raises(CorruptEntryError, match="blob"):
            blob(segment, [spans[0][0], cut], want.shape, want.dtype, "blob")

    def test_a_recorded_digest_is_checked(self, tmp_path):
        """A span carrying a crc32 fails typed on a flipped payload byte;
        the same span without it reads what the bytes say."""
        want = np.arange(10.0)
        path = tmp_path / "one.seg"
        with open(path, "wb") as f:
            span = write_blob(f, [want]) + [zlib.crc32(want)]
        raw = bytearray(path.read_bytes())
        raw[span[0] + span[1] - 3] ^= 0xFF   # inside the last value
        path.write_bytes(bytes(raw))
        segment = map_segment(path, path.stat().st_size)
        with pytest.raises(CorruptEntryError, match="checksum"):
            blob(segment, span, want.shape, want.dtype, "blob")
        got = blob(segment, span[:2], want.shape, want.dtype, "blob")
        assert np.array_equal(got[:-1], want[:-1]) and got[-1] != want[-1]


class TestSegmentDirectory:
    """The directory protocol both stores commit through, on its own."""

    @staticmethod
    def _directory(path, version=1):
        return SegmentDirectory(path, version, "things",
                                lambda manifest: manifest["things"])

    def test_a_raising_manifest_publish_leaves_the_directory_as_it_was(
            self, tmp_path, monkeypatch):
        directory = self._directory(tmp_path)
        with directory.locked() as manifest:
            manifest["things"]["a"] = 1
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def full_disk(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError) as caught:
            with directory.locked() as manifest:
                manifest["things"]["b"] = 2
        assert caught.value.errno == errno.ENOSPC
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        monkeypatch.undo()
        directory.refresh()   # memory follows the disk, not the failure
        assert directory.manifest["things"] == {"a": 1}

    def test_a_commit_that_changes_nothing_publishes_nothing(self,
                                                             tmp_path):
        directory = self._directory(tmp_path)
        with directory.locked():
            pass
        assert not (tmp_path / "manifest.json").exists()
        with directory.locked() as manifest:
            manifest["things"]["a"] = 1
        sig = directory.stat()
        with directory.locked():
            pass
        assert (directory.commits, directory.stat()) == (1, sig)

    def test_another_version_is_refused_on_every_read(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"version": 1, "seq": 3, "things": {"a": 1}}))
        committed = (tmp_path / "manifest.json").read_bytes()
        directory = self._directory(tmp_path, version=2)
        for _ in range(2):
            with pytest.raises(ManifestError, match="version 1") as caught:
                directory.refresh()
            assert caught.value.version == 1
            with pytest.raises(ManifestError, match="version 1"):
                with directory.locked():
                    pytest.fail("a refused manifest is never committed over")
        assert directory.manifest is None
        assert (tmp_path / "manifest.json").read_bytes() == committed
        (tmp_path / "manifest.json").write_text("{ torn")
        with pytest.raises(ManifestError) as caught:
            directory.refresh()
        assert caught.value.version is None


# ----------------------------------------------------------------------
# Database persistence
# ----------------------------------------------------------------------
class TestDatabasePersistence:
    def test_exact_value_round_trip(self, tmp_path):
        rows = [(1, 0.5, "a", None, True),
                (2, -1.25, "b", "x", False),
                (3, float("nan"), "a", 7, True)]
        db = Database(str(tmp_path / "db"))
        db.create_table("t", ["i", "f", "s", "m", "b"], rows)
        db.close()

        db = Database(str(tmp_path / "db"))
        table = db.table("t")
        assert not table.is_loaded
        got = table.rows
        assert got[0] == rows[0] and got[1] == rows[1]
        assert got[2][0] == 3 and np.isnan(got[2][1])
        assert got[2][2:] == rows[2][2:]
        db.close()

    def test_staged_append_path(self, tmp_path):
        db = Database(str(tmp_path / "db"))
        db.create_table("t", ["uid", "v"], [(i, i * 2) for i in range(10)])
        db.commit()
        db.table("t").insert_many([(i, i * 2) for i in range(10, 25)])
        assert not db.table_clean("t")  # buffered rows gate the index path
        db.commit()
        assert db.table_clean("t")
        db.close()

        db = Database(str(tmp_path / "db"))
        assert len(db.table("t")) == 25
        assert db.table("t").rows == [(i, i * 2) for i in range(25)]
        db.close()

    def test_drop_table_persists(self, tmp_path):
        db = Database(str(tmp_path / "db"))
        db.create_table("t", ["uid"], [(1,)])
        db.commit()
        db.drop_table("t")
        db.close()
        db = Database(str(tmp_path / "db"))
        assert "t" not in db.tables
        db.close()

    def test_close_is_idempotent(self, tmp_path):
        db = Database(str(tmp_path / "db"))
        db.create_table("t", ["uid"], [(i,) for i in range(3)])
        db.close()
        column = Database(str(tmp_path / "db")).table("t").column("uid")
        commits = db.storage.stats()["commits"]
        db.close()  # commits nothing, raises nothing
        assert db.storage.stats()["commits"] == commits == 1
        # maps are dropped, not closed: a column handed out earlier (here
        # by a handle already collected) goes on reading
        assert column.tolist() == [0, 1, 2]
        Database().close()  # in-memory: nothing to do, twice
        Database().close()

    def test_unserializable_table_degrades_to_memory_only(self, tmp_path):
        from repro.util.debuglog import degradation_counts
        fn = lambda x: x  # noqa: E731 — unpicklable on purpose
        before = degradation_counts().get("db.table-memory-only", 0)
        db = Database(str(tmp_path / "db"))
        db.create_table("funcs", ["uid", "fn"], [(1, fn), (2, fn)])
        db.create_table("plain", ["uid"], [(1,)])
        db.commit()  # must not raise
        assert run_sql(db, "SELECT uid, fn FROM funcs")[0]["fn"] is fn
        assert not db.table_clean("funcs") and db.table_clean("plain")
        db.close()  # unchanged content is not tried (or counted) again
        assert degradation_counts()["db.table-memory-only"] == before + 1

        db = Database(str(tmp_path / "db"))
        assert "funcs" not in db.tables   # degraded, not persisted
        assert "plain" in db.tables
        db.close()

    def test_index_for_gating(self, tmp_path):
        db = Database(str(tmp_path / "db"))
        db.create_table("t", ["uid"], [(i,) for i in range(20)])
        assert db.index_for("t", "uid") is None  # staged, not committed
        db.commit()
        assert db.index_for("t", "uid") is not None
        db.table("t").insert((99,))
        assert db.index_for("t", "uid") is None  # dirty again
        db.use_indexes = False
        db.commit()
        assert db.index_for("t", "uid") is None  # opt-out honored
        db.close()

    def test_uncommitted_rows_visible_via_full_scan(self, tmp_path):
        db = Database(str(tmp_path / "db"))
        db.create_table("t", ["uid"], [(i,) for i in range(5)])
        db.commit()
        db.table("t").insert((100,))
        rows = run_sql(db, "SELECT uid FROM t WHERE uid >= 3 "
                           "ORDER BY uid DESC LIMIT 10")
        assert [r["uid"] for r in rows] == [100, 4, 3]
        db.close()


# ----------------------------------------------------------------------
# planner edge cases: every shape must be bit-identical to the full scan
# ----------------------------------------------------------------------
def _make_pair(tmp_path, rows, columns):
    mem = Database()
    mem.create_table("t", columns, rows)
    disk = Database(str(tmp_path / "db"))
    disk.create_table("t", columns, rows)
    disk.commit()
    return mem, disk


EDGE_QUERIES = [
    "SELECT uid, epoch FROM t WHERE epoch = 2.5",             # → empty
    "SELECT uid, epoch FROM t WHERE epoch > 2.5 ORDER BY uid",
    "SELECT uid, epoch FROM t WHERE epoch >= 2.5 ORDER BY uid",
    "SELECT uid, epoch FROM t WHERE epoch < 2.5 AND epoch > 0.5 "
    "ORDER BY uid",
    "SELECT uid, name FROM t WHERE name = 'missing'",         # absent code
    "SELECT uid, name FROM t WHERE name = 'u1' ORDER BY uid",
    "SELECT uid FROM t WHERE uid = 'not_a_number'",           # type clash
    "SELECT uid, score FROM t WHERE score > 0.25 AND name = 'u0' "
    "ORDER BY score DESC LIMIT 3",
    "SELECT uid, score FROM t ORDER BY score DESC LIMIT 4",
    "SELECT uid, score FROM t ORDER BY score ASC LIMIT 4",
    "SELECT epoch, count(uid) AS n, sum(score) AS s FROM t "
    "WHERE epoch >= 1 GROUP BY epoch ORDER BY epoch",
    "SELECT uid FROM t WHERE uid >= 10000000000",             # empty range
    "SELECT uid FROM t WHERE uid > 3 AND uid > 5 AND uid <= 9 "
    "ORDER BY uid",
    "SELECT uid FROM t ORDER BY score DESC LIMIT 4",          # hidden key
    "SELECT name FROM t WHERE epoch >= 1 ORDER BY score LIMIT 5",
    "SELECT A.uid, B.name FROM t A, t B "                     # no index plan
    "WHERE A.uid = B.uid AND A.epoch = 1 ORDER BY A.uid",
]


class TestPlannerEdgeCases:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        rng = random.Random(42)
        rows = [(i, rng.randrange(4), round(rng.random(), 2),
                 f"u{rng.randrange(3)}") for i in range(60)]
        return _make_pair(tmp_path_factory.mktemp("edge"), rows,
                          ["uid", "epoch", "score", "name"])

    @pytest.mark.parametrize("sql", EDGE_QUERIES)
    def test_bit_identical_to_memory(self, pair, sql):
        mem, disk = pair
        assert run_sql(disk, sql) == run_sql(mem, sql)

    def test_indexes_actually_used(self, pair):
        _, disk = pair
        before = disk.index_scans
        run_sql(disk, "SELECT uid, score FROM t ORDER BY score DESC LIMIT 4")
        run_sql(disk, "SELECT uid FROM t WHERE uid > 3 AND uid <= 9")
        assert disk.index_scans == before + 2

    def test_unprojected_order_key_streams_from_the_index(self, pair):
        mem, disk = pair
        sql = "SELECT uid FROM t ORDER BY score DESC LIMIT 4"
        before = (disk.index_scans, disk.full_scans)
        rows = run_sql(disk, sql)
        assert (disk.index_scans, disk.full_scans) == \
            (before[0] + 1, before[1])
        assert rows == run_sql(mem, sql)
        assert all(list(row) == ["uid"] for row in rows)

    def test_plan_scan_declines_unindexable_shapes(self, pair):
        mem, disk = pair
        # NOT is not sargable and stays on the full-scan path
        sql = "SELECT uid FROM t WHERE not uid > 3 ORDER BY uid"
        q = parse_sql(sql)
        assert plan_scan(disk, bind(disk, q).query) is None
        before = (disk.index_scans, disk.full_scans)
        assert run_sql(disk, sql) == run_sql(mem, sql)
        assert (disk.index_scans, disk.full_scans) == \
            (before[0], before[1] + 1)
        # the control: the same rows spelled sargably come from the index
        control = parse_sql("SELECT uid FROM t WHERE uid <= 3 ORDER BY uid")
        cols, n, ordered = plan_scan(disk, bind(disk, control).query)
        assert (sorted(cols), n, ordered) == (["t.uid"], 4, False)
        assert (disk.index_scans, disk.full_scans) == \
            (before[0] + 1, before[1] + 1)

    def test_plan_scan_rejects_an_unbound_query(self, pair):
        _, disk = pair
        # a silently declined plan would read as "not indexable"
        q = parse_sql("SELECT uid FROM t WHERE uid > 3")
        with pytest.raises(ValueError, match="takes a bound query.*'uid'"):
            plan_scan(disk, q)


# ----------------------------------------------------------------------
# randomized differential suite
# ----------------------------------------------------------------------
def _random_query(rng: random.Random) -> str:
    preds = []
    for _ in range(rng.randrange(3)):
        preds.append(rng.choice([
            f"epoch {rng.choice(['<', '<=', '>', '>=', '='])} "
            f"{rng.randrange(6)}",
            f"epoch > {rng.randrange(5)}.5",
            f"score {rng.choice(['<', '<=', '>', '>='])} "
            f"0.{rng.randrange(10)}",
            f"name = 'u{rng.randrange(5)}'",
            f"uid {rng.choice(['<', '>='])} {rng.randrange(200)}",
        ]))
    where = f" WHERE {' AND '.join(preds)}" if preds else ""
    if rng.random() < 0.3:
        sql = ("SELECT epoch, count(uid) AS n, sum(score) AS s, "
               f"min(uid) AS lo FROM t{where} GROUP BY epoch ORDER BY epoch")
    else:
        order = rng.choice(["uid", "score", "epoch"])
        direction = rng.choice(["ASC", "DESC"])
        sql = (f"SELECT uid, epoch, score, name FROM t{where} "
               f"ORDER BY {order} {direction}")
        if rng.random() < 0.6:
            sql += f" LIMIT {rng.randrange(1, 30)}"
    return sql


class TestDifferentialRandom:
    def test_indexed_vs_unindexed_vs_memory(self, tmp_path):
        rng = random.Random(1234)
        rows = [(i, rng.randrange(6), round(rng.random(), 2),
                 f"u{rng.randrange(5)}") for i in range(200)]
        columns = ["uid", "epoch", "score", "name"]
        mem, disk = _make_pair(tmp_path, rows, columns)
        noidx = Database(str(tmp_path / "db2"))
        noidx.create_table("t", columns, rows)
        noidx.commit()
        noidx.use_indexes = False

        for _ in range(60):
            sql = _random_query(rng)
            expect = run_sql(mem, sql)
            assert run_sql(disk, sql) == expect, sql
            assert run_sql(noidx, sql) == expect, sql
        assert disk.index_scans > 10   # the planner actually engaged
        assert noidx.index_scans == 0
        disk.close()
        noidx.close()

    def test_reopened_database_differential(self, tmp_path):
        rng = random.Random(99)
        rows = [(i, rng.randrange(4), round(rng.random(), 1),
                 f"u{rng.randrange(3)}") for i in range(150)]
        columns = ["uid", "epoch", "score", "name"]
        mem = Database()
        mem.create_table("t", columns, rows)
        disk = Database(str(tmp_path / "db"))
        disk.create_table("t", columns, rows)
        disk.close()

        disk = Database(str(tmp_path / "db"))  # lazy reopen
        for _ in range(25):
            sql = _random_query(rng)
            assert run_sql(disk, sql) == run_sql(mem, sql), sql
        disk.close()


# ----------------------------------------------------------------------
# satellite: ORDER BY fast paths
# ----------------------------------------------------------------------
class TestSortSatellites:
    def test_descending_single_pass_matches_stable_reference(self):
        rng = np.random.default_rng(5)
        for arr in [rng.integers(0, 10, 500).astype(np.int64),
                    np.round(rng.random(500), 1),
                    np.array([0.0, -0.0, 1.0, -0.0, 0.0])]:
            idx = sort_indices(arr, descending=True)
            rev = np.argsort(arr[::-1], kind="stable")
            expect = (arr.shape[0] - 1 - rev)[::-1]
            np.testing.assert_array_equal(idx, expect)

    def test_descending_int_min_fallback(self):
        imin = np.iinfo(np.int64).min
        arr = np.array([3, imin, 3, 0, imin], dtype=np.int64)
        idx = sort_indices(arr, descending=True)
        np.testing.assert_array_equal(arr[idx],
                                      np.array([3, 3, 0, imin, imin]))
        np.testing.assert_array_equal(idx, np.array([0, 2, 3, 1, 4]))

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("dtype", ["int", "float"])
    def test_topk_matches_full_sort(self, descending, dtype):
        rng = np.random.default_rng(17)
        if dtype == "int":
            arr = rng.integers(0, 25, 400).astype(np.int64)
        else:
            arr = np.round(rng.random(400), 1)  # dense ties
        for k in (1, 5, 37):
            got = topk_indices(arr, k, descending=descending)
            assert got is not None
            expect = sort_indices(arr, descending=descending)[:k]
            np.testing.assert_array_equal(got, expect)

    def test_topk_declines_ineligible_inputs(self):
        assert topk_indices(np.array(["a", "b"], dtype=object), 1) is None
        assert topk_indices(np.array([1.0, np.nan, 3.0] * 10), 2) is None
        arr = np.arange(10)
        assert topk_indices(arr, 0) is None
        assert topk_indices(arr, 10) is None
        assert topk_indices(arr, 5) is None  # k*4 >= n: not worth it

    def test_topk_int64_extremes(self):
        info = np.iinfo(np.int64)
        arr = np.array([info.min, info.max, 0, info.min, 5] * 10,
                       dtype=np.int64)
        for descending in (False, True):
            got = topk_indices(arr, 6, descending=descending)
            expect = sort_indices(arr, descending=descending)[:6]
            np.testing.assert_array_equal(got, expect)


# ----------------------------------------------------------------------
# crash recovery (subprocess: a real kill, not an exception)
# ----------------------------------------------------------------------
_CRASH_CHILD = """
import os, sys
from repro.db import Database

path = sys.argv[1]
db = Database(path)
db.create_table("t", ["uid", "v"], [(i, i * 10) for i in range(100)])
db.commit()                      # commit 1: must survive

db.table("t").insert_many([(i, i * 10) for i in range(100, 200)])

rename, renamed = os.replace, []
def replace(tmp, path):          # die after the segment is published
    if renamed:                  # but before the manifest naming it is
        os._exit(17)
    renamed.append(rename(tmp, path))
os.replace = replace
db.commit()                      # never returns
"""

_SECOND_WRITER_CHILD = """
import sys
from repro.db import Database

db = Database(sys.argv[1])       # opened before the parent commits x1
print("opened", flush=True)
sys.stdin.readline()             # ... and told to go on after it did
db.create_table("x2", ["uid"], [(2,)])
db.close()
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return env


@pytest.mark.slow
class TestCrashRecovery:
    def _run_child(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, str(tmp_path / "db")],
            capture_output=True, text=True, env=_child_env(), timeout=300)
        assert proc.returncode == 17, proc.stderr

    def _committed_segment(self, tmp_path):
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        return tmp_path / "db" / manifest["tables"]["t"]["file"]

    def test_kill_before_manifest_keeps_previous_commit(self, tmp_path):
        self._run_child(tmp_path)
        committed = self._committed_segment(tmp_path).name
        (orphan,) = set(_segments(tmp_path / "db")) - {committed}
        db = Database(str(tmp_path / "db"))
        table = db.table("t")
        assert len(table) == 100              # partial commit invisible
        assert table.rows == [(i, i * 10) for i in range(100)]
        # the survivor is fully usable: indexed queries + new commits
        rows = run_sql(db, "SELECT uid FROM t WHERE uid >= 90 "
                           "ORDER BY uid DESC LIMIT 5")
        assert [r["uid"] for r in rows] == [99, 98, 97, 96, 95]
        table.insert((100, 1000))
        db.commit()
        # that commit swept the killed one's orphan (and what it replaced)
        assert _segments(tmp_path / "db") == \
            [self._committed_segment(tmp_path).name]
        assert orphan not in _segments(tmp_path / "db")
        db.close()
        db = Database(str(tmp_path / "db"))
        assert len(db.table("t")) == 101
        db.close()

    def test_truncated_data_file_is_detected(self, tmp_path):
        self._run_child(tmp_path)
        data_path = self._committed_segment(tmp_path)
        raw = data_path.read_bytes()
        data_path.write_bytes(raw[:100])  # tear through every blob
        db = Database(str(tmp_path / "db"))
        with pytest.raises(CorruptEntryError):
            db.table("t").rows  # noqa: B018 — load maps and checks
        db.close()

    def test_two_processes_on_one_directory_lose_nothing(self, tmp_path):
        path = tmp_path / "db"
        child = subprocess.Popen(
            [sys.executable, "-c", _SECOND_WRITER_CHILD, str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_child_env())
        try:
            assert child.stdout.readline().strip() == "opened"
            db = Database(str(path))
            db.create_table("x1", ["uid"], [(1,)])
            db.close()
            child.stdin.write("go\n")
            child.stdin.flush()
            assert child.wait(timeout=300) == 0
        finally:
            child.kill()
            child.wait(timeout=60)
        fresh = Database(str(path))
        assert sorted(fresh.tables) == ["x1", "x2"]
        assert fresh.table("x1").rows == [(1,)]
        assert fresh.table("x2").rows == [(2,)]
        assert len(_segments(path)) == 2
        fresh.close()


# ----------------------------------------------------------------------
# the two facts benchmarks/bench_db_storage.py used to time, untimed
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_index_backed_topk_at_200k_rows_equals_the_scan(tmp_path):
    """At 200k rows the index answers ``WHERE … ORDER BY … DESC LIMIT k``
    with the scan's rows, without a full pass and without loading the
    reopened table.  (The bench's other fact — a reopened session answers
    with zero forward passes — is
    ``TestSessionPersistence::test_into_survives_reopen_without_models``.)
    """
    n = 200_000
    rng = np.random.default_rng(0)
    columns = {"uid": np.arange(n), "hid": rng.integers(0, 64, n),
               "unit_score": np.round(rng.random(n), 4)}  # with ties
    db = Database(str(tmp_path / "db"))
    db.create_table("scores", list(columns),
                    zip(*(c.tolist() for c in columns.values())))
    db.close()

    sql = ("SELECT uid, hid, unit_score FROM scores "
           "WHERE unit_score > 0.5 ORDER BY unit_score DESC LIMIT 20")
    db = Database(str(tmp_path / "db"))
    rows = run_sql(db, sql)
    assert (db.index_scans, db.full_scans) == (1, 0)
    assert not db.table("scores").is_loaded
    db.use_indexes = False
    assert run_sql(db, sql) == rows
    assert (db.index_scans, db.full_scans) == (1, 1)
    assert len(rows) == 20 and rows[0]["unit_score"] >= rows[-1]["unit_score"]
    db.close()


# ----------------------------------------------------------------------
# reopened Session: catalog + scores answered with zero extraction
# ----------------------------------------------------------------------
class TestSessionPersistence:
    def test_into_survives_reopen_without_models(
            self, tmp_path, trained_sql_model, sql_workload):
        from repro import InspectConfig, Session
        from repro.hypotheses import KeywordHypothesis

        config = InspectConfig(mode="full", max_records=40)
        db_dir = str(tmp_path / "catalog")
        with Session(db_path=db_dir, config=config) as session:
            session.register_model("m0", trained_sql_model)
            session.register_dataset("d0", sql_workload.dataset)
            session.register_hypotheses(
                [KeywordHypothesis("SELECT"), KeywordHypothesis("FROM")])
            frame = session.sql(
                "SELECT S.uid AS uid, S.hid AS hid, "
                "S.unit_score AS unit_score INTO saved "
                "INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
                "FROM models M, units U, hypotheses H, inputs D "
                "WHERE M.mid = U.mid")
            assert len(frame) > 0
            topk = "SELECT uid, hid, unit_score FROM saved " \
                   "ORDER BY unit_score DESC LIMIT 5"
            expect = [(r["uid"], r["hid"], r["unit_score"])
                      for r in session.sql(topk).rows()]
            clean = all(s == s for s in
                        (r["unit_score"] for r in frame.rows()))

        # fresh process-equivalent: nothing registered, no model objects
        with Session(db_path=db_dir, config=config) as session2:
            assert session2.models == {}
            saved = session2.db.table("saved")
            assert not saved.is_loaded
            out = session2.sql(topk)
            got = [(r["uid"], r["hid"], r["unit_score"]) for r in out.rows()]
            assert got == expect
            if clean:  # NaN-free scores → answered from the index
                assert session2.db.index_scans >= 1

    def test_env_var_places_db_under_path(self, tmp_path, monkeypatch):
        from repro import Session
        monkeypatch.setenv("REPRO_DB_PATH", str(tmp_path / "dbs"))
        with Session() as session:
            assert session.db.storage is not None
            assert session.db.path.startswith(str(tmp_path / "dbs"))

    def test_db_and_db_path_are_exclusive(self, tmp_path):
        from repro import Session
        with pytest.raises(ValueError):
            Session(db=Database(), db_path=str(tmp_path / "x"))
