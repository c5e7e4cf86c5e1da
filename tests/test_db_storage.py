"""Paged, B-tree-indexed on-disk storage (PR 7).

Covers every layer of ``repro.db.storage`` plus the engine wiring:

- pager: shadow-paged commit/reopen, CRC detection of torn pages,
  uncommitted pages invisible after reopen;
- heap + B-tree: scans bit-identical to stable argsort, bulk vs
  incremental equivalence, range bounds, descending duplicate runs;
- TableStorage: catalog round-trip, auto-indexes, appends, degradation;
- Database persistence: exact-value round-trips, staged appends,
  drops, memory-only fallback, index gating on uncommitted state;
- planner: sargable edge cases (fractional int bounds, missing dict
  keys, type-mismatched literals) bit-identical to the full scan;
- a randomized differential suite: persistent+indexed vs
  ``use_indexes=False`` vs in-memory over WHERE/ORDER BY/LIMIT/GROUP BY;
- satellites: single-pass descending ``sort_indices``, ``topk_indices``;
- crash recovery in a subprocess: a commit killed before the manifest
  rename leaves the previous commit intact; torn data pages surface as
  ``CorruptPageError`` instead of silent corruption;
- a reopened persistent :class:`Session` answering score queries with
  zero registered models (no re-extraction, lazy tables).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.db import Database, bind, execute_select, parse_sql
from repro.db.executor import sort_indices, topk_indices
from repro.db.planner import plan_scan
from repro.db.storage import (BTree, CorruptPageError, DictEncoder, HeapFile,
                              Pager, RowCodec, TableStorage, derive_kinds)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def run_sql(db: Database, sql: str):
    return execute_select(db, parse_sql(sql))


# ----------------------------------------------------------------------
# pager
# ----------------------------------------------------------------------
def _alloc(pager: Pager, payload: bytes) -> int:
    page = pager.allocate()  # pinned + dirty, shadow slot assigned
    page.data[:len(payload)] = payload
    pager.unpin(page.page_id)
    return page.page_id


class TestPager:
    def test_commit_reopen_round_trip(self, tmp_path):
        pager = Pager(tmp_path / "db", page_size=256)
        pid = _alloc(pager, b"hello")
        pager.commit(meta={"tag": 1})
        pager.close()

        pager = Pager(tmp_path / "db", page_size=256)
        assert pager.meta["tag"] == 1
        assert bytes(pager.get(pid, pin=False).data[:5]) == b"hello"
        pager.close()

    def test_uncommitted_pages_invisible_after_reopen(self, tmp_path):
        pager = Pager(tmp_path / "db", page_size=256)
        pid_a = _alloc(pager, b"a")
        pager.commit()
        pid_b = _alloc(pager, b"b")
        assert pager.has_uncommitted
        pager.close()  # close without commit: pid_b must vanish

        pager = Pager(tmp_path / "db", page_size=256)
        assert bytes(pager.get(pid_a, pin=False).data[:1]) == b"a"
        with pytest.raises((KeyError, IndexError, CorruptPageError)):
            pager.get(pid_b, pin=False)
        pager.close()

    def test_overwrite_is_shadowed_until_commit(self, tmp_path):
        pager = Pager(tmp_path / "db", page_size=256)
        pid = _alloc(pager, b"old")
        pager.commit()
        with pager.page(pid) as page:
            pager.mark_dirty(pid)
            page.data[:3] = b"new"
        pager.close()  # crash-equivalent: no commit

        pager = Pager(tmp_path / "db", page_size=256)
        assert bytes(pager.get(pid, pin=False).data[:3]) == b"old"
        pager.close()

    def test_crc_detects_torn_page(self, tmp_path):
        pager = Pager(tmp_path / "db", page_size=256)
        pid = _alloc(pager, bytes(range(256)))
        pager.commit()
        pager.close()

        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        phys = manifest["table"][pid]
        data_path = tmp_path / "db" / "pages.bin"
        raw = bytearray(data_path.read_bytes())
        raw[phys * 256 + 7] ^= 0xFF  # flip one committed byte
        data_path.write_bytes(bytes(raw))

        pager = Pager(tmp_path / "db", page_size=256)
        with pytest.raises(CorruptPageError):
            pager.get(pid, pin=False)
        pager.close()

    def test_eviction_under_tiny_cache_preserves_data(self, tmp_path):
        # budget of 8 pages forces constant eviction + shadow write-back
        pager = Pager(tmp_path / "db", page_size=256, cache_bytes=256 * 8)
        pids = [_alloc(pager, i.to_bytes(8, "little")) for i in range(64)]
        pager.commit()
        for i, pid in enumerate(pids):
            with pager.page(pid) as page:
                assert int.from_bytes(bytes(page.data[:8]), "little") == i
        pager.close()


# ----------------------------------------------------------------------
# heap
# ----------------------------------------------------------------------
class TestHeap:
    def test_append_read_gather_multi_page(self, tmp_path):
        pager = Pager(tmp_path / "db", page_size=256)
        dtype = np.dtype([("x", "<i8")])
        heap = HeapFile(pager, dtype.itemsize)
        values = np.arange(500, dtype=np.int64)
        packed = np.zeros(500, dtype=dtype)
        packed["x"] = values
        first = heap.append(packed)
        assert first == 0
        assert heap.n_rows == 500

        np.testing.assert_array_equal(heap.read_all(dtype)["x"], values)

        rids = np.array([499, 0, 250, 3, 250], dtype=np.int64)
        got = heap.gather(rids, dtype)
        np.testing.assert_array_equal(got["x"], values[rids])
        pager.close()

    def test_gather_out_of_range_raises(self, tmp_path):
        pager = Pager(tmp_path / "db", page_size=256)
        dtype = np.dtype([("x", "<i8")])
        heap = HeapFile(pager, dtype.itemsize)
        heap.append(np.zeros(4, dtype=dtype))
        with pytest.raises(IndexError):
            heap.gather(np.array([4], dtype=np.int64), dtype)
        pager.close()


# ----------------------------------------------------------------------
# B-tree
# ----------------------------------------------------------------------
def _collect(scan_iter) -> np.ndarray:
    batches = [np.asarray(b) for b in scan_iter]
    if not batches:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(batches)


class TestBTree:
    @pytest.mark.parametrize("n", [0, 1, 50, 700])
    def test_full_scan_matches_stable_argsort(self, tmp_path, n):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, max(n // 4, 1), size=n).astype(np.int64)
        rids = np.arange(n, dtype=np.int64)
        pager = Pager(tmp_path / "db", page_size=256)
        tree = BTree(pager)
        order = np.lexsort((rids, keys))  # bulk_load wants (key, rid) order
        tree.bulk_load(keys[order], rids[order])

        asc = _collect(tree.scan())
        np.testing.assert_array_equal(asc, np.argsort(keys, kind="stable"))

        desc = _collect(tree.scan(descending=True))
        expected = np.argsort(-keys, kind="stable") if n else rids
        np.testing.assert_array_equal(desc, expected)
        pager.close()

    def test_incremental_insert_equals_bulk_load(self, tmp_path):
        rng = np.random.default_rng(7)
        keys = rng.integers(-50, 50, size=400).astype(np.int64)
        rids = np.arange(400, dtype=np.int64)

        pager = Pager(tmp_path / "db", page_size=256)
        bulk, inc = BTree(pager), BTree(pager)
        order = np.lexsort((rids, keys))
        bulk.bulk_load(keys[order], rids[order])
        inc.insert_many(keys, rids)  # arbitrary order: inserts keep sorted
        np.testing.assert_array_equal(_collect(bulk.scan()),
                                      _collect(inc.scan()))
        assert bulk.n_entries == inc.n_entries == 400
        pager.close()

    @pytest.mark.parametrize("lo,hi,lo_incl,hi_incl", [
        (10, 20, True, True), (10, 20, False, False),
        (10, 20, True, False), (None, 15, True, True),
        (15, None, False, True), (None, None, True, True),
        (99, 99, True, True), (20, 10, True, True),
    ])
    def test_range_bounds(self, tmp_path, lo, hi, lo_incl, hi_incl):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 30, size=300).astype(np.int64)
        rids = np.arange(300, dtype=np.int64)
        pager = Pager(tmp_path / "db", page_size=256)
        tree = BTree(pager)
        order = np.lexsort((rids, keys))
        tree.bulk_load(keys[order], rids[order])

        mask = np.ones(300, dtype=bool)
        if lo is not None:
            mask &= keys >= lo if lo_incl else keys > lo
        if hi is not None:
            mask &= keys <= hi if hi_incl else keys < hi
        expect = np.flatnonzero(mask)
        got = np.sort(_collect(tree.scan(lo, hi, lo_incl, hi_incl)))
        np.testing.assert_array_equal(got, expect)

        got_desc = np.sort(_collect(
            tree.scan(lo, hi, lo_incl, hi_incl, descending=True)))
        np.testing.assert_array_equal(got_desc, expect)
        pager.close()

    def test_float_keys(self, tmp_path):
        rng = np.random.default_rng(11)
        keys = np.round(rng.random(200), 1)  # heavy duplicates
        rids = np.arange(200, dtype=np.int64)
        pager = Pager(tmp_path / "db", page_size=256)
        tree = BTree(pager, key_dtype="<f8")
        order = np.lexsort((rids, keys))
        tree.bulk_load(keys[order], rids[order])
        np.testing.assert_array_equal(
            _collect(tree.scan(descending=True)),
            np.argsort(-keys, kind="stable"))
        pager.close()


# ----------------------------------------------------------------------
# row codec
# ----------------------------------------------------------------------
class TestRowCodec:
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

    def test_codec_encode_decode(self):
        codec = RowCodec(["i8", "f8", "dict"])
        arrays = [np.array([1, 2], dtype=np.int64),
                  np.array([0.5, -1.5]),
                  np.array(["p", "q"], dtype=object)]
        packed = codec.encode(arrays)
        out = codec.decode(packed)
        for got, want in zip(out, arrays):
            np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# TableStorage
# ----------------------------------------------------------------------
class TestTableStorage:
    def test_create_reopen_auto_index(self, tmp_path):
        store = TableStorage(tmp_path / "db", page_size=512)
        uid = np.arange(100, dtype=np.int64)
        score = np.linspace(0, 1, 100)
        name = np.array([f"u{i % 7}" for i in range(100)], dtype=object)
        store.create("scores", ["uid", "score", "name"], [uid, score, name])
        store.commit()
        store.close()

        store = TableStorage(tmp_path / "db", page_size=512)
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
        store = TableStorage(tmp_path / "db", page_size=512)
        store.create("t", ["uid"], [np.arange(10, dtype=np.int64)])
        store.append("t", [np.arange(10, 30, dtype=np.int64)])
        store.commit()
        tree = store.btree("t", "uid")
        assert tree.n_entries == 30
        rids = np.sort(_collect(tree.scan(5, 24)))
        np.testing.assert_array_equal(rids, np.arange(5, 25))
        store.close()

    def test_nan_float_column_not_indexed(self, tmp_path):
        store = TableStorage(tmp_path / "db", page_size=512)
        vals = np.array([1.0, np.nan, 3.0])
        store.create("t", ["score"], [vals])
        assert store.index_info("t", "score") is None
        _, arrays = store.load_columns("t")  # values still stored exactly
        np.testing.assert_array_equal(arrays[0], vals)
        store.close()

    def test_gather_decodes_requested_columns_only(self, tmp_path):
        store = TableStorage(tmp_path / "db", page_size=512)
        store.create("t", ["uid", "name"],
                     [np.arange(50, dtype=np.int64),
                      np.array([f"n{i}" for i in range(50)], dtype=object)])
        rids = np.array([40, 3, 3, 17], dtype=np.int64)
        out = store.gather("t", rids, ["name"])
        assert list(out) == ["name"]
        np.testing.assert_array_equal(
            out["name"], np.array(["n40", "n3", "n3", "n17"], dtype=object))
        store.close()

    def test_drop_removes_table(self, tmp_path):
        store = TableStorage(tmp_path / "db", page_size=512)
        store.create("t", ["uid"], [np.arange(5, dtype=np.int64)])
        store.commit()
        store.drop("t")
        store.commit()
        store.close()
        store = TableStorage(tmp_path / "db", page_size=512)
        assert "t" not in store
        store.close()


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

    def test_unserializable_table_degrades_to_memory_only(self, tmp_path):
        fn = lambda x: x  # noqa: E731 — unpicklable on purpose
        db = Database(str(tmp_path / "db"))
        db.create_table("funcs", ["uid", "fn"], [(1, fn), (2, fn)])
        db.create_table("plain", ["uid"], [(1,)])
        db.commit()  # must not raise
        assert run_sql(db, "SELECT uid, fn FROM funcs")[0]["fn"] is fn
        db.close()

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
import repro.db.storage.pager as pager_mod
from repro.db import Database

path = sys.argv[1]
db = Database(path)
db.create_table("t", ["uid", "v"], [(i, i * 10) for i in range(100)])
db.commit()                      # commit 1: must survive

db.table("t").insert_many([(i, i * 10) for i in range(100, 200)])

def crash(self, manifest):       # die after data pages hit disk but
    os._exit(17)                 # before the atomic manifest rename

pager_mod.Pager._write_manifest = crash
db.commit()                      # never returns
"""


@pytest.mark.slow
class TestCrashRecovery:
    def _run_child(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, str(tmp_path / "db")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 17, proc.stderr

    def test_kill_before_manifest_keeps_previous_commit(self, tmp_path):
        self._run_child(tmp_path)
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
        db.close()
        db = Database(str(tmp_path / "db"))
        assert len(db.table("t")) == 101
        db.close()

    def test_truncated_data_file_is_detected(self, tmp_path):
        self._run_child(tmp_path)
        data_path = tmp_path / "db" / "pages.bin"
        raw = data_path.read_bytes()
        data_path.write_bytes(raw[:100])  # tear through every page
        db = Database(str(tmp_path / "db"))
        with pytest.raises(CorruptPageError):
            db.table("t").rows  # noqa: B018 — load triggers CRC checks
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
            if clean:  # NaN-free scores → answered from the B-tree
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
