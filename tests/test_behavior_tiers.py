"""Differential and lifecycle suite for the behavior memory tiers.

The hypothesis tier keeps one symbol-major arena per dataset and serves a
block of the hypothesis matrix with one gather; everything here compares it
against the stacked per-hypothesis reference —
``np.stack([h.extract(dataset, indices).reshape(-1) for h in hyps], axis=1)``
— byte for byte, and pins the counters to what the per-hypothesis loop it
replaced reported.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.cache as cache_module
from repro import (DiskBehaviorStore, HypothesisCache, InspectConfig,
                   Session, UnitBehaviorCache, UnitGroup, inspect)
from repro.core.cache import (hyp_store_key, panel_store_key,
                              unit_store_key)
from repro.core.pipeline import InspectionPlan, ScoreTask
from repro.extract import RnnActivationExtractor
from repro.extract.base import Extractor
from repro.hypotheses import HypothesisFunction, grammar_hypotheses
from repro.hypotheses.base import block_indices
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.measures import CorrelationScore
from repro.util.debuglog import degradation_counts
from repro.util.testing import CountingForwardModel
from repro.util.trace import tracing


@pytest.fixture(scope="module")
def hyps72(sql_workload):
    """The SQL workload's whole hypothesis library (as the benchmark's)."""
    wl = sql_workload
    hyps = grammar_hypotheses(wl.grammar, wl.queries, wl.trees,
                              mode="derivation") + sql_keyword_hypotheses()
    assert len(hyps) == 72
    return hyps


def reference(hypotheses, dataset, indices) -> np.ndarray:
    """The uncached hypothesis matrix block the tier must reproduce."""
    if not hypotheses:
        return np.empty((len(indices) * dataset.n_symbols, 0))
    return np.stack([h.extract(dataset, indices).reshape(-1)
                     for h in hypotheses], axis=1)


def assert_same_block(block: np.ndarray, expected: np.ndarray) -> None:
    assert block.dtype == np.float64 and expected.dtype == np.float64
    assert block.shape == expected.shape
    assert block.flags["C_CONTIGUOUS"]
    assert block.tobytes() == expected.tobytes()


def column_bytes(dataset) -> int:
    return 8 * dataset.n_records * dataset.n_symbols + dataset.n_records


def cold_records(cache, dataset, indices, hypothesis) -> list[int]:
    """``indices`` without memory-tier cells for ``hypothesis``: its arena
    column's fill mask, read without claiming a column or moving a
    counter."""
    indices = np.asarray(indices, dtype=int)
    column = cache._entries.get(
        (dataset.cache_key(), cache._hypothesis_identity(hypothesis)))
    if column is not None:
        indices = indices[~column.arena.filled[column.col, indices]]
    return indices.tolist()


def index_sets(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    return {"all": np.arange(n),
            "shuffled": rng.permutation(n),          # shuffle=True order
            "duplicate": np.array([5, 5, 0, n - 1, 5, 0]),
            "empty": np.array([], dtype=int),
            "strided": np.arange(n - 1, 0, -7)}      # and out of order


def hypothesis_lists() -> dict[str, list[int]]:
    rng = np.random.default_rng(4)
    return {"all": list(range(72)),
            "subset": list(range(10, 40, 3)),
            "permuted": [int(i) for i in rng.permutation(72)],
            "one": [17],
            "none": []}


# ----------------------------------------------------------------------
# (a) block read == stacked reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("with_store", [False, True],
                         ids=["memory", "store"])
@pytest.mark.parametrize("state", ["cold", "half", "warm"])
def test_block_read_matches_stacked_reference(state, with_store, tmp_path,
                                              sql_workload, hyps72):
    dataset = sql_workload.dataset
    n = dataset.n_records
    order = np.random.default_rng(0).permutation(n)
    warm_to = {"cold": 0, "half": n // 2, "warm": n}[state]
    combos = [(iname, lname) for iname in index_sets(n)
              for lname in hypothesis_lists()]
    if with_store:      # a store per combo: the diagonal
        combos = list(zip(index_sets(n), hypothesis_lists()))
    for iname, lname in combos:
        indices, picks = index_sets(n)[iname], hypothesis_lists()[lname]
        hyps = [hyps72[i] for i in picks]
        cells = len(hyps) * len(indices)
        store = (DiskBehaviorStore(tmp_path / f"{iname}-{lname}")
                 if with_store else None)
        cache = HypothesisCache(store=store)
        with (store.deferred_commits() if with_store
              else contextlib.nullcontext()):
            if warm_to:     # what an earlier statement left behind
                cache.extract_block(hyps72, dataset, order[:warm_to])
            before = cache.stats()
            block = cache.extract_block(hyps, dataset, indices)
        assert_same_block(block, reference(hyps, dataset, indices))
        after = cache.stats()
        assert (after["hits"] - before["hits"]
                + after["misses"] - before["misses"]) == cells
        if state == "warm":
            assert after["misses"] == before["misses"]
            assert after["extractions"] == before["extractions"]
        if with_store:
            # what was written through serves a new tier untouched
            again = HypothesisCache(store=DiskBehaviorStore(store.root))
            assert_same_block(again.extract_block(hyps, dataset, indices),
                              block)
            assert again.stats()["extractions"] == 0
            assert again.stats()["disk_hits"] == cells


def test_one_column_calls_are_the_block_read(sql_workload, hyps72):
    dataset = sql_workload.dataset
    cache = HypothesisCache()
    idx = np.array([9, 2, 2, 1])
    rows = cache.extract(hyps72[3], dataset, idx)
    assert rows.shape == (4, dataset.n_symbols)
    assert rows.tobytes() == hyps72[3].extract(dataset, idx).tobytes()
    assert cold_records(cache, dataset, np.arange(5), hyps72[3]) == [0, 3, 4]
    assert cold_records(cache, dataset, np.arange(3), hyps72[4]) == [0, 1, 2]
    assert cache.stats()["entries"] == 1
    block = cache.extract_block([hyps72[4], hyps72[3]], dataset,
                                np.array([1, 2]))
    assert_same_block(block, reference([hyps72[4], hyps72[3]], dataset,
                                       np.array([1, 2])))
    # h3's records 1 and 2 were warm: one more extraction, h4's
    assert cache.stats()["extractions"] == 2


# ----------------------------------------------------------------------
# (b) growth
# ----------------------------------------------------------------------
def test_hypothesis_seen_after_the_arena_exists(sql_workload, hyps72,
                                                trained_sql_model):
    dataset = sql_workload.dataset
    everything = np.arange(dataset.n_records)
    cache = HypothesisCache()
    cache.extract_block(hyps72[:5], dataset, everything)
    cache.reset_counters()
    block = cache.extract_block(hyps72[:8], dataset, everything)
    assert_same_block(block, reference(hyps72[:8], dataset, everything))
    stats = cache.stats()
    assert stats["hits"] == 5 * dataset.n_records     # kept across growth
    assert stats["misses"] == 3 * dataset.n_records
    assert stats["extractions"] == 3 and stats["entries"] == 8
    assert stats["bytes"] == 8 * column_bytes(dataset)

    def frame(hyps, hyp_cache):
        out = inspect([trained_sql_model], dataset, [CorrelationScore()],
                      hyps, config=InspectConfig(early_stop=False,
                                                 block_size=128,
                                                 cache=hyp_cache))
        return list(zip(out["hyp_id"], out["h_unit_id"], out["val"]))

    shared = HypothesisCache()
    assert frame(hyps72[:5], shared) == frame(hyps72[:5], None)
    assert frame(hyps72[2:9], shared) == frame(hyps72[2:9], None)
    assert frame(hyps72[:5], shared) == frame(hyps72[:5], None)


# ----------------------------------------------------------------------
# (c) eviction recycles columns, (d) requests wider than the budget
# ----------------------------------------------------------------------
def test_two_column_budget_with_three_hypotheses(sql_workload, hyps72):
    dataset = sql_workload.dataset
    everything = np.arange(dataset.n_records)
    h0, h1, h2 = hyps72[60], hyps72[61], hyps72[62]
    cache = HypothesisCache(max_bytes=2 * column_bytes(dataset))
    handed_out = cache.extract_block([h0, h1], dataset, everything)
    snapshot = handed_out.copy()
    assert cache.stats()["extractions"] == 2

    few = np.array([3, 4])
    cache.extract_block([h2], dataset, few)       # evicts h0, the LRU one
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] == 2 * column_bytes(dataset) <= cache.max_bytes
    assert len(cache._arenas) == 1
    assert next(iter(cache._arenas.values())).cells.shape[2] == 2  # recycled
    # the recycled column does not carry h0's rows: only `few` is filled
    assert cold_records(cache, dataset, everything, h2) \
        == [i for i in everything if i not in few]
    assert cold_records(cache, dataset, few, h0) == few.tolist()
    assert_same_block(cache.extract_block([h2], dataset, everything),
                      reference([h2], dataset, everything))
    # a block handed out before the eviction still holds its bytes
    assert handed_out.tobytes() == snapshot.tobytes()
    # the evicted hypothesis re-extracts (and now evicts h1)
    before = cache.stats()["extractions"]
    assert_same_block(cache.extract_block([h0], dataset, everything),
                      reference([h0], dataset, everything))
    assert cache.stats()["extractions"] == before + 1
    assert cache.stats()["entries"] == 2
    assert cold_records(cache, dataset, few, h1) == few.tolist()


def test_last_column_out_drops_the_arena(sql_workload, small_sql_workload,
                                         hyps72):
    hyp = hyps72[70]       # a keyword hypothesis: any dataset will do
    cache = HypothesisCache(max_bytes=1)
    cache.extract_block([hyp], sql_workload.dataset, np.arange(4))
    cache.extract_block([hyp], small_sql_workload.dataset, np.arange(4))
    assert cache.stats()["entries"] == 1
    assert list(cache._arenas) == [small_sql_workload.dataset.cache_key()]
    cache.clear()
    assert cache._arenas == {} and cache.stats()["bytes"] == 0


def test_request_wider_than_the_budget(sql_workload, hyps72):
    dataset = sql_workload.dataset
    indices = np.random.default_rng(1).permutation(dataset.n_records)[:200]
    cache = HypothesisCache(max_bytes=2 * column_bytes(dataset) + 17)
    picks = hyps72[5:12]
    for _ in range(2):
        block = cache.extract_block(picks, dataset, indices)
        assert_same_block(block, reference(picks, dataset, indices))
        stats = cache.stats()
        assert stats["bytes"] <= cache.max_bytes and stats["entries"] == 2
        arena = next(iter(cache._arenas.values()))
        assert arena.cells.shape[2] == 2      # never wider than the budget
    assert cache.stats()["hits"] + cache.stats()["misses"] == 2 * 7 * 200
    # a budget below one column keeps exactly one
    tiny = HypothesisCache(max_bytes=1)
    assert_same_block(tiny.extract_block(picks, dataset, indices),
                      reference(picks, dataset, indices))
    assert tiny.stats()["entries"] == 1


# ----------------------------------------------------------------------
# (e) threads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget_columns", [None, 6])
def test_threads_yield_serial_bytes_and_exact_counts(sql_workload, hyps72,
                                                     budget_columns):
    dataset = sql_workload.dataset
    n, ns = dataset.n_records, dataset.n_symbols
    hyps = hyps72[40:60]
    full = reference(hyps, dataset, np.arange(n)).reshape(n, ns, len(hyps))
    cache = HypothesisCache() if budget_columns is None else \
        HypothesisCache(max_bytes=budget_columns * column_bytes(dataset))
    def worker(seed: int) -> int:
        rng = np.random.default_rng(seed)
        read = 0
        for _ in range(30):
            idx = rng.integers(0, n, size=int(rng.integers(1, 60)))
            if rng.integers(0, 2) == 0:
                picks = rng.permutation(len(hyps))[:rng.integers(1, 7)]
                block = cache.extract_block(
                    [hyps[i] for i in picks], dataset, idx)
                want = full[idx][:, :, picks].reshape(-1, len(picks))
                assert block.tobytes() == want.tobytes()
                read += len(picks) * len(idx)
            else:
                j = int(rng.integers(0, len(hyps)))
                rows = cache.extract(hyps[j], dataset, idx)
                assert rows.tobytes() == full[idx, :, j].tobytes()
                read += len(idx)
        return read

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, seed) for seed in range(8)]
            # .result() re-raises a worker's assertion on this thread
            totals = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == sum(totals)
    assert stats["bytes"] == stats["entries"] * column_bytes(dataset)
    if budget_columns is not None:
        assert stats["entries"] <= budget_columns
    # and the tier still serves the serial bytes afterwards
    assert_same_block(cache.extract_block(hyps[:5], dataset, np.arange(n)),
                      full[:, :, :5].reshape(-1, 5))


# ----------------------------------------------------------------------
# (f) counter parity with the per-hypothesis loop this tier replaced
# ----------------------------------------------------------------------
def test_counter_parity_with_the_per_hypothesis_loop(tmp_path, sql_workload,
                                                     hyps72):
    """Literal numbers: what ``[cache.extract(h, ...) for h in hyps]``
    reported at the parent commit for this cold-then-warm two-block run."""
    dataset = sql_workload.dataset
    assert dataset.n_records == 444
    order = np.random.default_rng(0).permutation(444)
    blocks = [order[:256], order[256:]]

    def run(cache):
        for _ in range(2):
            for block in blocks:
                cache.extract_block(hyps72, dataset, block)
        return cache.stats()

    size = {"entries": 72, "bytes": 7704288, "stat_hits": 0,
            "stat_misses": 0, "stat_waits": 0, "panel_waits": 0}
    assert run(HypothesisCache()) == {
        "hits": 31968, "misses": 31968, "disk_hits": 0, "disk_misses": 0,
        "extractions": 144, **size}
    store = DiskBehaviorStore(tmp_path)
    assert run(HypothesisCache(store=store)) == {
        "hits": 31968, "misses": 31968, "disk_hits": 0,
        "disk_misses": 31968, "extractions": 144, **size}
    fresh = HypothesisCache(store=DiskBehaviorStore(tmp_path))
    for block in blocks:
        fresh.extract_block(hyps72, dataset, block)
    assert fresh.stats() == {
        "hits": 0, "misses": 31968, "disk_hits": 31968, "disk_misses": 0,
        "extractions": 0, **size}


# ----------------------------------------------------------------------
# (g) call counts on the warm path, (h) owned reads
# ----------------------------------------------------------------------
def test_warm_statement_folds_kept_stats_and_reads_no_tier(
        monkeypatch, sql_workload, hyps72, trained_sql_model):
    calls = {"tier": 0, "hypothesis": 0, "scored": 0, "folded": 0}

    def counting(owner, name, bucket):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[bucket] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    with Session(config=InspectConfig(early_stop=False,
                                      block_size=128)) as session:
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(hyps72)
        session.register_model("m", trained_sql_model, epoch=0)
        topk = ("SELECT S.uid AS uid, S.hid AS hid, S.unit_score AS score "
                "INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
                "FROM models M, units U, hypotheses H, inputs D "
                "WHERE M.mid = U.mid AND U.uid < 8 "
                "ORDER BY S.unit_score DESC LIMIT 20")
        cold = session.sql(topk)
        counting(HypothesisCache, "extract_block", "tier")
        counting(ScoreTask, "process", "scored")
        counting(ScoreTask, "fold", "folded")
        for cls in {type(h) for h in hyps72}:
            counting(cls, "extract", "hypothesis")
        session.reset_counters()
        warm = session.sql(topk)
        stat_hits = session.stats()["hypothesis_cache"]["stat_hits"]
    assert warm.rows() == cold.rows()
    # every block is folded from the statistics the cold statement kept
    assert stat_hits == calls["folded"] == 4   # 444 records, 128 a block
    assert calls["scored"] == 0
    assert calls["tier"] == 0
    assert calls["hypothesis"] == 0


def test_reads_are_owned_never_views_of_the_arena(sql_workload, hyps72):
    dataset = sql_workload.dataset
    cache = HypothesisCache()
    everything = np.arange(dataset.n_records)
    reads = {"whole arena": cache.extract_block(hyps72[:6], dataset,
                                                everything),
             "warm": cache.extract_block(hyps72[:6], dataset, everything),
             "slice": cache.extract_block(hyps72[2:5], dataset, everything),
             "take": cache.extract_block([hyps72[4], hyps72[1]], dataset,
                                         everything),
             "one": cache.extract(hyps72[0], dataset, everything)}
    arena = next(iter(cache._arenas.values()))
    for name, block in reads.items():
        assert not np.shares_memory(block, arena.cells), name
        block[:] = -1.0      # scribbling on a read cannot reach the tier
    assert_same_block(cache.extract_block(hyps72[:6], dataset, everything),
                      reference(hyps72[:6], dataset, everything))


# ----------------------------------------------------------------------
# store keys: format pinned, compacted only where a store is consulted
# ----------------------------------------------------------------------
def test_store_written_through_the_public_path_is_interchangeable(
        tmp_path, sql_workload, hyps72):
    """A panel is a plain store entry — ``append(panel_store_key(...),
    records, the stacked block, members=...)`` per block; a store built
    that way through the public API serves this tier with zero
    extractions, and what this tier writes reads back the same way — same
    key, same members, same rows."""
    dataset = sql_workload.dataset
    order = np.random.default_rng(0).permutation(dataset.n_records)
    blocks = [order[:256], order[256:]]
    members = [hyp_store_key(dataset.cache_key(), hyp.cache_key())
               for hyp in hyps72]
    theirs = DiskBehaviorStore(tmp_path / "public-api")
    with theirs.deferred_commits():
        for block in blocks:
            theirs.append(
                panel_store_key(dataset.cache_key(), members), block,
                reference(hyps72, dataset, block).reshape(len(block), -1),
                dataset.n_records, members=members)
    cache = HypothesisCache(store=DiskBehaviorStore(theirs.root))
    assert_same_block(cache.extract_block(hyps72, dataset, order),
                      reference(hyps72, dataset, order))
    assert cache.stats()["extractions"] == 0
    assert cache.stats()["disk_hits"] == 72 * dataset.n_records

    ours = DiskBehaviorStore(tmp_path / "arena")
    writer = HypothesisCache(store=ours)
    with ours.deferred_commits():
        for block in blocks:
            writer.extract_block(hyps72, dataset, block)
    reopened = DiskBehaviorStore(ours.root)
    assert reopened.keys() == theirs.keys() \
        == [panel_store_key(dataset.cache_key(), members)]
    everything = np.arange(dataset.n_records)
    mine, other = (store.reader(store.keys()[0])
                   for store in (reopened, theirs))
    assert mine.members == other.members == tuple(members)
    assert mine.row_width == other.row_width == dataset.n_symbols * 72
    assert mine.filled_mask(everything).all()
    assert mine.rows(everything).tobytes() == other.rows(everything).tobytes()


def test_store_keys_compacted_only_where_a_store_is_consulted(
        monkeypatch, tmp_path, sql_workload, hyps72, trained_sql_model):
    digests = []
    original = cache_module._compact

    def counting(identity, *args):
        digests.append(identity)
        return original(identity, *args)
    monkeypatch.setattr(cache_module, "_compact", counting)

    dataset = sql_workload.dataset
    extractor = RnnActivationExtractor()
    blocks = [np.arange(0, 200), np.arange(200, dataset.n_records)]

    def run(hyp_cache, unit_cache):
        for _ in range(2):          # cold, then warm
            for block in blocks:
                hyp_cache.extract_block(hyps72, dataset, block)
                unit_cache.extract(trained_sql_model, extractor, dataset,
                                   block)

    run(HypothesisCache(), UnitBehaviorCache())
    assert digests == []            # no store: no key is ever built
    store = DiskBehaviorStore(tmp_path)
    with store.deferred_commits():
        run(HypothesisCache(store=store), UnitBehaviorCache(store=store))
    # once per identity for the session, not once per block
    assert sorted(digests) == sorted(
        [h.cache_key() for h in hyps72] + [extractor.raw_key()])
    monkeypatch.setattr(cache_module, "_compact", original)
    from repro.core.cache import model_fingerprint
    assert sorted(store.keys()) == sorted(
        [panel_store_key(dataset.cache_key(),
                         [hyp_store_key(dataset.cache_key(), h.cache_key())
                          for h in hyps72]),
         unit_store_key(model_fingerprint(trained_sql_model),
                        extractor.raw_key(), dataset.cache_key())])


@pytest.mark.parametrize("seed", range(4))
def test_same_records_groups_columns_by_equal_mask_rows(seed):
    rng = np.random.default_rng(seed)
    distinct = rng.random((5, 40)) < 0.5
    distinct[0] = False                  # an all-empty row among them
    masks = distinct[rng.integers(0, 5, size=23)]
    js = rng.permutation(60)[:23]

    rows: list[np.ndarray] = []          # distinct rows, first-seen order
    for mask in masks:
        if not any(np.array_equal(mask, row) for row in rows):
            rows.append(mask)
    expected = [(np.flatnonzero(row),
                 [j for mask, j in zip(masks, js.tolist())
                  if np.array_equal(mask, row)]) for row in rows]

    got = cache_module._same_records(masks, js)
    assert len(got) == len(expected)
    for (at, cols), (want_at, want_cols) in zip(got, expected):
        assert at.tobytes() == want_at.tobytes()
        assert cols == want_cols


# ----------------------------------------------------------------------
# panels on disk: what was extracted together is stored together, and a
# member is served from any panel that holds the record
# ----------------------------------------------------------------------
PANEL_BLOCK = 50


class TestPanelServing:
    """Each scenario commits panels in one session (or two), then reopens
    the store in a new one: the serial uncached frame, and exactly the
    extractions and disk hits the committed cells leave — under every
    scheduler, which also writes the panels it then reads (one panel per
    evaluation)."""

    @staticmethod
    def _run(sql_workload, model, hyps, store, scheduler, measure="corr",
             abandon_after=None, **config):
        """One statement on a new session; its frame and tier counters."""
        caches = {} if store is not None else {"cache": None,
                                               "unit_cache": None}
        config = InspectConfig(shuffle=False, block_size=PANEL_BLOCK,
                               **{"early_stop": False, **config, **caches})
        with Session(store and str(store), config=config,
                     scheduler=scheduler) as session:
            session.register_model("m0", model)
            session.register_dataset("d0", sql_workload.dataset)
            query = session.inspect("m0", "d0").hypotheses(hyps) \
                .using(measure)
            if abandon_after is None:
                frame = query.run()
            else:
                stream = query.stream()
                for _ in range(abandon_after):
                    frame = next(stream)
                stream.close()
            return frame, session.stats()["hypothesis_cache"]

    @staticmethod
    def _held(store, dataset, hyps) -> tuple[np.ndarray, int]:
        """``(len(hyps), n_records)``: the cells the committed panels hold,
        and how many (member, panel) pairs there are."""
        members = [hyp_store_key(dataset.cache_key(), h.cache_key())
                   for h in hyps]
        held = np.zeros((len(hyps), dataset.n_records), dtype=bool)
        pairs = 0
        everything = np.arange(dataset.n_records)
        for reader, pos, cols in DiskBehaviorStore(store).panels(
                members, dataset.n_symbols):
            assert [reader.members[c] for c in cols] \
                == [members[p] for p in pos]
            held[pos] |= reader.filled_mask(everything)
            pairs += len(pos)
        return held, pairs

    @staticmethod
    def _expected(held: np.ndarray) -> dict:
        """Counters of a statement over ``held.shape`` cells: a block
        extracts each hypothesis lacking one of its records, everything
        else is a disk hit."""
        blocks = range(0, held.shape[1], PANEL_BLOCK)
        return {"extractions": sum(
                    int((~held[:, b:b + PANEL_BLOCK]).any(axis=1).sum())
                    for b in blocks),
                "disk_hits": int(held.sum())}

    def _probe(self, sql_workload, model, hyps, store, scheduler,
               n_records=None, **kwargs) -> dict:
        """Reopen ``store`` for ``hyps``: the frame must be the serial
        uncached one and the counters what the store's cells leave."""
        held, _ = self._held(store, sql_workload.dataset, hyps)
        want = self._run(sql_workload, model, hyps, None, "serial",
                         max_records=n_records, **kwargs)[0]
        frame, counts = self._run(sql_workload, model, hyps, store,
                                  scheduler, max_records=n_records, **kwargs)
        assert frame == want
        expected = self._expected(held[:, :n_records])
        assert {name: counts[name] for name in expected} == expected
        return expected

    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    def test_subset_of_a_panel(self, scheduler, tmp_path, sql_workload,
                               hyps72, trained_sql_model):
        args = (sql_workload, trained_sql_model)
        self._run(*args, hyps72, tmp_path, scheduler, max_records=200)
        entries = DiskBehaviorStore(tmp_path).stats()["entries"]
        got = self._probe(*args, hyps72[10:40:3], tmp_path, scheduler,
                          n_records=200)
        assert got == {"extractions": 0, "disk_hits": 10 * 200}
        assert DiskBehaviorStore(tmp_path).stats()["entries"] == entries

    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    def test_superset_adds_a_panel_for_the_rest(self, scheduler, tmp_path,
                                                sql_workload, hyps72,
                                                trained_sql_model):
        args = (sql_workload, trained_sql_model)
        self._run(*args, hyps72[:40], tmp_path, scheduler, max_records=200)
        got = self._probe(*args, hyps72, tmp_path, scheduler, n_records=200)
        assert got == {"extractions": 32 * 4, "disk_hits": 40 * 200}
        # the old panel and the new one(s) together hold everything
        got = self._probe(*args, hyps72, tmp_path, scheduler, n_records=200)
        assert got == {"extractions": 0, "disk_hits": 72 * 200}

    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    def test_overlapping_panels(self, scheduler, tmp_path, sql_workload,
                                hyps72, trained_sql_model):
        args = (sql_workload, trained_sql_model)
        self._run(*args, hyps72[:50], tmp_path, scheduler, max_records=100)
        self._run(*args, hyps72[30:], tmp_path, scheduler, max_records=200)
        _, pairs = self._held(tmp_path, sql_workload.dataset, hyps72)
        assert pairs > 72       # some member sits in more than one panel
        got = self._probe(*args, hyps72, tmp_path, scheduler, n_records=200)
        # hypotheses 0..29 lack records 100..199 (two blocks), nothing else
        assert got == {"extractions": 30 * 2,
                       "disk_hits": 72 * 200 - 30 * 100}

    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    def test_early_stopping_leaves_narrower_panels(
            self, scheduler, tmp_path, sql_workload, hyps72,
            trained_sql_model):
        args = (sql_workload, trained_sql_model)
        self._run(*args, hyps72, tmp_path, scheduler, measure="diff_means",
                  early_stop=True, error_threshold=0.1)
        store = DiskBehaviorStore(tmp_path)
        widths = sorted(len(store.reader(key).members)
                        for key in store.keys() if key.startswith("panel/"))
        # later blocks evaluated fewer members: further panels
        assert len(widths) > 1 and widths[0] < widths[-1] == 72
        held, _ = self._held(tmp_path, sql_workload.dataset, hyps72)
        assert held[:, :PANEL_BLOCK].all()
        got = self._probe(*args, hyps72, tmp_path, scheduler,
                          measure="diff_means")
        assert (got["extractions"] > 0) == (not held.all())

    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    def test_run_abandoned_after_its_first_block(
            self, scheduler, tmp_path, sql_workload, hyps72,
            trained_sql_model):
        args = (sql_workload, trained_sql_model)
        self._run(*args, hyps72, tmp_path, scheduler, abandon_after=1,
                  max_records=200)
        held, _ = self._held(tmp_path, sql_workload.dataset, hyps72)
        # cost exactly the block delivered, on both sides
        assert held[:, :PANEL_BLOCK].all()
        assert not held[:, PANEL_BLOCK:].any()
        store = DiskBehaviorStore(tmp_path)
        (unit,) = [key for key in store.keys() if key.startswith("unit/")]
        swept = store.reader(unit).filled_mask(
            np.arange(sql_workload.dataset.n_records))
        assert np.flatnonzero(swept).tolist() == list(range(PANEL_BLOCK))
        got = self._probe(*args, hyps72, tmp_path, scheduler, n_records=200)
        assert got == {"extractions": 72 * 3, "disk_hits": 72 * 50}


# ----------------------------------------------------------------------
# unit tier: one selection at the group's width
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transform", ["activation", "abs", "gradient"])
def test_unit_selection_commutes_with_the_transform(transform, sql_workload,
                                                    trained_sql_model):
    dataset = sql_workload.dataset
    extractor = RnnActivationExtractor(transform=transform)
    cache = UnitBehaviorCache()
    indices = np.random.default_rng(2).permutation(dataset.n_records)[:97]
    ids = np.array([0, 3, 4, 9, 2])
    two_step = cache.extract(trained_sql_model, extractor, dataset,
                             indices)[:, ids]
    one_step = cache.extract(trained_sql_model, extractor, dataset, indices,
                             hid_units=ids)
    assert one_step.dtype == two_step.dtype
    assert one_step.tobytes() == two_step.tobytes()
    # same memory layout too: a measure's summation order follows it
    assert one_step.strides == two_step.strides
    direct = extractor.extract(trained_sql_model, dataset.symbols[indices],
                               hid_units=ids)
    assert direct.tobytes() == two_step.tobytes()
    assert direct.strides == two_step.strides


def test_plan_passes_a_shared_unit_selection_to_the_tier(
        monkeypatch, sql_workload, hyps72, trained_sql_model):
    seen = []
    original = UnitBehaviorCache.extract

    def recording(self, model, extractor, dataset, indices, hid_units=None,
                  **kwargs):
        seen.append(None if hid_units is None
                    else np.asarray(hid_units).tolist())
        return original(self, model, extractor, dataset, indices,
                        hid_units=hid_units, **kwargs)
    monkeypatch.setattr(UnitBehaviorCache, "extract", recording)

    def scores(groups, **caches):
        plan = InspectionPlan.build(
            groups, sql_workload.dataset, [CorrelationScore()], hyps72[60:],
            RnnActivationExtractor(),
            InspectConfig(early_stop=False, max_records=200, **caches))
        return [o.result.unit_scores.tobytes() for o in plan.execute()]

    def group(ids, name):
        return UnitGroup(model=trained_sql_model, unit_ids=ids, name=name)

    one = [group([1, 5, 6], "a")]
    assert scores(one, unit_cache=UnitBehaviorCache()) == scores(one)
    assert seen == [[1, 5, 6]]              # selected once, inside the tier
    seen.clear()
    same = [group([1, 5, 6], "a"), group([1, 5, 6], "b")]
    assert scores(same, unit_cache=UnitBehaviorCache()) == scores(same)
    assert seen == [[1, 5, 6]]
    seen.clear()
    differ = [group([1, 5, 6], "a"), group([2, 5], "b")]
    assert scores(differ, unit_cache=UnitBehaviorCache()) == scores(differ)
    assert seen == [None]                   # full-width read, sliced per group


# ----------------------------------------------------------------------
# (i) single-flight cold sweeps: the unit tier claims a cold entry
# ----------------------------------------------------------------------
class _GatedSweeps(Extractor):
    """Two units per symbol (the symbol id and its double); counts its
    sweeps and, given a ``gate``, holds each one open until the gate is
    set — then raises instead of returning when ``fail`` is set."""

    def __init__(self, gate: threading.Event | None = None,
                 fail: bool = False):
        self._gate, self._fail = gate, fail
        self._entered = threading.Event()
        self.sweeps: list[int] = []    # records per sweep

    def n_units(self, model) -> int:
        return 2

    def raw_states(self, model, records):
        self.sweeps.append(records.shape[0])
        self._entered.set()
        if self._gate is not None:
            assert self._gate.wait(10)
        if self._fail:
            raise RuntimeError("sweep failed")
        ids = records.astype(np.float64)[:, :, None]
        return np.concatenate([ids, 2 * ids], axis=2)


def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.005)


class TestSweepClaim:
    KEY = {"model_key": "model-fp", "raw_key": "raw-key"}
    RECORDS = np.arange(4)

    def read(self, tier, dataset, extractor, records=RECORDS, **key):
        return tier.extract(None, extractor, dataset, records,
                            **{**self.KEY, **key})

    def expected(self, dataset, records=RECORDS) -> np.ndarray:
        return _GatedSweeps().extract(None, dataset.symbols[records])

    def race(self, tier, dataset, leader: _GatedSweeps,
             lead=RECORDS, follow=RECORDS, hold: bool = False) -> dict:
        """``leader`` sweeps ``lead`` on one thread; once its sweep is
        open, a follower reads ``follow`` of the same entry on another.
        The leader's gate opens when the follower waits on its claim —
        or, ``hold``, once the follower has returned.  Returns each
        side's result (or exception) and its trace root, and the
        follower's sweeps."""
        follower = _GatedSweeps()
        out = {"follower_sweeps": follower.sweeps}

        def run(name, extractor, records):
            with tracing(name) as root:
                try:
                    out[name] = self.read(tier, dataset, extractor, records)
                except RuntimeError as exc:
                    out[name] = exc
            out[f"{name}_root"] = root

        threads = [threading.Thread(target=run,
                                    args=("leader", leader, lead))]
        threads[0].start()
        assert leader._entered.wait(10)
        assert tier.stats()["inflight"] == 1
        threads.append(threading.Thread(
            target=run, args=("follower", follower, follow)))
        threads[1].start()
        if hold:
            threads[1].join(10)
        else:
            wait_until(lambda: tier.stats()["waits"] >= 1)
        leader._gate.set()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        return out

    def test_follower_waits_for_the_leaders_sweep_then_joins(
            self, sql_workload):
        tier, dataset = UnitBehaviorCache(), sql_workload.dataset
        leader = _GatedSweeps(threading.Event())
        out = self.race(tier, dataset, leader)
        assert leader.sweeps == [4] and out["follower_sweeps"] == []
        expected = self.expected(dataset)
        assert out["leader"].tobytes() == expected.tobytes()
        assert out["follower"].tobytes() == expected.tobytes()
        stats = tier.stats()
        # what serial execution counts: one sweep, then four warm records
        assert (stats["extractions"], stats["misses"], stats["hits"]) \
            == (1, 4, 4)
        assert (stats["leads"], stats["waits"], stats["joins"]) == (1, 1, 1)
        assert stats["timeouts"] == 0 and stats["inflight"] == 0
        # each side's trace carries what it did
        assert out["leader_root"].counters["leads"] == 1
        follower = out["follower_root"].counters
        assert (follower["waits"], follower["joins"], follower["hits"]) \
            == (1, 1, 4)
        assert "leads" not in follower and "extractions" not in follower

    def test_warm_records_are_never_claimed_or_waited_for(
            self, sql_workload, monkeypatch):
        monkeypatch.setattr(cache_module, "LEASE_WAIT_S", 5.0)
        tier, dataset = UnitBehaviorCache(), sql_workload.dataset
        warm = np.arange(4, 8)
        self.read(tier, dataset, _GatedSweeps(), warm)
        leader = _GatedSweeps(threading.Event())
        thread = threading.Thread(target=self.read,
                                  args=(tier, dataset, leader))
        thread.start()
        assert leader._entered.wait(10)
        # the leader holds the entry's claim, but these records are warm:
        # the read neither claims the entry nor waits for it
        reader = _GatedSweeps()
        block = self.read(tier, dataset, reader, warm)
        assert tier.stats()["inflight"] == 1
        leader._gate.set()
        thread.join(10)
        assert block.tobytes() == self.expected(dataset, warm).tobytes()
        assert reader.sweeps == []
        stats = tier.stats()
        assert (stats["leads"], stats["waits"], stats["joins"]) == (2, 0, 0)
        assert stats["timeouts"] == 0 and stats["inflight"] == 0

    def test_follower_probes_again_after_it_wakes(self, sql_workload):
        tier, dataset = UnitBehaviorCache(), sql_workload.dataset
        leader = _GatedSweeps(threading.Event())
        # the leader sweeps two of the four records the follower reads: on
        # waking the follower finds the other two still cold and sweeps
        # only them, under a claim of its own
        out = self.race(tier, dataset, leader, lead=self.RECORDS[:2])
        assert leader.sweeps == [2] and out["follower_sweeps"] == [2]
        assert out["follower"].tobytes() \
            == self.expected(dataset).tobytes()
        stats = tier.stats()
        assert (stats["leads"], stats["waits"], stats["joins"]) == (2, 1, 0)
        assert (stats["extractions"], stats["hits"], stats["misses"]) \
            == (2, 2, 4)
        assert stats["inflight"] == 0

    def test_bounded_wait_proceeds_unclaimed(self, sql_workload,
                                             monkeypatch):
        monkeypatch.setattr(cache_module, "LEASE_WAIT_S", 0.05)
        tier, dataset = UnitBehaviorCache(), sql_workload.dataset
        before = degradation_counts().get("cache.sweep-lease-timeout", 0)
        leader = _GatedSweeps(threading.Event())
        # the leader's sweep stays open until the follower has returned:
        # the follower's wait times out and it sweeps without a claim
        out = self.race(tier, dataset, leader, hold=True)
        assert leader.sweeps == [4] and out["follower_sweeps"] == [4]
        assert out["follower"].tobytes() \
            == self.expected(dataset).tobytes()
        stats = tier.stats()
        assert (stats["leads"], stats["waits"], stats["timeouts"]) \
            == (1, 1, 1)
        assert stats["joins"] == 0 and stats["inflight"] == 0
        assert degradation_counts()["cache.sweep-lease-timeout"] \
            == before + 1
        follower = out["follower_root"].counters
        assert follower["degraded:cache.sweep-lease-timeout"] == 1
        assert follower["timeouts"] == 1 and "leads" not in follower

    def test_disjoint_keys_do_not_interact(self, sql_workload):
        tier, dataset = UnitBehaviorCache(), sql_workload.dataset
        leader = _GatedSweeps(threading.Event())
        thread = threading.Thread(target=self.read,
                                  args=(tier, dataset, leader))
        thread.start()
        assert leader._entered.wait(10)
        other = _GatedSweeps()
        self.read(tier, dataset, other, model_key="other-fp")
        assert other.sweeps == [4] and tier.stats()["inflight"] == 1
        leader._gate.set()
        thread.join(10)
        stats = tier.stats()
        assert (stats["leads"], stats["waits"], stats["inflight"]) \
            == (2, 0, 0)

    def test_reset_counters_zeroes_the_claim_counters(self, sql_workload,
                                                      monkeypatch):
        tier, dataset = UnitBehaviorCache(), sql_workload.dataset
        self.race(tier, dataset, _GatedSweeps(threading.Event()))
        monkeypatch.setattr(cache_module, "LEASE_WAIT_S", 0.05)
        self.race(tier, dataset, _GatedSweeps(threading.Event()),
                  lead=np.arange(4, 8), follow=np.arange(4, 8), hold=True)
        names = ("leads", "joins", "waits", "timeouts")
        assert all(tier.stats()[name] > 0 for name in names)
        tier.reset_counters()
        stats = tier.stats()
        assert all(stats[name] == 0 for name in names)
        assert stats["entries"] == 1      # the swept rows stay

    def test_a_failed_sweep_releases_its_claim(self, sql_workload):
        tier, dataset = UnitBehaviorCache(), sql_workload.dataset
        leader = _GatedSweeps(threading.Event(), fail=True)
        out = self.race(tier, dataset, leader)
        assert isinstance(out["leader"], RuntimeError)
        # the waiter woke to a still-cold entry and swept it itself
        assert out["follower_sweeps"] == [4]
        assert out["follower"].tobytes() \
            == self.expected(dataset).tobytes()
        stats = tier.stats()
        assert (stats["leads"], stats["waits"], stats["joins"]) == (2, 1, 0)
        assert stats["extractions"] == 1 and stats["inflight"] == 0


# ----------------------------------------------------------------------
# (j) single-flight block statistics: a block claims the statistics it
# computes, and a statement needing the same ones waits and folds them
# ----------------------------------------------------------------------
class TestStatClaim:
    STATS = (np.ones(2),)

    def hold(self, cache, keys) -> tuple[contextlib.ExitStack, list]:
        """Enter ``cache.block_stats(keys)`` until the stack closes."""
        held = contextlib.ExitStack()
        return held, held.enter_context(cache.block_stats(keys))

    def wait(self, cache, keys) -> tuple[threading.Thread, dict]:
        """Probe ``keys`` on another thread; once it waits, return it and
        the dict what it found lands in (with the keys it then held
        claimed, as the cache's claims showed them inside the block)."""
        out: dict = {}
        waits = cache.stats()["stat_waits"]

        def probe():
            with cache.block_stats(keys) as found:
                out["found"] = found
                out["claimed"] = sorted(cache._computing)
        thread = threading.Thread(target=probe)
        thread.start()
        wait_until(lambda: cache.stats()["stat_waits"] > waits)
        return thread, out

    def test_a_waiter_folds_what_the_claimant_kept(self):
        cache = HypothesisCache()
        held, found = self.hold(cache, ["a", "b"])
        assert found == [None, None]
        assert sorted(cache._computing) == ["a", "b"]
        thread, out = self.wait(cache, ["b", "a"])
        cache.keep_block_stats("a", self.STATS)
        cache.keep_block_stats("b", self.STATS)
        assert thread.is_alive()          # woken by the release only
        held.close()
        thread.join(10)
        assert out["claimed"] == []
        assert all(found is not None for found in out["found"])
        stats = cache.stats()
        assert (stats["stat_waits"], stats["stat_misses"]) == (1, 2)

    def test_a_waiter_claims_what_was_not_kept(self):
        """A block that failed (or kept nothing) ends its claim; the
        waiter wakes to the key still missing and claims it."""
        cache = HypothesisCache()
        held, _ = self.hold(cache, ["a"])
        thread, out = self.wait(cache, ["a"])
        held.close()
        thread.join(10)
        assert (out["found"], out["claimed"]) == ([None], ["a"])
        assert not cache._computing

    def test_a_raising_block_ends_its_claim(self):
        cache = HypothesisCache()
        with pytest.raises(RuntimeError):
            with cache.block_stats(["a"]):
                raise RuntimeError("block failed")
        assert not cache._computing

    def test_kept_and_disjoint_keys_are_not_waited_for(self):
        cache = HypothesisCache()
        cache.keep_block_stats("kept", self.STATS)
        held, _ = self.hold(cache, ["a"])
        with cache.block_stats(["kept", "b"]) as found:
            assert found[0] is not None and found[1] is None
            assert sorted(cache._computing) == ["a", "b"]
        assert cache.stats()["stat_waits"] == 0
        held.close()

    def test_a_repeated_key_is_claimed_once(self):
        """Twin models in one statement share a key: both tasks compute
        it, under one claim."""
        cache = HypothesisCache()
        with cache.block_stats(["a", "a"]) as found:
            assert found == [None, None] and list(cache._computing) == ["a"]
        assert not cache._computing

    def test_bounded_wait_proceeds_unclaimed(self, monkeypatch):
        monkeypatch.setattr(cache_module, "LEASE_WAIT_S", 0.05)
        cache = HypothesisCache()
        before = degradation_counts().get("cache.stat-wait-timeout", 0)
        held, _ = self.hold(cache, ["a"])
        with tracing("waiter") as root:
            with cache.block_stats(["a"]) as found:
                assert found == [None]
        assert list(cache._computing) == ["a"]   # still the holder's
        held.close()
        assert degradation_counts()["cache.stat-wait-timeout"] \
            == before + 1
        assert root.counters["stat_waits"] == 1
        assert root.counters["degraded:cache.stat-wait-timeout"] == 1

    def test_reset_counters_zeroes_stat_waits(self, monkeypatch):
        monkeypatch.setattr(cache_module, "LEASE_WAIT_S", 0.05)
        cache = HypothesisCache()
        held, _ = self.hold(cache, ["a"])
        with cache.block_stats(["a"]):
            pass
        held.close()
        assert cache.stats()["stat_waits"] == 1
        cache.reset_counters()
        assert cache.stats()["stat_waits"] == 0

    def test_a_failed_statement_releases_its_claims(
            self, monkeypatch, sql_workload, hyps72, trained_sql_model):
        """A statement whose sweep raises hands its block's claims back:
        the next statement claims them without waiting."""
        class Failing(CountingForwardModel):
            def hidden_states(self, ids):
                raise RuntimeError("sweep failed")

        with Session(config=InspectConfig(early_stop=False,
                                          block_size=128)) as session:
            session.register_dataset("d0", sql_workload.dataset)
            session.register_hypotheses(hyps72[:4])
            session.register_model("m", Failing(trained_sql_model))
            sql = ("SELECT S.uid, S.hid, S.unit_score "
                   "INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
                   "FROM models M, units U, hypotheses H, inputs D "
                   "WHERE M.mid = U.mid")
            with pytest.raises(RuntimeError, match="sweep failed"):
                session.sql(sql)
            monkeypatch.setattr(cache_module, "LEASE_WAIT_S", 0.05)
            session.register_model("m", trained_sql_model)
            session.sql(sql)
            assert session.stats()["hypothesis_cache"]["stat_waits"] == 0


# ----------------------------------------------------------------------
# (k) single-flight panels: a read claims the panel columns it labels,
# and a read needing them waits and gathers them from the arena
# ----------------------------------------------------------------------
class _GatedLabels(HypothesisFunction):
    """Labels each symbol with its id; counts its evaluations and, given a
    ``gate``, holds each one open until the gate is set — then raises
    instead of returning when ``fail`` is set.  Equal names are one
    identity, gated or not."""

    def __init__(self, name: str = "gated",
                 gate: threading.Event | None = None, fail: bool = False):
        super().__init__(name)
        self._gate, self._fail = gate, fail
        self._entered = threading.Event()
        self._calls: list[int] = []    # records per evaluation

    def extract(self, dataset, indices=None):
        indices = block_indices(dataset, indices)
        self._calls.append(indices.shape[0])
        self._entered.set()
        if self._gate is not None:
            assert self._gate.wait(10)
        if self._fail:
            raise RuntimeError("labelling failed")
        return dataset.symbols[indices].astype(np.float64)


class TestPanelClaim:
    RECORDS = np.arange(4)

    def expected(self, dataset, names=("gated",)) -> np.ndarray:
        return reference([_GatedLabels(name) for name in names], dataset,
                         self.RECORDS)

    def race(self, cache, dataset, leader: _GatedLabels,
             hold: bool = False) -> dict:
        """``leader`` labels its panel on one thread; once its evaluation
        is open, a follower reads the same column on another.  The
        leader's gate opens when the follower waits on its claim — or,
        ``hold``, once the follower has returned (the claims still held
        then are ``out["held"]``).  Returns each side's block (or
        exception) and trace root, and the follower's evaluations."""
        follower = _GatedLabels()
        out = {"follower_calls": follower._calls}

        def run(name, hypothesis):
            with tracing(name) as root:
                try:
                    out[name] = cache.extract_block([hypothesis], dataset,
                                                    self.RECORDS)
                except RuntimeError as exc:
                    out[name] = exc
            out[f"{name}_root"] = root

        threads = [threading.Thread(target=run, args=("leader", leader))]
        threads[0].start()
        assert leader._entered.wait(10)
        assert len(cache._labelling) == 1
        threads.append(threading.Thread(target=run,
                                        args=("follower", follower)))
        threads[1].start()
        if hold:
            threads[1].join(10)
            out["held"] = list(cache._labelling)
        else:
            wait_until(lambda: cache.stats()["panel_waits"] >= 1)
        leader._gate.set()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        return out

    def test_follower_waits_then_gathers_the_leaders_cells(
            self, sql_workload):
        cache, dataset = HypothesisCache(), sql_workload.dataset
        leader = _GatedLabels(gate=threading.Event())
        out = self.race(cache, dataset, leader)
        assert leader._calls == [4] and out["follower_calls"] == []
        expected = self.expected(dataset)
        assert_same_block(out["leader"], expected)
        assert_same_block(out["follower"], expected)
        stats = cache.stats()
        # what serial execution counts: one labelling, then warm cells
        assert (stats["extractions"], stats["misses"], stats["hits"]) \
            == (1, 4, 4)
        assert stats["panel_waits"] == 1 and not cache._labelling
        follower = out["follower_root"].counters
        assert (follower["panel_waits"], follower["hits"]) == (1, 4)
        assert "extractions" not in follower and "misses" not in follower

    def test_a_failed_labelling_releases_its_claim(self, sql_workload):
        cache, dataset = HypothesisCache(), sql_workload.dataset
        leader = _GatedLabels(gate=threading.Event(), fail=True)
        out = self.race(cache, dataset, leader)
        assert isinstance(out["leader"], RuntimeError)
        # the waiter woke to still-cold cells and labelled them itself
        assert out["follower_calls"] == [4]
        assert_same_block(out["follower"], self.expected(dataset))
        stats = cache.stats()
        assert (stats["extractions"], stats["panel_waits"]) == (1, 1)
        assert not cache._labelling

    def test_a_failed_store_append_releases_its_claim(
            self, sql_workload, tmp_path, monkeypatch):
        store = DiskBehaviorStore(tmp_path)
        cache, dataset = HypothesisCache(store=store), sql_workload.dataset
        append, appends = store.append, []

        def first_append_fails(*args, **kwargs):
            appends.append(args[0])
            if len(appends) == 1:
                raise RuntimeError("append failed")
            return append(*args, **kwargs)
        monkeypatch.setattr(store, "append", first_append_fails)
        leader = _GatedLabels(gate=threading.Event())
        out = self.race(cache, dataset, leader)
        assert isinstance(out["leader"], RuntimeError)
        assert out["follower_calls"] == [4] and len(appends) == 2
        assert_same_block(out["follower"], self.expected(dataset))
        assert cache.stats()["panel_waits"] == 1 and not cache._labelling

    def test_bounded_wait_proceeds_unclaimed(self, sql_workload,
                                             monkeypatch):
        monkeypatch.setattr(cache_module, "LEASE_WAIT_S", 0.05)
        cache, dataset = HypothesisCache(), sql_workload.dataset
        before = degradation_counts().get("cache.panel-wait-timeout", 0)
        leader = _GatedLabels(gate=threading.Event())
        out = self.race(cache, dataset, leader, hold=True)
        # the follower labelled without a claim while the leader held its
        assert len(out["held"]) == 1
        assert leader._calls == [4] and out["follower_calls"] == [4]
        expected = self.expected(dataset)
        assert_same_block(out["follower"], expected)
        assert_same_block(out["leader"], expected)
        assert degradation_counts()["cache.panel-wait-timeout"] \
            == before + 1
        follower = out["follower_root"].counters
        assert follower["degraded:cache.panel-wait-timeout"] == 1
        assert follower["panel_waits"] == 1
        assert cache.stats()["panel_waits"] == 1 and not cache._labelling
        cache.reset_counters()
        assert cache.stats()["panel_waits"] == 0

    def test_statistics_claimants_crossing_on_panels_both_finish(
            self, sql_workload):
        """Two blocks hold statistics claims and read the same two
        columns in opposite orders, one panel at a time (the budget holds
        one column): each holds one panel's claim while the other's
        labelling is open, and neither waits holding a panel claim."""
        dataset = sql_workload.dataset
        cache = HypothesisCache(max_bytes=column_bytes(dataset))
        p_first, q_first = _GatedLabels("p"), _GatedLabels("q")
        # each one's first labelling stays open until the other's is open
        p_first._gate, q_first._gate = q_first._entered, p_first._entered
        reads = {"a": [p_first, _GatedLabels("q")],
                 "b": [q_first, _GatedLabels("p")]}
        out: dict = {}

        def block(key):
            with cache.block_stats([key]):
                out[key] = cache.extract_block(reads[key], dataset,
                                               self.RECORDS)

        threads = [threading.Thread(target=block, args=(key,))
                   for key in reads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert_same_block(out["a"], self.expected(dataset, ("p", "q")))
        assert_same_block(out["b"], self.expected(dataset, ("q", "p")))
        assert not cache._computing and not cache._labelling


def test_a_dropped_session_frees_its_tiers_without_the_collector(
        sql_workload, trained_sql_model):
    """The claim tables never point back at their tier: a session's tiers,
    and the arenas they hold, go with their last reference rather than at
    the next cyclic collection."""
    groups = [UnitGroup(model=trained_sql_model, unit_ids=np.arange(4),
                        name="m")]
    gc.disable()
    try:
        session = Session(scheduler="threads")
        (session.inspect(dataset=sql_workload.dataset).using("corr")
         .hypotheses(sql_keyword_hypotheses(("SELECT",)))
         .where(groups=groups).run())
        session.close()
        tiers = [weakref.ref(session.hyp_cache),
                 weakref.ref(session.unit_cache)]
        del session
        assert [tier() for tier in tiers] == [None, None]
    finally:
        gc.enable()
