"""What a warm statement may skip, and when it may not.

A warm statement recomputes nothing that does not depend on the statement:
a block-local score task's block statistics are kept by the hypothesis
tier (and within one statement the score tasks reading a block sum its
moments once), the unit tier holds its entries in the layout scoring reads, and
the session reuses a statement's parse and compilation.  Everything here
pins the two halves of that bargain — the counters that show the work was
skipped, and the frames that show skipping it changed nothing — and the
invalidation rules that decide when it must not be skipped.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (HypothesisCache, InspectConfig, Session,
                   ThreadPoolScheduler, UnitGroup, inspect)
from repro.core.cache import model_fingerprint
from repro.data.datasets import Dataset, Vocab
from repro.extract.base import Extractor
from repro.hypotheses import PrecomputedHypothesis
from repro.hypotheses.annotations import mask_hypotheses
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.measures import (CorrelationScore, DiffMeansScore, JaccardScore,
                            LinearProbeScore, MajorityClassScore, Measure,
                            MeasureState, RandomClassScore,
                            SpearmanCorrelationScore, get_measure,
                            list_measures)
from repro.nn import CharLSTMModel
from repro.nn.serialize import load_model, save_model
from repro.util.debuglog import degradation_counts
from repro.util.rng import new_rng
from repro.vision import generate_shape_dataset, train_shape_cnn
from repro.vision.netdissect import CnnPixelExtractor

TOPK = ("SELECT S.uid AS uid, S.hid AS hid, S.unit_score AS score "
        "INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
        "FROM models M, units U, hypotheses H, inputs D "
        "WHERE M.mid = U.mid AND U.uid < 8 "
        "ORDER BY S.unit_score DESC LIMIT 20")


@pytest.fixture
def moment_sums(monkeypatch):
    """Every block-moments thunk a statement hands out, as the list of
    values its calls returned (empty: never called)."""
    from repro.core import source
    real = source.block_moments
    thunks: list[list] = []

    def spying(block):
        thunk = real(block)
        if thunk is None:
            return None
        returned: list = []
        thunks.append(returned)

        def spied():
            returned.append(thunk())
            return returned[-1]
        return spied
    monkeypatch.setattr(source, "block_moments", spying)
    return thunks


def _summed(thunks: list[list]) -> int:
    """Blocks whose moments were summed: a thunk sums on its first call
    and hands every later caller that same value."""
    called = [values for values in thunks if values]
    for values in called:
        assert all(value is values[0] for value in values)
    return len(called)


# ----------------------------------------------------------------------
# the counts behind the timing claim
# ----------------------------------------------------------------------
def test_repeated_statement_moves_no_counter(sql_workload, hyps72,
                                             trained_sql_model, moment_sums):
    with Session(config=InspectConfig(block_size=128)) as session:
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(hyps72)
        session.register_model("m", trained_sql_model, epoch=0)
        session.sql(TOPK)                       # warms every tier
        blocks = session.stats()["hypothesis_cache"]["stat_misses"]
        first = session.sql(TOPK)
        before = session.stats()
        handed_out = len(moment_sums)
        second = session.sql(TOPK)
        after = session.stats()
    assert second == first

    def moved(tier: str, counter: str) -> int:
        return after[tier][counter] - before[tier][counter]

    # every block is folded from kept statistics: no tier is even read
    assert blocks >= 1
    assert moved("hypothesis_cache", "stat_hits") == blocks
    assert moved("hypothesis_cache", "stat_misses") == 0
    for tier in ("hypothesis_cache", "unit_cache"):
        for counter in ("hits", "misses", "extractions"):
            assert moved(tier, counter) == 0, (tier, counter)
    assert len(moment_sums) == handed_out       # no block was even gathered
    assert moved("statement_cache", "misses") == 0
    assert moved("statement_cache", "invalidated") == 0
    assert moved("statement_cache", "hits") == 1
    assert after["statement_cache"]["entries"] == 1


@pytest.mark.parametrize("scheduler", ["serial", "threads"])
def test_a_folded_statement_touches_no_claim(scheduler, sql_workload,
                                             hyps72, trained_sql_model,
                                             monkeypatch):
    """Single-flight lives in the unit tier's ``extract``: a statement
    whose every block folds kept statistics never calls it, so it takes,
    waits on and leaves behind no claim — nor even takes the tier's lock
    to probe for one."""
    class CountingLock:
        def __init__(self, lock):
            self.lock, self.taken = lock, 0

        def __enter__(self):
            self.taken += 1
            return self.lock.__enter__()

        def __exit__(self, *exc):
            return self.lock.__exit__(*exc)

    with Session(config=InspectConfig(block_size=128),
                 scheduler=scheduler) as session:
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(hyps72)
        session.register_model("m", trained_sql_model, epoch=0)
        first = session.sql(TOPK)               # warms every tier
        tier = session.unit_cache
        reads: list = []
        real = tier.extract
        monkeypatch.setattr(tier, "extract",
                            lambda *a, **kw: reads.append(a) or real(*a, **kw))
        tier.reset_counters()
        lock = CountingLock(tier._lock)
        monkeypatch.setattr(tier, "_lock", lock)
        second = session.sql(TOPK)
        monkeypatch.undo()
        stats = session.stats()
    assert second == first
    assert stats["hypothesis_cache"]["stat_hits"] >= 1
    assert reads == [] and lock.taken == 0
    assert all(stats["unit_cache"][name] == 0
               for name in ("leads", "joins", "waits", "inflight"))


# ----------------------------------------------------------------------
# shared moments: layout-aware bit-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 4096 + 3])
@pytest.mark.parametrize("cols", [2, 13, 72])
def test_block_moments_sum_as_the_block_would(rows, cols):
    """The thunk's sums of squares, taken a chunk of rows at a time, are
    byte for byte what a score task reducing the block itself gets."""
    from repro.core.source import block_moments
    rng = np.random.default_rng(rows * cols)
    block = rng.standard_normal((rows, cols)) * rng.uniform(0, 1e3, cols)
    block[block > 1.0] = np.round(block[block > 1.0])
    sums, squares = block_moments(block)()
    assert sums.tobytes() == block.sum(axis=0).tobytes()
    assert squares.tobytes() == (block**2).sum(axis=0).tobytes()

SHAPES = ("72 columns", "2 columns", "1 column", "frozen slice", "spearman")


def _shape(name: str, hyps72, dataset, model):
    """(hypotheses, measure, unit groups, config knobs, whether the tier
    may share moments at all) of one block shape."""
    everything = [UnitGroup(model=model, unit_ids=np.arange(16), name="all")]
    exhaustive = dict(early_stop=False)
    if name == "frozen slice":
        # each single-unit group freezes its own unit's trace at once and
        # the rest later: from the second block on both tasks read a
        # column slice of the gathered block, a different one each
        states = model.hidden_states(dataset.symbols)
        noise = np.random.default_rng(5).random(states.shape[:2])
        hyps = [PrecomputedHypothesis("unit0", states[:, :, 0]),
                PrecomputedHypothesis("unit3", states[:, :, 3]),
                PrecomputedHypothesis("noise", (noise > 0.5).astype(float)),
                hyps72[60]]
        groups = [UnitGroup(model=model, unit_ids=np.array([u]),
                            name=f"unit{u}") for u in (0, 3)]
        return (hyps, CorrelationScore, groups,
                dict(early_stop=True, error_threshold=0.03), True)
    return {
        "72 columns": (hyps72, CorrelationScore, everything, exhaustive, True),
        "2 columns": (hyps72[3:5], CorrelationScore, everything, exhaustive,
                      True),
        "1 column": (hyps72[3:4], CorrelationScore, everything, exhaustive,
                     False),
        "spearman": (hyps72[:6], SpearmanCorrelationScore, everything,
                     exhaustive, False),
    }[name]


@pytest.mark.parametrize("tier", ["memory", "store"])
@pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
@pytest.mark.parametrize("shape", SHAPES)
def test_served_moments_keep_every_frame_bit_identical(
        shape, scheduler, tier, sql_workload, hyps72, trained_sql_model,
        tmp_path, moment_sums):
    dataset = sql_workload.dataset
    hyps, measure, groups, knobs, shares = _shape(
        shape, hyps72, dataset, trained_sql_model)
    knobs = dict(block_size=64, shuffle=True, **knobs)
    reference = inspect(None, dataset, measure(), hyps, unit_groups=groups,
                        config=InspectConfig(cache=None, unit_cache=None,
                                             scheduler="serial", **knobs))
    if shape == "frozen slice":   # the case must freeze columns unevenly
        seen = {(g, h): rows for g, h, rows in zip(
            reference["group_id"], reference["hyp_id"],
            reference["n_rows_seen"])}
        assert seen["unit0", "unit0"] < seen["unit0", "unit3"]
        assert seen["unit3", "unit3"] < seen["unit3", "unit0"]

    store = tmp_path if tier == "store" else None
    with Session(store, scheduler=scheduler,
                 config=InspectConfig(**knobs)) as session:
        def run():
            return (session.inspect(dataset=dataset).using(measure())
                    .hypotheses(hyps).where(groups=groups).run())
        cold = run()
        computed = session.stats()["hypothesis_cache"]
        summed = _summed(moment_sums)
        warm = run()
        counts = session.stats()["hypothesis_cache"]
    assert cold == reference
    assert warm == reference
    # every block the cold run scored, the warm run folds from the
    # statistics kept of it — whatever the shape, and with no moments read
    assert computed["stat_hits"] == 0 and computed["stat_misses"] > 0
    assert counts["stat_hits"] == counts["stat_misses"] \
        == computed["stat_misses"]
    assert _summed(moment_sums) == summed
    assert (summed > 0) == shares


@pytest.mark.parametrize("measure", [CorrelationScore,
                                     SpearmanCorrelationScore, JaccardScore])
def test_the_statement_thread_sums_a_cold_blocks_moments(
        measure, sql_workload, hyps72, trained_sql_model, monkeypatch):
    """The calling thread sums a block's moments after labelling it, while
    the pool still sweeps — so each block's thunk is first called on the
    statement's own thread — and only where a score task reads them."""
    from repro.core import source
    real = source.block_moments
    callers: list[list[int]] = []      # per thunk, the threads calling it

    def spying(block):
        thunk = real(block)
        if thunk is None:
            return None
        called: list[int] = []
        callers.append(called)

        def spied():
            called.append(threading.get_ident())
            return thunk()
        return spied
    monkeypatch.setattr(source, "block_moments", spying)
    # two score tasks, so the pool (not the caller) runs them
    groups = [UnitGroup(model=trained_sql_model, name=f"g{g}",
                        unit_ids=np.arange(8 * g, 8 * g + 8)) for g in (0, 1)]
    config = InspectConfig(block_size=128, early_stop=False)
    with Session(config=config, scheduler=ThreadPoolScheduler(2)) as session:
        (session.inspect(dataset=sql_workload.dataset).using(measure())
         .hypotheses(hyps72).where(groups=groups).run())
    n_blocks = -(-sql_workload.dataset.n_records // 128)
    assert len(callers) == n_blocks
    if measure is CorrelationScore:
        # the caller sums, then each task reads the same sums on the pool
        assert all(len(called) == 3 and called[0] == threading.get_ident()
                   and threading.get_ident() not in called[1:]
                   for called in callers)
    else:
        assert all(called == [] for called in callers)


def test_recycled_arena_column_never_serves_its_old_moments(
        sql_workload, hyps72, trained_sql_model, moment_sums):
    dataset = sql_workload.dataset
    column_bytes = 8 * dataset.n_records * dataset.n_symbols \
        + dataset.n_records
    h0, h1, h2 = hyps72[3], hyps72[4], hyps72[40]
    knobs = dict(early_stop=False, block_size=128)

    def fresh(hyps):
        return inspect(trained_sql_model, dataset, CorrelationScore(), hyps,
                       config=InspectConfig(**knobs))

    cache = HypothesisCache(max_bytes=2 * column_bytes)   # two columns
    with Session(config=InspectConfig(cache=cache, **knobs)) as session:
        def run(hyps):
            return (session.inspect(trained_sql_model, dataset)
                    .using("corr").hypotheses(hyps).run())

        def column_of(hyp) -> int:
            return cache._entries[(dataset.cache_key(), hyp.cache_key())].col

        first = run([h0, h1])
        blocks = _summed(moment_sums)
        assert blocks == 4                       # 444 records, 128 a block
        freed = column_of(h0)
        recycled = run([h2, h1])                 # h0 is evicted for h2
        assert column_of(h2) == freed
        assert (dataset.cache_key(), h0.cache_key()) not in cache._entries
        # the blocks over the recycled column were summed afresh
        assert _summed(moment_sums) == 2 * blocks
        again = run([h0, h1])
    assert first == fresh([h0, h1]) == again
    assert recycled == fresh([h2, h1])
    assert recycled != first


# ----------------------------------------------------------------------
# kept block statistics: by content, and by the exact computation
# ----------------------------------------------------------------------
KEPT_KNOBS = dict(block_size=64, shuffle=True, early_stop=True,
                  error_threshold=0.05)


def _reference(groups, dataset, hyps, **knobs):
    """The tier-less serial frame every kept-statistics case must equal."""
    return inspect(None, dataset, CorrelationScore(), hyps,
                   unit_groups=groups,
                   config=InspectConfig(cache=None, unit_cache=None,
                                        scheduler="serial",
                                        **{**KEPT_KNOBS, **knobs}))


def _kept_counts(session) -> tuple[int, int]:
    counts = session.stats()["hypothesis_cache"]
    return counts["stat_hits"], counts["stat_misses"]


def test_unit_subsets_never_share_kept_stats(sql_workload, hyps72,
                                             trained_sql_model, moment_sums):
    """``U.uid < 8``, ``< 16``, ``IN (1, 3, 5)``, ``= 7``, then ``< 8``
    again: each subset computes its own statistics (a wider product is
    never sliced), summing each block's moments at most once, and only the
    repeat is served."""
    dataset, model = sql_workload.dataset, trained_sql_model
    subsets = [np.arange(8), np.arange(16), np.array([1, 3, 5]),
               np.array([7]), np.arange(8)]
    with Session(config=InspectConfig(**KEPT_KNOBS)) as session:
        moved, summed = [], []
        for ids in subsets:
            groups = [UnitGroup(model=model, unit_ids=ids, name="mid=m")]
            before = _kept_counts(session)
            moment_sums.clear()
            frame = (session.inspect(dataset=dataset).using("corr")
                     .hypotheses(hyps72).where(groups=groups).run())
            after = _kept_counts(session)
            moved.append((after[0] - before[0], after[1] - before[1]))
            summed.append(_summed(moment_sums))
            assert frame == _reference(groups, dataset, hyps72), ids
    assert all(hits == 0 and misses > 0 for hits, misses in moved[:4])
    assert moved[4] == (moved[0][1], 0)
    # one task, so at most one sum per block it computed statistics for
    assert all(0 < n <= misses for n, (_, misses) in zip(summed, moved[:4]))
    assert summed[4] == 0


def test_hypothesis_columns_are_part_of_the_key(sql_workload, hyps72,
                                                trained_sql_model):
    """Other hypotheses, or the same ones in another order, are another
    computation; only the repeat of the first list is served."""
    dataset, model = sql_workload.dataset, trained_sql_model
    groups = [UnitGroup(model=model, unit_ids=np.arange(16), name="all")]
    lists = [hyps72[:6], hyps72[6:12], hyps72[5::-1], hyps72[:6]]
    with Session(config=InspectConfig(**KEPT_KNOBS)) as session:
        moved = []
        for hyps in lists:
            before = _kept_counts(session)
            frame = (session.inspect(dataset=dataset).using("corr")
                     .hypotheses(hyps).where(groups=groups).run())
            after = _kept_counts(session)
            moved.append((after[0] - before[0], after[1] - before[1]))
            assert frame == _reference(groups, dataset, hyps)
    assert all(hits == 0 and misses > 0 for hits, misses in moved[:3])
    assert moved[3] == (moved[0][1], 0)


def test_in_place_retrain_misses(sql_workload, hyps72):
    dataset = sql_workload.dataset
    model = CharLSTMModel(len(sql_workload.vocab), n_units=8,
                          rng=new_rng(7), model_id="retrained")
    groups = [UnitGroup(model=model, unit_ids=np.arange(8), name="all")]
    hyps = hyps72[:12]
    with Session(config=InspectConfig(**KEPT_KNOBS)) as session:
        def run():
            return (session.inspect(dataset=dataset).using("corr")
                    .hypotheses(hyps).where(groups=groups).run())
        first = run()
        assert first == _reference(groups, dataset, hyps)
        for param in model.parameters():
            param.value *= 1.5
        before = _kept_counts(session)
        retrained = run()
        hits, misses = (a - b for a, b in zip(_kept_counts(session), before))
    assert (hits, misses > 0) == (0, True)
    assert retrained == _reference(groups, dataset, hyps)
    assert retrained != first


def test_transforms_over_one_raw_entry_never_share(sql_workload, hyps72,
                                                   trained_sql_model):
    from repro.extract import RnnActivationExtractor
    dataset, model = sql_workload.dataset, trained_sql_model
    hyps = hyps72[:12]
    with Session(config=InspectConfig(**KEPT_KNOBS)) as session:
        moved = []
        for transform in ("abs", "activation"):
            groups = [UnitGroup(model=model, unit_ids=np.arange(16),
                                name="all", extractor=RnnActivationExtractor(
                                    transform=transform))]
            before = _kept_counts(session)
            frame = (session.inspect(dataset=dataset).using("corr")
                     .hypotheses(hyps).where(groups=groups).run())
            moved.append(_kept_counts(session)[0] - before[0])
            assert frame == _reference(groups, dataset, hyps), transform
        entries = session.stats()["unit_cache"]["entries"]
    assert entries == 1          # one raw sweep serves both transforms
    assert moved == [0, 0]


def test_kept_stats_are_bounded_in_bytes(monkeypatch, sql_workload, hyps72,
                                         trained_sql_model):
    from repro.core import cache as cache_module
    dataset, model = sql_workload.dataset, trained_sql_model
    hyps = hyps72[:4]
    groups = [UnitGroup(model=model, unit_ids=np.arange(16), name="all")]
    knobs = dict(early_stop=False)
    n_blocks = -(-dataset.n_records // KEPT_KNOBS["block_size"])
    block_bytes = 8 * (2 * 16 + 2 * len(hyps) + 16 * len(hyps))
    monkeypatch.setattr(cache_module, "_STAT_BYTES", 2 * block_bytes)
    with Session(config=InspectConfig(**{**KEPT_KNOBS, **knobs})) as session:
        def run():
            return (session.inspect(dataset=dataset).using("corr")
                    .hypotheses(hyps).where(groups=groups).run())
        cold = run()
        cache = session.hyp_cache
        assert len(cache._stat_memo) == 2           # the last two blocks
        assert cache._stat_bytes == 2 * block_bytes
        warm = run()    # blocks in order: each evicts what a later one needs
        assert _kept_counts(session) == (0, 2 * n_blocks)
        monkeypatch.setattr(cache_module, "_STAT_BYTES", block_bytes - 1)
        cache.clear()
        assert run() == cold
        assert len(cache._stat_memo) == 0 and cache._stat_bytes == 0
    assert cold == warm == _reference(groups, dataset, hyps, **knobs)


def test_concurrent_cold_statements_both_get_the_reference(
        sql_workload, hyps72, trained_sql_model):
    """Two threads miss the same keys together: both compute, both keep
    (bit-equal values), and both frames are the reference."""
    dataset, model = sql_workload.dataset, trained_sql_model
    groups = [UnitGroup(model=model, unit_ids=np.arange(16), name="all")]
    n = 2
    start = threading.Barrier(n)
    with Session(scheduler="threads",
                 config=InspectConfig(**KEPT_KNOBS)) as session, \
            ThreadPoolExecutor(n) as pool:
        def run():
            return (session.inspect(dataset=dataset).using("corr")
                    .hypotheses(hyps72).where(groups=groups).run())

        def go():
            start.wait(30)
            return run()

        frames = [future.result(120)
                  for future in [pool.submit(go) for _ in range(n)]]
        hits, misses = _kept_counts(session)
        again = run()
        served, computed = (a - b for a, b in zip(_kept_counts(session),
                                                   (hits, misses)))
    reference = _reference(groups, dataset, hyps72)
    assert frames == [reference] * n
    assert again == reference
    assert computed == 0 and served > 0
    assert hits + misses == n * served


class _PhaseModel:
    """A model with no ``parameters()``: its fingerprint is a token
    stamped on the object, blind to ``phase`` changing in place."""
    model_id = "phase"
    phase = 0.0


class _PhaseExtractor(Extractor):
    def n_units(self, model) -> int:
        return 3

    def raw_states(self, model, records):
        x = records.astype(np.float64)
        return np.stack([np.sin(x * k + model.phase) for k in (1, 2, 3)],
                        axis=-1)


def test_no_stats_are_kept_without_a_unit_tier(sql_workload, hyps72):
    """A plan without a unit tier trusts no model fingerprint, so it keeps
    no statistics: a parameter-less model changed in place is scored
    afresh, as before kept statistics existed."""
    dataset, hyps = sql_workload.dataset, hyps72[:12]
    model, extractor = _PhaseModel(), _PhaseExtractor()
    cache = HypothesisCache()

    def run(**knobs):
        config = InspectConfig(unit_cache=None, **{**KEPT_KNOBS, **knobs})
        return inspect([model], dataset, [CorrelationScore()], hyps,
                       extractor=extractor, config=config)
    first = run(cache=cache)
    model.phase = 1.0
    changed = run(cache=cache)
    reference = run(cache=None, scheduler="serial")
    assert changed == reference != first
    assert (cache.stat_hits, cache.stat_misses) == (0, 0)


def test_block_local_states_are_the_summed_ones():
    """Correlation, difference of means, the linear probe and the naive
    baselines sum per-block statistics; calibrated and held-out states
    do not."""
    local = {name for name in list_measures()
             if get_measure(name).new_state(2, 2).block_local}
    assert local == {"corr", "pearson", "spearman", "diff_means",
                     "linear_probe", "random", "majority"}


@pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
def test_every_block_local_measure_folds_kept_stats(
        scheduler, sql_workload, hyps72, trained_sql_model, moment_sums):
    """One session runs each measure's statement twice: the warm run folds
    every block the cold run computed, reads no hypothesis or unit block,
    and both frames are the tier-less serial one, byte for byte.  Two
    groups make two score tasks, which a pool runs at once against the
    tier's memo."""
    dataset, hyps = sql_workload.dataset, hyps72[:12]
    groups = [UnitGroup(model=trained_sql_model, unit_ids=ids, name=name)
              for name, ids in (("low", np.arange(8)),
                                ("high", np.arange(8, 16)))]
    with Session(scheduler=scheduler,
                 config=InspectConfig(**KEPT_KNOBS)) as session:
        # the block-local measures besides correlation (covered above)
        for measure in (DiffMeansScore, LinearProbeScore, RandomClassScore,
                        MajorityClassScore):
            def run():
                return (session.inspect(dataset=dataset).using(measure())
                        .hypotheses(hyps).where(groups=groups).run())
            reference = inspect(
                None, dataset, measure(), hyps, unit_groups=groups,
                config=InspectConfig(cache=None, unit_cache=None,
                                     scheduler="serial", **KEPT_KNOBS))
            session.reset_counters()
            cold = run()
            computed = session.stats()
            gathered = len(moment_sums)
            session.reset_counters()
            warm = run()
            served = session.stats()
            name = measure.__name__
            assert cold == warm == reference, name
            assert warm.column("val").tobytes() \
                == reference.column("val").tobytes(), name
            kept = computed["hypothesis_cache"]
            assert kept["stat_hits"] == 0 and kept["stat_misses"] > 0, name
            assert (served["hypothesis_cache"]["stat_hits"],
                    served["hypothesis_cache"]["stat_misses"]) \
                == (kept["stat_misses"], 0), name
            for tier in ("hypothesis_cache", "unit_cache"):
                for counter in ("hits", "misses", "extractions"):
                    assert served[tier][counter] == 0, (name, tier, counter)
            assert len(moment_sums) == gathered, name


class _TallyState(MeasureState):
    """A user state that takes blocks whole, in ``update``."""

    def __init__(self, n_units: int, n_hyps: int):
        super().__init__(n_units, n_hyps)
        self.fired = np.zeros(n_hyps)

    def update(self, units: np.ndarray, hyps: np.ndarray) -> None:
        self.fired += (hyps > 0).sum(axis=0)

    def unit_scores(self) -> np.ndarray:
        rate = self.fired / max(self.n_rows, 1)
        return np.tile(rate, (self.n_units, 1))


class _TallyScore(Measure):
    score_id = "tally"

    def new_state(self, n_units: int, n_hyps: int) -> _TallyState:
        return _TallyState(n_units, n_hyps)


def test_a_state_with_only_update_runs_and_is_never_kept(
        sql_workload, hyps72, trained_sql_model):
    state = _TallyScore().new_state(3, 2)
    assert not state.block_local
    with pytest.raises(NotImplementedError):
        state.restrict_columns(np.array([0]))
    dataset, hyps = sql_workload.dataset, hyps72[:6]
    groups = [UnitGroup(model=trained_sql_model, unit_ids=np.arange(4),
                        name="some")]
    reference = inspect(None, dataset, _TallyScore(), hyps,
                        unit_groups=groups,
                        config=InspectConfig(cache=None, unit_cache=None,
                                             scheduler="serial",
                                             **KEPT_KNOBS))
    with Session(config=InspectConfig(**KEPT_KNOBS)) as session:
        frames = [(session.inspect(dataset=dataset).using(_TallyScore())
                   .hypotheses(hyps).where(groups=groups).run())
                  for _ in range(2)]
        assert _kept_counts(session) == (0, 0)
    assert frames == [reference] * 2
    assert len(reference) > 0


# ----------------------------------------------------------------------
# compiled statements: the invalidation matrix
# ----------------------------------------------------------------------
_SCORES = ("SELECT S.uid AS uid, S.hid AS hid, S.unit_score AS unit_score "
           "{into} INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
           "FROM models M, units U, hypotheses H, inputs D")
#: the statement under test joins the user table ``picks``
JOINED = (_SCORES.format(into="") + ", picks P "
          "WHERE M.mid = U.mid AND U.uid = P.uid")
INTO_PICKS = _SCORES.format(into="INTO picks") \
    + " WHERE M.mid = U.mid AND U.uid < 3"
INTO_OTHER = _SCORES.format(into="INTO other") \
    + " WHERE M.mid = U.mid AND U.uid < 3"


def _mutations(sql_workload, trained_sql_model):
    """name -> (mutation, whether JOINED must recompile after it)."""
    def recreate_picks(session):
        session.db.drop_table("picks")
        session.db.create_table("picks", ["uid"], [(1,), (2,), (6,)])

    extra = sql_keyword_hypotheses(("WHERE",))
    untrained = CharLSTMModel(len(sql_workload.vocab), n_units=16,
                              rng=new_rng(7), model_id="untrained")
    return {
        # the catalog is untouched: only the registry generation can tell
        "swap a model object": (lambda s: s.register_model(
            "m0", untrained, catalog=False), True),
        "register_model": (lambda s: s.register_model(
            "m1", trained_sql_model, units=4, epoch=1), True),
        "register_hypotheses": (lambda s: s.register_hypotheses(
            extra, name="keywords"), True),
        "register_dataset": (lambda s: s.register_dataset(
            "d0", sql_workload.dataset.head(50)), True),
        "insert into units": (lambda s: s.db.table("units").insert(
            ["m0", 5, 0]), True),
        "drop + re-create picks": (recreate_picks, True),
        "INTO a joined table": (lambda s: s.sql(INTO_PICKS), True),
        "INTO an unjoined table": (lambda s: s.sql(INTO_OTHER), False),
    }


def _base_session(sql_workload, trained_sql_model) -> Session:
    session = Session(config=InspectConfig(max_records=60, block_size=16,
                                           early_stop=False))
    session.register_model("m0", trained_sql_model, units=5, epoch=0)
    session.register_dataset("d0", sql_workload.dataset)
    session.register_hypotheses(sql_keyword_hypotheses(("SELECT", "FROM")),
                                name="keywords")
    session.db.create_table("picks", ["uid"], [(0,), (2,), (5,)])
    return session


def test_statement_cache_invalidation_matrix(sql_workload, trained_sql_model):
    mutations = _mutations(sql_workload, trained_sql_model)
    applied = []
    with _base_session(sql_workload, trained_sql_model) as session:
        previous = session.sql(JOINED)
        for name, (mutate, recompiles) in mutations.items():
            before = session.stats()["statement_cache"]
            mutate(session)
            applied.append(mutate)
            ran = session.stats()["statement_cache"]   # INTOs are statements
            frame = session.sql(JOINED)
            after = session.stats()["statement_cache"]
            with _base_session(sql_workload, trained_sql_model) as replay:
                for again in applied:
                    again(replay)
                expected = replay.sql(JOINED)
            assert frame == expected, name
            assert after["hits"] - ran["hits"] == 1, name
            assert after["misses"] == ran["misses"], name
            assert after["invalidated"] - before["invalidated"] \
                == int(recompiles), name
            # a stale compilation would have shown: the frame moved
            assert (frame != previous) == recompiles, name
            previous = frame


def test_concurrent_identical_statements_share_one_compilation(
        sql_workload, trained_sql_model):
    with _base_session(sql_workload, trained_sql_model) as session:
        n = 6
        frames: list = [None] * n
        errors: list = []
        start = threading.Barrier(n)

        def go(i):
            try:
                start.wait(30)
                frames[i] = session.sql(JOINED)
            except Exception as exc:   # repro: allow[REP005]
                errors.append(exc)

        threads = [threading.Thread(target=go, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        baseline = session.sql(JOINED)
        stats = session.stats()["statement_cache"]
    assert all(frame == baseline for frame in frames)
    assert stats["entries"] == 1 and stats["invalidated"] == 0
    assert stats["hits"] + stats["misses"] == n + 1


def test_statement_cache_is_bounded(sql_workload, trained_sql_model):
    from repro.session import _STATEMENT_SLOTS
    with _base_session(sql_workload, trained_sql_model) as session:
        for i in range(_STATEMENT_SLOTS + 10):
            session.sql(f"SELECT uid FROM picks WHERE uid < {i}")
        assert session.stats()["statement_cache"]["entries"] \
            == _STATEMENT_SLOTS


def test_repeated_select_binds_once(sql_workload, trained_sql_model,
                                    monkeypatch):
    """A plain SELECT keeps its bound form on the parsed statement while
    the *column lists* of its FROM tables hold: contents may change, and
    ``INTO`` may replace the table, without a single name resolution."""
    from repro.db import executor
    resolved = []
    real = executor.resolve_expr
    monkeypatch.setattr(executor, "resolve_expr", lambda expr, schema: (
        resolved.append(expr), real(expr, schema))[1])
    topk = ("SELECT P.uid, U.layer FROM picks P, units U "
            "WHERE P.uid = U.uid AND U.uid < 4 ORDER BY P.uid DESC LIMIT 2")
    with _base_session(sql_workload, trained_sql_model) as session:
        first = session.sql(topk)
        assert first.rows() == [{"P.uid": 2, "U.layer": 0},
                                {"P.uid": 0, "U.layer": 0}]
        bound = len(resolved)
        assert bound > 0
        before = session.stats()["statement_cache"]
        assert session.sql(topk) == first
        session.db.table("picks").insert([3])              # new contents
        assert session.sql(topk)["P.uid"] == [3, 2]
        replaced = session.db.table("picks")
        resolved.clear()       # the INTO statement itself binds, once
        session.sql("SELECT uid INTO picks FROM picks WHERE uid > 2")
        assert session.db.table("picks") is not replaced   # same columns
        assert session.sql(topk)["P.uid"] == [3]
        after = session.stats()["statement_cache"]
        assert [str(expr) for expr in resolved] == ["uid", "(uid > 2)"]
        assert after["hits"] - before["hits"] == 3
        assert after["misses"] - before["misses"] == 1     # the INTO
        # other columns: the statement binds afresh (here, to an error)
        session.db.create_table("picks", ["unit"], [(1,)], replace=True)
        with pytest.raises(KeyError, match="unbound column 'P.uid'"):
            session.sql(topk)
        assert len(resolved) > 2


# ----------------------------------------------------------------------
# ShapeCnn crosses the process boundary
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shapes_and_cnn():
    shapes = generate_shape_dataset(n_images=12, image_size=8, seed=1)
    return shapes, train_shape_cnn(shapes, epochs=1, seed=0)


def test_shape_cnn_save_load_round_trip(shapes_and_cnn, tmp_path):
    shapes, model = shapes_and_cnn
    save_model(model, str(tmp_path / "cnn"))
    loaded = load_model(str(tmp_path / "cnn"))
    assert loaded.architecture() == model.architecture()
    assert np.array_equal(loaded.activation_maps(shapes.images),
                          model.activation_maps(shapes.images))


def test_cnn_frame_under_threads_is_serials(shapes_and_cnn):
    shapes, model = shapes_and_cnn
    n_pixels = shapes.images.shape[1] * shapes.images.shape[2]
    symbols = np.repeat(np.arange(shapes.n_images)[:, None], n_pixels, axis=1)
    dataset = Dataset(symbols, Vocab(["x"]),
                      meta=[{"image": i} for i in range(shapes.n_images)])
    hyps = mask_hypotheses(shapes.flat_masks())

    def run(scheduler):
        with Session(scheduler=scheduler) as session:
            return (session.inspect(model, dataset,
                                    extractor=CnnPixelExtractor(
                                        shapes.images, batch_size=5))
                    .using(JaccardScore(quantile=0.9, calibration_rows=64))
                    .hypotheses(hyps).with_config(mode="full").run())

    serial = run("serial")
    before = degradation_counts()
    pooled = run("threads")
    assert pooled == serial
    assert degradation_counts() == before


def test_kept_compilation_forms_no_reference_cycle(sql_workload):
    """A dropped session frees its models by reference count: a cycle
    through the kept compilation would hold them (and the activations
    they cache) until the cycle collector runs — `cold_sweep`'s peak RSS
    grew by half when there was one."""
    model = CharLSTMModel(len(sql_workload.vocab), n_units=16,
                          rng=new_rng(7), model_id="short-lived")
    alive = weakref.ref(model)
    gc.collect()
    gc.disable()
    try:
        session = _base_session(sql_workload, model)
        session.sql(JOINED)
        session.sql(JOINED)
        session.close()
        del session, model
        assert alive() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# what a warm statement re-derives: the model fingerprint, the S columns
# ----------------------------------------------------------------------
#: fresh models the fingerprint race runs on, each hashed for the first
#: time while the write lands, 50 us later in each round
RACE_ROUNDS = 20


def _fresh_model(sql_workload, model_id="m"):
    return CharLSTMModel(len(sql_workload.vocab), n_units=8,
                         rng=new_rng(7), model_id=model_id)


def test_fingerprint_strings_are_pinned():
    """The keys stores were written under: comparing against a kept copy
    changed when parameters are hashed, not what the hash is."""
    wide = CharLSTMModel(12, 6, new_rng(7), model_id="golden")
    narrow = CharLSTMModel(12, 6, new_rng(7), model_id="golden32")
    for param in narrow.parameters():
        param.value = param.value.astype(np.float32)
    for _ in range(2):   # hashed, then compared
        assert model_fingerprint(wide) \
            == "golden:d363aca7bc658c66aef2e5fc27a0da3dfd29c19d"
        assert model_fingerprint(narrow) \
            == "golden32:98da551c36f5b5171e4cda1bd7250732b11c47c2"


def _swap_rows(model):
    w_h = model.lstm.w_h.value
    w_h[[0, 1]] = w_h[[1, 0]]


def _negative_zero(model):
    model.lstm.b.value[0] = -0.0


def _replace(model):
    model.lstm.b.value = model.lstm.b.value + 1.0


def _write_one(model):
    model.lstm.w_h.value[2, 3] += 0.25


def _rename(model):
    model.model_id = "renamed"


@pytest.mark.parametrize("change", [_write_one, _swap_rows, _negative_zero,
                                    _replace, _rename])
def test_every_parameter_change_misses_kept_stats(change, sql_workload,
                                                  hyps72):
    model = _fresh_model(sql_workload)
    model.lstm.b.value[0] = 0.0    # what _negative_zero overwrites
    with Session(config=InspectConfig(max_records=64,
                                      **KEPT_KNOBS)) as session:
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(hyps72[:12])
        session.register_model("m", model)
        session.sql(TOPK)
        key = model_fingerprint(model)
        before = _kept_counts(session)
        session.sql(TOPK)
        warm = _kept_counts(session)
        assert warm[0] > before[0] and warm[1] == before[1]
        change(model)
        assert model_fingerprint(model) != key
        session.sql(TOPK)
        after = _kept_counts(session)
    assert after[0] == warm[0] and after[1] > warm[1]


def test_an_equal_valued_replacement_changes_nothing(sql_workload, hyps72):
    model = _fresh_model(sql_workload)
    with Session(config=InspectConfig(max_records=64,
                                      **KEPT_KNOBS)) as session:
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(hyps72[:12])
        session.register_model("m", model)
        first = session.sql(TOPK)
        key = model_fingerprint(model)
        for param in model.parameters():
            param.value = param.value.copy()
        assert model_fingerprint(model) == key
        before = _kept_counts(session)
        unit_before = session.stats()["unit_cache"]
        assert session.sql(TOPK) == first
        after = _kept_counts(session)
        unit_after = session.stats()["unit_cache"]
    assert after[0] > before[0] and after[1] == before[1]
    assert unit_after["extractions"] == unit_before["extractions"]


def test_an_unchanged_model_is_hashed_once(monkeypatch, sql_workload,
                                           hyps72):
    from repro.core import cache
    digests: list = []
    real = cache._param_digest
    monkeypatch.setattr(cache, "_param_digest",
                        lambda values: digests.append(1) or real(values))
    model = _fresh_model(sql_workload)
    with Session(config=InspectConfig(max_records=64,
                                      **KEPT_KNOBS)) as session:
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(hyps72[:12])
        session.register_model("m", model)
        frames = [session.sql(TOPK) for _ in range(5)]
    assert all(frame == frames[0] for frame in frames)
    assert len(digests) == 1


def test_fingerprint_races_with_a_parameter_write():
    """Threads fingerprint one model, its first hash included, while
    another writes one of its parameters: every key is the one from before
    the write or the one from after it, and once the write has returned
    every key is the after key."""
    def build():
        return CharLSTMModel(48, 32, new_rng(7), model_id="raced")

    twin = build()
    old = model_fingerprint(twin)
    twin.lstm.w_h.value[1, 2] = 7.0
    new = model_fingerprint(twin)
    for round_ in range(RACE_ROUNDS):
        model = build()
        start, written = threading.Barrier(5), threading.Event()
        seen: list = []

        def fingerprint(model=model, start=start, written=written,
                        seen=seen):
            start.wait(30)
            for _ in range(50):
                after = written.is_set()
                seen.append((after, model_fingerprint(model)))

        def write(model=model, start=start, written=written,
                  delay=round_ * 5e-5):
            start.wait(30)
            time.sleep(delay)   # land at another point of the hashing
            model.lstm.w_h.value[1, 2] = 7.0
            written.set()

        threads = [threading.Thread(target=fingerprint) for _ in range(4)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert len(seen) == 200
        assert {key for _, key in seen} <= {old, new}
        assert all(key == new for after, key in seen if after)
        assert model_fingerprint(model) == new


_S_STATEMENT = ("SELECT {select} INSPECT U.uid AND H.h USING corr, diff_means "
                "OVER D.seq AS S FROM models M, units U, hypotheses H, "
                "inputs D WHERE M.mid = U.mid AND U.uid < 6 {tail}")
_S_ALL = ("S.uid AS uid, S.hid AS hid, S.mid AS mid, S.score_id AS score_id, "
          "S.group_score AS group_score, S.unit_score AS unit_score")


@pytest.mark.parametrize("select, tail, built", [
    ("S.uid AS uid, S.hid AS hid, S.unit_score AS unit_score",
     "ORDER BY S.unit_score DESC LIMIT 20", {"uid", "hid", "unit_score"}),
    ("S.uid AS uid, S.unit_score AS unit_score",
     "ORDER BY S.score_id LIMIT 30", {"uid", "unit_score", "score_id"}),
    ("S.hid AS hid, S.group_score AS group_score",
     "HAVING S.mid = 'm1' AND S.unit_score > 0",
     {"hid", "group_score", "mid", "unit_score"}),
])
def test_s_holds_only_the_columns_the_statement_reads(
        monkeypatch, select, tail, built, sql_workload, hyps72,
        trained_sql_model):
    """The narrow S gives the frame the full S gives, projected."""
    from repro.db import inspect_clause
    shapes: list = []
    real = inspect_clause._materialize_s

    def spying(*args):
        cols, n = real(*args)
        shapes.append(({q for q in cols if q.startswith("S.")}, n))
        return cols, n
    monkeypatch.setattr(inspect_clause, "_materialize_s", spying)
    with Session(config=InspectConfig(max_records=64,
                                      **KEPT_KNOBS)) as session:
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(hyps72[:12])
        session.register_model("m0", trained_sql_model, epoch=0)
        session.register_model("m1", _fresh_model(sql_workload, "m1"),
                               epoch=1)
        narrow = session.sql(_S_STATEMENT.format(select=select, tail=tail))
        wide = session.sql(_S_STATEMENT.format(select=_S_ALL, tail=tail))
    assert shapes[0] == ({f"S.{name}" for name in built}, shapes[1][1])
    assert len(shapes[1][0]) == 6
    assert len(narrow) > 0
    assert narrow.columns == [item.split(" AS ")[1]
                              for item in select.split(", ")]
    assert narrow == wide.select(*narrow.columns)
