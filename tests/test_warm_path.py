"""What a warm statement may skip, and when it may not.

A warm statement recomputes nothing that does not depend on the statement:
a correlation task's block statistics are kept by the hypothesis tier (and
within one statement the score tasks reading a block sum its moments
once), the unit tier holds its entries in the layout scoring reads, and
the session reuses a statement's parse and compilation.  Everything here
pins the two halves of that bargain — the counters that show the work was
skipped, and the frames that show skipping it changed nothing — and the
invalidation rules that decide when it must not be skipped.
"""

from __future__ import annotations

import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (HypothesisCache, InspectConfig, Session, UnitGroup,
                   inspect)
from repro.data.datasets import Dataset, Vocab
from repro.extract.base import Extractor
from repro.hypotheses import PrecomputedHypothesis
from repro.hypotheses.annotations import mask_hypotheses
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.measures import (CorrelationScore, JaccardScore,
                            SpearmanCorrelationScore)
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


def test_cnn_frame_under_processes_is_serials(shapes_and_cnn):
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
    pooled = run("processes")
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
