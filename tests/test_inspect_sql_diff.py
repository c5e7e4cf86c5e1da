"""Differential suite: the SQL INSPECT frontend vs the direct inspect() API.

The frontend compiles a statement into one shared plan-engine run wired to
session caches and the thread-pool scheduler; these tests assert that this
whole pipeline is *score-preserving*: bit-identical values to a serial,
uncached `inspect()` call over the same (models, units, hypotheses,
dataset) workload -- including multi-measure USING lists, HAVING filters,
ORDER BY / LIMIT, and GROUP BY sweeps -- and that the shared plan extracts
each model's and hypothesis's behavior exactly once across all groups.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import InspectConfig, SerialScheduler, UnitGroup, inspect
from repro.db import Database
from repro.db.expr import AmbiguousColumnError
from repro.extract import RnnActivationExtractor
from repro.hypotheses import KeywordHypothesis
from repro.measures import get_measure
from repro.nn import CharLSTMModel, TrainConfig, train_model
from repro.nn.serialize import clone_model
from repro.util.rng import new_rng

N_UNITS = 10
LAYER0 = list(range(5))           # units 0..4 are "layer 0"
MAX_RECORDS = 50


@pytest.fixture(scope="module")
def snapshots(sql_workload):
    """Four training snapshots of one model (a GROUP BY M.epoch sweep)."""
    model = CharLSTMModel(len(sql_workload.vocab), n_units=N_UNITS,
                          rng=new_rng(21), model_id="sweep")
    snaps: dict[int, object] = {}

    def capture(epoch: int, trained) -> None:
        snap = clone_model(trained)
        snap.model_id = f"sweep_e{epoch}"
        snaps[epoch] = snap

    train_model(model, sql_workload.dataset.symbols, sql_workload.targets,
                TrainConfig(epochs=4, lr=3e-3, patience=99),
                snapshot_hook=capture)
    return snaps


@pytest.fixture(scope="module")
def hyps():
    return [KeywordHypothesis(k) for k in ("SELECT", "FROM", "WHERE")]


@pytest.fixture
def make_session(hand_built_session, snapshots, sql_workload, hyps):
    """``make_session(**session_kwargs)``: a session over a hand-built
    catalog of the four snapshots (closed at teardown)."""
    def make(**kwargs):
        ordered = [snapshots[e] for e in sorted(snapshots)]
        db = Database()
        db.create_table("models", ["mid", "epoch"],
                        [[m.model_id, e]
                         for e, m in sorted(snapshots.items())])
        db.create_table("units", ["mid", "uid", "layer"],
                        [[m.model_id, u, 0 if u in LAYER0 else 1]
                         for m in ordered for u in range(N_UNITS)])
        db.create_table("hypotheses", ["h", "name"],
                        [[h.name, "keywords"] for h in hyps])
        db.create_table("inputs", ["did", "seq"], [["d0", "seq"]])
        kwargs.setdefault("config", InspectConfig(mode="full",
                                                  max_records=MAX_RECORDS))
        return hand_built_session(
            db, models={m.model_id: m for m in ordered}, hypotheses=hyps,
            datasets={"d0": sql_workload.dataset}, **kwargs)
    return make


@pytest.fixture
def session(make_session):
    return make_session()


def api_scores(snapshots, workload, hyps, measures,
               unit_ids=LAYER0) -> dict[tuple, float]:
    """Reference scores from the direct API: serial, uncached."""
    groups = [UnitGroup(model=snapshots[e],
                        unit_ids=np.asarray(unit_ids, dtype=int),
                        name=f"mid={snapshots[e].model_id}")
              for e in sorted(snapshots)]
    frame = inspect(None, workload.dataset,
                    [get_measure(m) for m in measures], hyps,
                    unit_groups=groups, extractor=RnnActivationExtractor(),
                    config=InspectConfig(mode="full",
                                         max_records=MAX_RECORDS))
    return {(r["model_id"], r["h_unit_id"], r["hyp_id"], r["score_id"]):
            r["val"] for r in frame.rows() if r["kind"] == "unit"}


def sql_scores(frame) -> dict[tuple, float]:
    return {(r["S.mid"], r["S.uid"], r["S.hid"], r["S.score_id"]):
            r["S.unit_score"] for r in frame.rows()}


SQL_ALL = """
    SELECT S.mid, S.uid, S.hid, S.score_id, S.unit_score
    INSPECT U.uid AND H.h USING {measures} OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid AND U.layer = 0
    {tail}
"""


class TestSqlVsApi:
    def test_corr_bit_identical(self, session, snapshots, sql_workload,
                                hyps):
        frame = session.sql(SQL_ALL.format(measures="corr", tail=""))
        expected = api_scores(snapshots, sql_workload, hyps, ["corr"])
        got = sql_scores(frame)
        assert set(got) == set(expected)
        assert all(got[k] == expected[k] for k in expected)  # bit-identical

    def test_multi_measure_bit_identical(self, session, snapshots,
                                         sql_workload, hyps):
        frame = session.sql(SQL_ALL.format(
            measures="corr, mutual_info", tail=""))
        expected = api_scores(snapshots, sql_workload, hyps,
                              ["corr", "mutual_info"])
        got = sql_scores(frame)
        assert set(got) == set(expected)
        assert all(got[k] == expected[k] for k in expected)
        assert {k[3] for k in got} == {"corr:pearson", "mutual_info"}

    def test_group_by_epoch_bit_identical(self, session, snapshots,
                                          sql_workload, hyps):
        frame = session.sql(SQL_ALL.format(
            measures="corr", tail="GROUP BY M.epoch"))
        expected = api_scores(snapshots, sql_workload, hyps, ["corr"])
        got = sql_scores(frame)
        assert set(got) == set(expected)
        assert all(got[k] == expected[k] for k in expected)

    def test_having_matches_api_filter(self, session, snapshots,
                                       sql_workload, hyps):
        frame = session.sql(SQL_ALL.format(
            measures="corr", tail="HAVING S.unit_score > 0.05"))
        expected = {k: v for k, v in
                    api_scores(snapshots, sql_workload, hyps,
                               ["corr"]).items() if v > 0.05}
        assert sql_scores(frame) == expected
        assert len(frame) == len(expected)


class TestOrderByLimit:
    def test_order_by_desc_limit(self, session, snapshots, sql_workload,
                                 hyps):
        frame = session.sql(SQL_ALL.format(
            measures="corr", tail="ORDER BY S.unit_score DESC LIMIT 5"))
        expected = sorted(api_scores(snapshots, sql_workload, hyps,
                                     ["corr"]).values(), reverse=True)[:5]
        assert len(frame) == 5
        assert frame["S.unit_score"] == expected

    def test_order_by_ascending_no_limit(self, session):
        frame = session.sql(SQL_ALL.format(
            measures="corr", tail="ORDER BY S.unit_score"))
        vals = frame["S.unit_score"]
        assert vals == sorted(vals)

    def test_order_by_unprojected_column(self, session):
        sql = """
            SELECT S.uid, S.hid
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid AND U.layer = 0
            ORDER BY S.unit_score DESC LIMIT 3
        """
        frame = session.sql(sql)
        assert frame.columns == ["S.uid", "S.hid"]  # hidden key dropped
        assert len(frame) == 3

    def test_limit_alone(self, session):
        frame = session.sql(SQL_ALL.format(
            measures="corr", tail="LIMIT 4"))
        assert len(frame) == 4

    @pytest.mark.parametrize("with_nans", [False, True])
    def test_column_tail_builds_the_row_path_frame(self, session,
                                                   monkeypatch, with_nans):
        """The frame is built from the select stage's column lists; dict
        rows put through the row-at-a-time ORDER BY / LIMIT must yield the
        same frame — values, types, column order — also where the column
        sort gives way to Python's NULL-safe one (object and NaN keys)."""
        from repro.db import executor, inspect_clause
        from repro.util.frame import Frame
        unprojected = """
            SELECT S.uid, M.epoch AS epoch, S.hid
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid ORDER BY S.unit_score DESC LIMIT 7
        """
        statements = [unprojected] + [
            SQL_ALL.format(measures="corr, diff_means", tail=tail)
            for tail in ("", "LIMIT 4", "ORDER BY S.unit_score",
                         "ORDER BY S.unit_score DESC LIMIT 200",
                         "ORDER BY S.hid DESC LIMIT 9",
                         "HAVING S.unit_score > 0.1 ORDER BY S.uid",
                         "GROUP BY M.epoch ORDER BY S.unit_score DESC")]
        seen = []

        def spy(cols, n, query, presorted=False):
            if with_nans:
                scores = cols["S.unit_score"].copy()
                scores[::3] = np.nan
                cols = {**cols, "S.unit_score": scores}
            seen.append((cols, n, query))
            return executor.select_columns(cols, n, query, presorted)

        monkeypatch.setattr(inspect_clause, "select_columns", spy)
        python_sorts = 0
        for sql in statements:
            got = session.sql(sql)
            cols, n, query = seen.pop()
            arrays = {it.alias: executor._broadcast(it.expr.eval_batch(cols),
                                                    n) for it in query.items}
            if query.order_by is not None:
                python_sorts += executor.sort_indices(
                    arrays[query.order_by], query.descending) is None
            lists = [a.tolist() for a in arrays.values()]
            want = Frame.from_records(
                executor._finalize([dict(zip(arrays, vals))
                                    for vals in zip(*lists)], query),
                columns=got.columns)
            assert len(got) == len(want) > 0
            assert got.columns == want.columns \
                == [it.alias for it in query.items
                    if it.alias != executor.ORDER_KEY]
            # compared as text: NaN is not equal to itself
            assert repr([got[c] for c in got.columns]) \
                == repr([want[c] for c in want.columns])
            assert [list(map(type, got[c])) for c in got.columns] \
                == [list(map(type, want[c])) for c in want.columns]
        assert python_sorts == (5 if with_nans else 1)


class TestAmbiguity:
    def test_ambiguous_where_reference_raises(self, session):
        with pytest.raises(AmbiguousColumnError, match="mid"):
            session.sql("""
                SELECT S.uid
                INSPECT U.uid AND H.h USING corr OVER D.seq AS S
                FROM models M, units U, hypotheses H, inputs D
                WHERE mid = 'sweep_e0'
            """)

    def test_ambiguous_select_reference_raises(self, session):
        # "uid" lives in both the units table and the S relation
        with pytest.raises(AmbiguousColumnError, match="uid"):
            session.sql("""
                SELECT uid
                INSPECT U.uid AND H.h USING corr OVER D.seq AS S
                FROM models M, units U, hypotheses H, inputs D
                WHERE M.mid = U.mid
            """)

    def test_qualified_references_work(self, session):
        frame = session.sql("""
            SELECT S.uid
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid AND M.mid = 'sweep_e0' AND U.layer = 0
        """)
        assert set(frame["S.uid"]) == set(LAYER0)

    def test_unique_unqualified_reference_works(self, session):
        # "layer" exists only in units; "epoch" only in models
        frame = session.sql("""
            SELECT epoch, S.uid
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid AND layer = 1 AND epoch = 0
        """)
        assert set(frame["S.uid"]) == set(range(5, N_UNITS))
        assert set(frame["epoch"]) == {0}

    def test_hypothesis_columns_track_s_hid(self, session, hyps):
        # each S row's representative catalog row is keyed per
        # (model, unit, hypothesis): H.h must agree with S.hid on every row
        frame = session.sql("""
            SELECT S.hid, H.h
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid AND U.layer = 0
        """)
        assert len(frame) > 0
        assert frame["S.hid"] == frame["H.h"]
        assert set(frame["H.h"]) == {h.name for h in hyps}

    def test_having_on_hypothesis_column(self, session, hyps):
        frame = session.sql("""
            SELECT S.uid, H.h
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid AND U.layer = 0
            HAVING H.h = 'kw:FROM'
        """)
        assert set(frame["H.h"]) == {"kw:FROM"}
        assert len(frame) == 4 * len(LAYER0)  # 4 snapshots x layer-0 units

    def test_multi_dataset_group_by_did(self, make_session, snapshots,
                                        sql_workload, hyps):
        """GROUP BY D.did sweeps two datasets: one plan per dataset, and
        the d0 group's scores match the single-dataset query exactly."""
        ctx = make_session()
        ctx.datasets["d1"] = sql_workload.dataset.head(30)
        ctx.db.table("inputs").insert(["d1", "seq"])
        frame = ctx.sql("""
            SELECT D.did, S.mid, S.uid, S.hid, S.unit_score
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid AND U.layer = 0
            GROUP BY D.did
        """)
        assert set(frame["D.did"]) == {"d0", "d1"}
        per_did = len(snapshots) * len(LAYER0) * len(hyps)
        assert len(frame) == 2 * per_did
        d0_scores = {(r["S.mid"], r["S.uid"], r["S.hid"]):
                     r["S.unit_score"] for r in frame.rows()
                     if r["D.did"] == "d0"}
        expected = {(k[0], k[1], k[2]): v for k, v in
                    api_scores(snapshots, sql_workload, hyps,
                               ["corr"]).items()}
        assert d0_scores == expected
        # extraction once per (model, dataset): 4 models x 2 datasets
        assert ctx.unit_cache.stats()["extractions"] == \
            2 * len(snapshots)

    def test_undeterminable_dataset_raises(self, make_session,
                                           sql_workload):
        ctx = make_session()
        ctx.datasets["d1"] = sql_workload.dataset  # second dataset
        with pytest.raises(ValueError, match="dataset"):
            ctx.sql("""
                SELECT S.uid
                INSPECT U.uid AND H.h USING corr OVER D.seq AS S
                FROM models M, units U, hypotheses H
                WHERE M.mid = U.mid
            """)

    def test_user_table_named_like_temp_survives(self, session):
        # the S relation runs in a throwaway catalog; a user table with
        # the same name must neither be read nor dropped
        session.db.create_table("__inspect_s__", ["x"], [[1]])
        frame = session.sql(SQL_ALL.format(measures="corr",
                                           tail="LIMIT 2"))
        assert len(frame) == 2
        assert "__inspect_s__" in session.db.tables
        assert len(session.db.table("__inspect_s__")) == 1

    def test_unbound_column_raises(self, session):
        with pytest.raises(KeyError, match="unbound"):
            session.sql("""
                SELECT S.uid
                INSPECT U.uid AND H.h USING corr OVER D.seq AS S
                FROM models M, units U, hypotheses H, inputs D
                WHERE nonexistent = 1
            """)


class TestSharedExtraction:
    def test_group_by_sweep_extracts_once_per_model(self, make_session,
                                                    snapshots, hyps):
        """The acceptance check: a GROUP BY M.epoch sweep over 4 snapshots
        runs unit extraction once per (model, dataset) and hypothesis
        extraction once per hypothesis, across ALL groups."""
        ctx = make_session()
        frame = ctx.sql(SQL_ALL.format(
            measures="corr", tail="GROUP BY M.epoch"))
        assert len(frame) == len(snapshots) * len(LAYER0) * len(hyps)
        assert ctx.unit_cache.stats()["extractions"] == len(snapshots)
        assert ctx.hyp_cache.stats()["extractions"] == len(hyps)
        # every record cold exactly once per model / hypothesis: a
        # serial run counts them as misses, a shard-parallel run as
        # disk_hits (workers fill the cache through the store)
        unit_stats = ctx.unit_cache.stats()
        assert unit_stats["misses"] + unit_stats["disk_hits"] == \
            len(snapshots) * MAX_RECORDS
        hyp_stats = ctx.hyp_cache.stats()
        assert hyp_stats["misses"] + hyp_stats["disk_hits"] == \
            len(hyps) * MAX_RECORDS

        # a warm re-run touches the extractors zero further times — and
        # answers with the same frame
        warm = ctx.sql(SQL_ALL.format(measures="corr",
                                      tail="GROUP BY M.epoch"))
        assert warm == frame
        assert ctx.unit_cache.stats()["extractions"] == len(snapshots)
        assert ctx.hyp_cache.stats()["extractions"] == len(hyps)
        assert ctx.unit_cache.stats()["hits"] >= \
            len(snapshots) * MAX_RECORDS

    def test_identical_unit_sets_deduped_across_groups(self, make_session,
                                                       hyps):
        """GROUP BY H.name puts the same (model, unit-set) in every group;
        the shared plan must score it once, not once per group."""
        ctx = make_session()
        frame = ctx.sql("""
            SELECT S.mid, S.uid, S.hid, S.unit_score
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid AND M.mid = 'sweep_e0' AND U.layer = 0
            GROUP BY H.h
        """)
        # each group only carries its own hypothesis
        assert len(frame) == len(hyps) * len(LAYER0)
        assert ctx.unit_cache.stats()["extractions"] == 1

    def test_store_path_session_serves_fresh_process(self, make_session,
                                                     snapshots, tmp_path):
        """A session opened on a store path persists the epoch sweep; a
        second context (fresh caches, fresh store handle — a restarted
        process) serves the same sweep from the disk tier with zero
        extractor invocations and identical scores."""
        sql = SQL_ALL.format(measures="corr", tail="GROUP BY M.epoch")
        with make_session(store_path=str(tmp_path)) as ctx:
            cold = ctx.sql(sql)
            assert ctx.unit_cache.stats()["extractions"] == len(snapshots)
        with make_session(store_path=str(tmp_path)) as ctx2:
            warm = ctx2.sql(sql)
            unit_stats = ctx2.unit_cache.stats()
            assert unit_stats["extractions"] == 0
            assert unit_stats["disk_hits"] == len(snapshots) * MAX_RECORDS
            assert ctx2.hyp_cache.stats()["extractions"] == 0
        assert cold.rows() == warm.rows()

    def test_explicit_config_still_respected(self, make_session):
        """A pinned scheduler/cache config bypasses session defaults."""
        cfg = InspectConfig(mode="full", max_records=MAX_RECORDS,
                            scheduler="serial")
        session = make_session(config=cfg)
        assert isinstance(session.scheduler, SerialScheduler)
        assert session.effective_config().scheduler is session.scheduler
