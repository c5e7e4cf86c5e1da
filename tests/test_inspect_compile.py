"""INSPECT compilation: how the joined catalog splits into group workloads.

The compiler factorizes the catalog's model, hypothesis and dataset key
columns into first-seen codes and splits rows by GROUP BY group; these
tests pin what that must keep: a group spanning two datasets is refused,
hypotheses and models come out in catalog (first-seen) order rather than
sorted order, and the benchmark's two statement shapes give the frames
recorded before the compiler worked on codes.
"""

from __future__ import annotations

import pytest

from repro import InspectConfig
from repro.db import Database
from repro.hypotheses import KeywordHypothesis
from repro.nn import CharLSTMModel
from repro.util.rng import new_rng

# (mid, epoch) in catalog order: neither mids nor epochs sorted
MODELS = [("m_c", 2), ("m_a", 0), ("m_b", 1)]
KEYWORDS = ("WHERE", "FROM", "SELECT")   # registered unsorted too
N_UNITS = 3

EPOCH = ("SELECT M.epoch AS epoch, S.uid AS uid, S.hid AS hid, "
         "S.unit_score AS unit_score "
         "INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
         "FROM models M, units U, hypotheses H, inputs D "
         "WHERE M.mid = U.mid {extra}GROUP BY M.epoch")


@pytest.fixture
def make_session(hand_built_session, small_sql_workload):
    """``make_session(dids)``: untrained models over a hand-built catalog
    whose ``inputs`` table lists ``dids`` (each the same dataset)."""
    vocab = len(small_sql_workload.vocab)
    models = {mid: CharLSTMModel(vocab, n_units=N_UNITS,
                                 rng=new_rng(60 + epoch), model_id=mid)
              for mid, epoch in MODELS}
    hyps = [KeywordHypothesis(k) for k in KEYWORDS]

    def make(dids=("d0",)):
        db = Database()
        db.create_table("models", ["mid", "epoch"],
                        [list(row) for row in MODELS])
        db.create_table("units", ["mid", "uid"],
                        [[mid, u] for mid, _ in MODELS
                         for u in range(N_UNITS)])
        db.create_table("hypotheses", ["h"], [[h.name] for h in hyps])
        db.create_table("inputs", ["did", "seq"],
                        [[did, "seq"] for did in dids])
        return hand_built_session(
            db, models=models, hypotheses=hyps,
            datasets={did: small_sql_workload.dataset for did in dids},
            config=InspectConfig(mode="full", max_records=60))
    return make


def test_group_spanning_two_datasets_is_refused(make_session):
    session = make_session(dids=("d0", "d1"))
    with pytest.raises(ValueError,
                       match=r"one dataset per group, got \['d0', 'd1'\]"):
        session.sql(EPOCH.format(extra=""))


def test_hypotheses_and_models_keep_first_seen_order(make_session):
    session = make_session()
    frame = session.sql(EPOCH.format(extra=""))
    n = len(KEYWORDS) * N_UNITS
    assert list(frame["epoch"]) == [e for _, e in MODELS for _ in range(n)]
    hids = [f"kw:{k}" for k in KEYWORDS for _ in range(N_UNITS)]
    assert list(frame["hid"]) == hids * len(MODELS)
    assert list(frame["uid"]) == list(range(N_UNITS)) * (
        len(KEYWORDS) * len(MODELS))
    # one group holding every model: models in catalog order too
    frame = session.sql(
        "SELECT S.mid INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
        "FROM models M, units U, hypotheses H, inputs D "
        "WHERE M.mid = U.mid")
    assert list(frame["S.mid"]) == [m for m, _ in MODELS for _ in range(n)]


# unit_score per frame row, as recorded before the compiler factorized the
# catalog (rows in (epoch, hid, uid) order as the frames lay them out); the
# tolerance admits another BLAS kernel's summation order, nothing more
RECORDED_EPOCH = [
    (2, 0, "kw:WHERE", 0.029489870519744457),
    (2, 1, "kw:WHERE", -0.10306533188430667),
    (2, 2, "kw:WHERE", 0.20482214381115457),
    (2, 0, "kw:FROM", -0.02179338757661408),
    (2, 1, "kw:FROM", 0.03213787037376077),
    (2, 2, "kw:FROM", 0.014950683039987858),
    (2, 0, "kw:SELECT", 0.10348603989067624),
    (2, 1, "kw:SELECT", -0.15431554412116466),
    (2, 2, "kw:SELECT", 0.037326620358343096),
    (0, 0, "kw:WHERE", -0.12168952586789208),
    (0, 1, "kw:WHERE", -0.003000793863049182),
    (0, 2, "kw:WHERE", 0.046155959219409674),
    (0, 0, "kw:FROM", -0.04720393311243865),
    (0, 1, "kw:FROM", 0.18439090028932456),
    (0, 2, "kw:FROM", 0.15872707694370566),
    (0, 0, "kw:SELECT", 0.03960288684850739),
    (0, 1, "kw:SELECT", -0.03406807074519584),
    (0, 2, "kw:SELECT", -0.23049152602540968),
    (1, 0, "kw:WHERE", 0.014380366844903446),
    (1, 1, "kw:WHERE", -0.15607611678661812),
    (1, 2, "kw:WHERE", -0.04478452139237822),
    (1, 0, "kw:FROM", 0.22379280193095594),
    (1, 1, "kw:FROM", 0.13698330102547301),
    (1, 2, "kw:FROM", -0.00023793705532222068),
    (1, 0, "kw:SELECT", -0.4646141713329606),
    (1, 1, "kw:SELECT", -0.09828918326696255),
    (1, 2, "kw:SELECT", 0.2573264659531648),
]
RECORDED_ONE = [
    (1, 0, "kw:WHERE", 0.014380366844903446),
    (1, 1, "kw:WHERE", -0.15607611678661812),
    (1, 2, "kw:WHERE", -0.04478452139237822),
    (1, 0, "kw:FROM", 0.22379280193095594),
    (1, 1, "kw:FROM", 0.13698330102547301),
    (1, 2, "kw:FROM", -0.00023793705532222068),
    (1, 0, "kw:SELECT", -0.4646141713329606),
    (1, 1, "kw:SELECT", -0.09828918326696255),
    (1, 2, "kw:SELECT", 0.2573264659531648),
]


@pytest.mark.parametrize("extra, recorded", [
    ("", RECORDED_EPOCH),
    ("AND M.epoch = 1 ", RECORDED_ONE),
], ids=["inspect_epoch", "inspect_one"])
def test_frames_match_the_recorded_ones(make_session, extra, recorded):
    frame = make_session().sql(EPOCH.format(extra=extra))
    rows = list(zip(frame["epoch"], frame["uid"], frame["hid"]))
    assert rows == [r[:3] for r in recorded]
    assert list(frame["unit_score"]) == pytest.approx(
        [r[3] for r in recorded], rel=1e-9, abs=1e-12)
