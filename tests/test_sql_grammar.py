"""The SQL grammar, pinned by one table.

Each row is ``(sql, expected)``.  ``expected`` is the parsed shape —
``(statement kind, FROM list, clauses present)`` — for a statement the
grammar accepts, ``SqlSyntaxError`` for a ``# FAIL`` row (nothing else may
escape the parser), or the exception *binding* raises for a statement that
parses but names something the catalog does not have (or names it twice).
Accepted SELECT rows also run on both engines with equal rows, multi-table
ones against their programmatic ``JOIN ... ON`` spelling too; bind-time
rows must fail before any relation is scanned.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import InspectConfig, Session
from repro.db import AmbiguousColumnError, Database, execute_select, parse_sql
from repro.db.executor import ENGINES, JoinSpec, SelectQuery
from repro.db.expr import BoolOp, Column, Compare
from repro.db.planner import flatten_and
from repro.db.relation import plan_catalog
from repro.db.sqlparser import InspectSpec, SqlSyntaxError
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.util.testing import CountingForwardModel

_CATALOG = "units U, hypotheses H, inputs D"
_INSPECT = "INSPECT U.uid AND H.h OVER D.seq AS S"


def select(tables: str, **clauses):
    return "select", _from_list(tables), clauses


def inspect(tables: str, using=("corr",), **clauses):
    return "inspect", _from_list(tables), dict(using=list(using), **clauses)


def _from_list(tables: str) -> list[tuple[str, str]]:
    return [tuple((entry.split() * 2)[:2]) for entry in tables.split(", ")]


GRAMMAR = [
    # -- SELECT list, FROM ---------------------------------------------
    ("SELECT uid FROM scores", select("scores")),
    ("select uid from scores", select("scores")),
    ("SELECT uid AS u, unit_score FROM scores s", select("scores s")),
    ("SELECT s.uid, count() AS n FROM scores s GROUP BY s.uid",
     select("scores s", group_by=1)),
    # -- multi-table FROM: with an edge, edge + a pushed predicate per
    #    side, no edge (cross product), and a fold order that leaves the
    #    FROM order (units joins models before scores can join anything)
    ("SELECT S.uid, U.layer FROM scores S, units U "
     "WHERE S.uid = U.uid ORDER BY S.unit_score DESC",
     select("scores S, units U", where=True,
            order_by=("S.unit_score", "desc"))),
    ("SELECT S.uid, S.hid, U.mid FROM scores S, units U "
     "WHERE S.uid = U.uid AND U.layer = 0 AND S.unit_score > 0.3",
     select("scores S, units U", where=True)),
    ("SELECT M.mid, H.h FROM models M, hypotheses H",
     select("models M, hypotheses H")),
    ("SELECT M.epoch, S.hid, U.layer FROM models M, scores S, units U "
     "WHERE M.mid = U.mid AND S.uid = U.uid AND S.unit_score < 0.9",
     select("models M, scores S, units U", where=True)),
    # -- INTO ------------------------------------------------------------
    ("SELECT uid, hid INTO top FROM scores WHERE unit_score > 0.5",
     select("scores", into="top", where=True)),
    ("SELECT uid INTO best FROM scores ORDER BY unit_score DESC LIMIT 2",
     select("scores", into="best", order_by=("unit_score", "desc"), limit=2)),
    # -- WHERE -----------------------------------------------------------
    ("SELECT uid FROM scores WHERE unit_score > 0.5 AND hid = 'kw:A' "
     "OR NOT uid = 2", select("scores", where=True)),
    ("SELECT uid FROM scores WHERE (unit_score >= 0.5 OR uid <> 1) "
     "AND uid != 0 AND uid <= 2 AND uid < 9", select("scores", where=True)),
    # -- GROUP BY / HAVING -----------------------------------------------
    ("SELECT hid, count() AS n, max(unit_score) AS top FROM scores "
     "GROUP BY hid HAVING n > 1", select("scores", group_by=1, having=True)),
    ("SELECT uid, hid, count() AS n FROM scores GROUP BY uid, hid",
     select("scores", group_by=2)),
    # -- ORDER BY / LIMIT ------------------------------------------------
    ("SELECT uid, unit_score FROM scores ORDER BY unit_score",
     select("scores", order_by=("unit_score", "asc"))),
    ("SELECT uid, unit_score FROM scores ORDER BY unit_score ASC",
     select("scores", order_by=("unit_score", "asc"))),
    ("SELECT uid, unit_score FROM scores ORDER BY unit_score DESC LIMIT 2",
     select("scores", order_by=("unit_score", "desc"), limit=2)),
    ("SELECT uid FROM scores ORDER BY unit_score DESC LIMIT 2",   # hidden key
     select("scores", order_by=("unit_score", "desc"), limit=2)),
    ("SELECT uid FROM scores LIMIT 0", select("scores", limit=0)),
    # -- INSPECT ---------------------------------------------------------
    (f"SELECT S.uid {_INSPECT} FROM {_CATALOG}", inspect(_CATALOG)),
    (f"SELECT S.uid INSPECT U.uid AND H.h USING corr, logreg OVER D.seq "
     f"AS S FROM {_CATALOG}", inspect(_CATALOG, using=("corr", "logreg"))),
    (f"SELECT S.uid AS uid INTO saved {_INSPECT} FROM {_CATALOG}",
     inspect(_CATALOG, into="saved")),
    ("SELECT M.epoch, S.uid INSPECT U.uid AND H.h USING corr OVER D.seq "
     "AS S FROM models M, units U, hypotheses H, inputs D "
     "WHERE M.mid = U.mid AND U.layer = 0 AND H.name = 'keywords' "
     "GROUP BY M.epoch HAVING S.unit_score > 0.8 "
     "ORDER BY S.unit_score DESC LIMIT 20",
     inspect("models M, units U, hypotheses H, inputs D", where=True,
             group_by=1, having=True, order_by=("S.unit_score", "desc"),
             limit=20)),

    # FAIL - LIMIT takes an integer literal
    ("SELECT uid FROM scores LIMIT 2.7", SqlSyntaxError),
    ("SELECT uid FROM scores LIMIT x", SqlSyntaxError),
    ("SELECT uid FROM scores LIMIT", SqlSyntaxError),
    # FAIL - trailing tokens
    ("SELECT uid FROM scores s garbage", SqlSyntaxError),
    ("SELECT uid FROM scores LIMIT 2 LIMIT 3", SqlSyntaxError),
    # FAIL - missing or misplaced FROM
    ("SELECT uid WHERE uid = 1", SqlSyntaxError),
    ("FROM scores SELECT uid", SqlSyntaxError),
    ("SELECT uid FROM", SqlSyntaxError),
    ("SELECT", SqlSyntaxError),
    # FAIL - ORDER BY takes a column name, not a position
    ("SELECT uid FROM scores ORDER BY 1", SqlSyntaxError),
    ("SELECT uid FROM scores ORDER unit_score", SqlSyntaxError),
    # FAIL - there is no unary minus
    ("SELECT uid FROM scores WHERE uid > -1", SqlSyntaxError),
    # FAIL - unterminated string
    ("SELECT uid FROM scores WHERE hid = 'kw:A", SqlSyntaxError),
    # FAIL - no star projection
    ("SELECT * FROM scores", SqlSyntaxError),
    # FAIL - dangling commas and half-written predicates
    ("SELECT uid, FROM scores", SqlSyntaxError),
    ("SELECT uid FROM scores,", SqlSyntaxError),
    ("SELECT uid FROM scores WHERE uid", SqlSyntaxError),
    ("SELECT uid FROM scores WHERE (uid = 1", SqlSyntaxError),
    ("SELECT count( FROM scores", SqlSyntaxError),
    ("SELECT uid FROM scores GROUP hid", SqlSyntaxError),
    ("SELECT uid FROM scores WHERE uid = @", SqlSyntaxError),
    # FAIL - INSPECT needs AND, OVER and AS
    (f"SELECT S.uid INSPECT U.uid AND H.h AS S FROM {_CATALOG}",
     SqlSyntaxError),
    (f"SELECT S.uid INSPECT U.uid OVER D.seq AS S FROM {_CATALOG}",
     SqlSyntaxError),
    (f"SELECT S.uid INSPECT U.uid AND H.h OVER D.seq FROM {_CATALOG}",
     SqlSyntaxError),
    (f"SELECT S.uid INSPECT U.uid AND H.h USING OVER D.seq AS S "
     f"FROM {_CATALOG}", SqlSyntaxError),

    # -- bind time: the statement parses, the catalog refuses it ---------
    ("SELECT S.uid FROM scores S, units S", ValueError),   # FROM alias twice
    ("SELECT uid AS a, hid AS a FROM scores", ValueError),  # output twice
    ("SELECT uid, uid FROM scores", ValueError),
    (f"SELECT S.uid AS a, S.hid AS a {_INSPECT} FROM {_CATALOG}",
     ValueError),
    ("SELECT U.uid INSPECT U.uid AND H.h OVER D.seq AS U "    # S named U
     f"FROM {_CATALOG}", ValueError),
    (f"SELECT count() AS n {_INSPECT} FROM {_CATALOG}", ValueError),
    ("SELECT uid FROM scores S, units U WHERE S.uid = U.uid",
     AmbiguousColumnError),
    ("SELECT S.hid FROM scores S, units U WHERE uid = 1",
     AmbiguousColumnError),
    ("SELECT S.hid FROM scores S, units U ORDER BY uid",
     AmbiguousColumnError),
    (f"SELECT uid {_INSPECT} FROM {_CATALOG}", AmbiguousColumnError),
    ("SELECT nope FROM scores", KeyError),
    ("SELECT s.nope FROM scores s", KeyError),
    ("SELECT scores.uid FROM scores s", KeyError),   # the alias hides it
    ("SELECT uid FROM scores ORDER BY nope", KeyError),
    ("SELECT uid FROM scores GROUP BY nope", KeyError),
    (f"SELECT S.uid {_INSPECT} FROM {_CATALOG} WHERE nope = 1", KeyError),
    ("SELECT uid FROM nowhere", KeyError),
    (f"SELECT S.uid {_INSPECT} FROM {_CATALOG}, nowhere N", KeyError),
]

ACCEPTED = [row for row in GRAMMAR if isinstance(row[1], tuple)]
FAIL = [row[0] for row in GRAMMAR if row[1] is SqlSyntaxError]
BIND_TIME = [row for row in GRAMMAR
             if not isinstance(row[1], tuple) and row[1] is not SqlSyntaxError]


def shape(parsed) -> tuple:
    clauses: dict = {}
    if parsed.into:
        clauses["into"] = parsed.into
    if isinstance(parsed, InspectSpec):
        clauses["using"] = parsed.measures
    if parsed.where is not None:
        clauses["where"] = True
    if parsed.group_by:
        clauses["group_by"] = len(parsed.group_by)
    if parsed.having is not None:
        clauses["having"] = True
    if parsed.order_by is not None:
        clauses["order_by"] = (parsed.order_by,
                               "desc" if parsed.descending else "asc")
    if parsed.limit is not None:
        clauses["limit"] = parsed.limit
    kind = "inspect" if isinstance(parsed, InspectSpec) else "select"
    return kind, list(parsed.tables), clauses


@pytest.fixture
def db() -> Database:
    db = Database()
    db.create_table("models", ["mid", "epoch"], [("m0", 0), ("m1", 1)])
    db.create_table("units", ["mid", "uid", "layer"],
                    [(mid, uid, uid % 2) for mid in ("m0", "m1")
                     for uid in range(3)])
    db.create_table("hypotheses", ["h", "name"],
                    [("kw:A", "keywords"), ("kw:B", "keywords")])
    db.create_table("inputs", ["did", "seq"], [("d0", "seq")])
    db.create_table("scores", ["uid", "hid", "unit_score"],
                    [(0, "kw:A", 0.5), (1, "kw:A", 0.9), (2, "kw:A", 0.1),
                     (0, "kw:B", 0.7), (1, "kw:B", 0.7), (2, "kw:B", 0.25)])
    return db


def on_spelling(query: SelectQuery) -> SelectQuery:
    """``query`` with each comma join's first WHERE edge moved into a
    programmatic ``JOIN ... ON`` (the statements here qualify every edge)."""
    conjuncts = flatten_and(query.where) if query.where is not None else []
    edges = plan_catalog(query.tables, query.where).edges
    in_scope = {query.alias or query.table}
    joins = []
    for join in query.joins:
        for a, b in edges:
            ends = {a.split(".")[0]: a, b.split(".")[0]: b}
            if join.alias in ends and ends.keys() - {join.alias} <= in_scope:
                edges.remove((a, b))
                conjuncts.remove(Compare("=", Column(a), Column(b)))
                right = ends.pop(join.alias)
                join = JoinSpec(join.table, join.alias, *ends.values(), right)
                break
        joins.append(join)
        in_scope.add(join.alias)
    return dataclasses.replace(
        query, joins=joins,
        where=BoolOp("and", conjuncts) if conjuncts else None)


@pytest.mark.parametrize("sql, expected", ACCEPTED)
def test_accepted_statement_has_the_expected_shape(sql, expected):
    assert shape(parse_sql(sql)) == expected


@pytest.mark.parametrize("sql", FAIL)
def test_fail_rows_raise_syntax_errors_and_nothing_else(sql):
    with pytest.raises(SqlSyntaxError):
        parse_sql(sql)


@pytest.mark.parametrize(
    "sql", [sql for sql, expected in ACCEPTED if expected[0] == "select"])
def test_accepted_select_runs_equal_on_both_engines(sql, db):
    query = parse_sql(sql)
    before = db.full_scans
    rows = execute_select(db, query, engine="columnar")
    assert db.full_scans - before == len(query.tables)
    assert execute_select(db, query, engine="row") == rows
    assert all(list(row) == [item.alias for item in query.items]
               for row in rows)
    if query.joins:
        spelled = on_spelling(query)
        for engine in ENGINES:
            assert execute_select(db, spelled, engine=engine) == rows, engine
    if query.into:
        assert db.table(query.into).columns == \
            [item.alias for item in query.items]
        assert len(db.table(query.into)) == len(rows)


def test_on_spelling_moves_edges_into_join_specs():
    spelled = on_spelling(parse_sql(
        "SELECT M.epoch FROM models M, scores S, units U "
        "WHERE M.mid = U.mid AND S.uid = U.uid AND S.unit_score < 0.9"))
    assert spelled.joins == [JoinSpec("scores", "S"),
                             JoinSpec("units", "U", "M.mid", "U.mid")]
    assert len(flatten_and(spelled.where)) == 2


def test_cross_product_comes_in_from_major_order(db):
    rows = execute_select(db, parse_sql(
        "SELECT M.mid, H.h FROM models M, hypotheses H"))
    assert [tuple(row.values()) for row in rows] == [
        ("m0", "kw:A"), ("m0", "kw:B"), ("m1", "kw:A"), ("m1", "kw:B")]


@pytest.mark.parametrize("sql, error", BIND_TIME)
def test_bind_time_rows_fail_before_any_scan(sql, error, db):
    parsed = parse_sql(sql)                         # the grammar accepts it
    before = (db.full_scans, db.index_scans)
    if isinstance(parsed, InspectSpec):
        with Session(db=db) as session, pytest.raises(error) as raised:
            session.sql(sql)
    else:
        for engine in ENGINES:
            with pytest.raises(error) as raised:
                execute_select(db, parsed, engine=engine)
    assert raised.type is error                     # not a subclass of it
    assert (db.full_scans, db.index_scans) == before


def test_duplicate_output_name_costs_no_forward_pass(trained_sql_model,
                                                     sql_workload):
    counting = CountingForwardModel(trained_sql_model)
    with Session(config=InspectConfig(max_records=40)) as session:
        session.register_model("m0", counting, epoch=0)
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(sql_keyword_hypotheses(("SELECT",)))
        scans = session.db.full_scans
        with pytest.raises(ValueError, match="duplicate output column 'a'"):
            session.sql("SELECT S.uid AS a, S.hid AS a INSPECT U.uid AND "
                        "H.h OVER D.seq AS S FROM models M, units U, "
                        "hypotheses H, inputs D WHERE M.mid = U.mid")
        with pytest.raises(ValueError, match="duplicate output column 'a'"):
            session.sql("SELECT mid AS a, epoch AS a FROM models")
        assert session.db.full_scans == scans
        assert counting.forward_calls == 0
        assert session.stats()["unit_cache"]["extractions"] == 0
