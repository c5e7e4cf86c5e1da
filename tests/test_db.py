"""Tests for the mini relational engine, SQL parser and INSPECT clause."""

import numpy as np
import pytest

from repro.db import Database, Table, execute_select, parse_sql
from repro.db.aggregates import AGGREGATES, get_aggregate
from repro.db.engine import MAX_EXPRESSIONS
from repro.db.executor import JoinSpec, SelectItem, SelectQuery
from repro.db.expr import (AggregateRef, Arith, BoolOp, Column, Compare,
                           Literal)
from repro.db.madlib import logregr_f1, logregr_train
from repro.db.sqlparser import InspectSpec, SqlSyntaxError, tokenize


@pytest.fixture
def db():
    database = Database()
    database.create_table("points", ["grp", "x", "y"], [
        ("a", 1.0, 2.0), ("a", 2.0, 4.0), ("a", 3.0, 6.0),
        ("b", 1.0, 3.0), ("b", 2.0, 1.0),
    ])
    database.create_table("labels", ["grp", "tag"],
                          [("a", "alpha"), ("b", "beta")])
    return database


class TestEngine:
    def test_insert_and_scan(self):
        t = Table("t", ["a", "b"])
        t.insert([1, 2])
        assert list(t.scan()) == [(1, 2)]

    def test_concurrent_readers_fold_buffered_rows_once(self):
        """A reader arriving while another folds a table's buffered rows
        finds them folded (a catalog ``SELECT`` raced this way and returned
        the one ``models`` row twice)."""
        import threading
        import time

        folding = threading.Event()
        seen = threading.local()

        class Buffer(list):
            def __len__(self):
                # the first reader's second look at the buffer is inside
                # its fold: hold it open while the second reader comes
                seen.n = getattr(seen, "n", 0) + 1
                if seen.n == 2 and not folding.is_set():
                    folding.set()
                    time.sleep(0.1)
                return super().__len__()

        t = Table("t", ["a"])
        t._buffer = Buffer([("m0",)])
        first = threading.Thread(target=t.column, args=("a",))
        first.start()
        assert folding.wait(5)
        second = threading.Thread(target=t.column, args=("a",))
        second.start()
        first.join(5)
        second.join(5)
        assert t.column("a").tolist() == ["m0"] and len(t) == 1

    def test_insert_during_a_row_view_build_is_not_hidden(self):
        """An insert landing while a reader builds the row view shows in
        the next scan: the build does not store a view that predates it."""
        import threading
        import time

        building = threading.Event()

        class Slow(np.ndarray):
            def tolist(self):
                building.set()
                time.sleep(0.1)
                return super().tolist()

        t = Table("t", ["a"], rows=[("m0",)])
        t._cols = [t._cols[0].view(Slow)]
        reader = threading.Thread(target=lambda: t.rows)
        reader.start()
        assert building.wait(5)
        t.insert(("m1",))
        reader.join(5)
        assert list(t.scan()) == [("m0",), ("m1",)] and len(t) == 2

    def test_arity_check(self):
        t = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            t.insert([1])

    def test_insert_many_refuses_a_batch_whole(self):
        """One bad-arity row refuses the batch: the rows before it do not
        land either, and the content stamp does not move."""
        t = Table("t", ["a", "b"], rows=[(1, 2)])
        version = t.version
        with pytest.raises(ValueError, match="arity"):
            t.insert_many([(3, 4), (5,)])
        assert list(t.scan()) == [(1, 2)] and len(t) == 1
        assert t.version == version

    def test_scan_counts_the_rows_it_read(self, monkeypatch):
        """A row inserted between a scan's read of the column arrays and
        its filter is not in the arrays, so it is not counted either (a
        SELECT racing an insert raised a broadcast error here)."""
        db = Database()
        db.create_table("t", ["x"], [(1,), (2,)])
        read = Table.column_arrays

        def read_then_insert(table):
            arrays = read(table)
            table.insert((3,))
            return arrays

        monkeypatch.setattr(Table, "column_arrays", read_then_insert)
        rows = execute_select(db, parse_sql("SELECT x FROM t WHERE x >= 0"))
        assert [r["x"] for r in rows] == [1, 2]

    def test_into_publishes_its_table_whole(self, db, monkeypatch):
        """``INTO`` publishes a table that already holds every row: a
        concurrent reader never finds it empty or partial."""
        published = []
        create = Database.create_table

        def record(database, name, *args, **kwargs):
            table = create(database, name, *args, **kwargs)
            published.append((name, list(table.scan())))
            return table

        monkeypatch.setattr(Database, "create_table", record)
        execute_select(db, parse_sql("SELECT x INTO scores FROM points"))
        assert published == [("scores", [(1.0,), (2.0,), (3.0,), (1.0,),
                                         (2.0,)])]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", ["a", "a"])

    def test_column_limit_enforced(self):
        with pytest.raises(ValueError, match="1600"):
            Table("wide", [f"c{i}" for i in range(MAX_EXPRESSIONS + 1)])

    def test_catalog_create_and_drop(self, db):
        db.create_table("tmp", ["x"])
        assert "tmp" in db.tables
        db.drop_table("tmp")
        assert "tmp" not in db.tables

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(ValueError):
            db.create_table("points", ["x"])

    def test_replace(self, db):
        db.create_table("points", ["x"], replace=True)
        assert db.table("points").columns == ["x"]

    def test_scan_counts_full_scans(self, db):
        before = db.full_scans
        list(db.scan("points"))
        assert db.full_scans == before + 1


class TestExpressions:
    def test_column_eval(self):
        assert Column("x").eval({"x": 5}) == 5

    def test_unbound_column(self):
        with pytest.raises(KeyError):
            Column("missing").eval({})

    def test_compare_ops(self):
        env = {"x": 3}
        assert Compare("<", Column("x"), Literal(5)).eval(env)
        assert not Compare("=", Column("x"), Literal(5)).eval(env)
        assert Compare("<>", Column("x"), Literal(5)).eval(env)

    def test_arith(self):
        assert Arith("*", Literal(3), Literal(4)).eval({}) == 12

    def test_bool_ops(self):
        t, f = Literal(True), Literal(False)
        true_cmp = Compare("=", t, t)
        false_cmp = Compare("=", t, f)
        assert BoolOp("and", [true_cmp, true_cmp]).eval({})
        assert not BoolOp("and", [true_cmp, false_cmp]).eval({})
        assert BoolOp("or", [false_cmp, true_cmp]).eval({})
        assert BoolOp("not", [false_cmp]).eval({})

    def test_columns_collected(self):
        expr = Compare("<", Column("a"), Arith("+", Column("b"), Literal(1)))
        assert expr.columns() == {"a", "b"}

    def test_aggregate_ref_refuses_row_eval(self):
        with pytest.raises(RuntimeError):
            AggregateRef("sum", [Column("x")]).eval({})


class TestAggregates:
    def test_corr_perfectly_linear(self):
        agg = get_aggregate("corr")
        state = agg.init()
        for x in range(10):
            state = agg.step(state, float(x), 2.0 * x + 1)
        assert agg.final(state) == pytest.approx(1.0)

    def test_corr_needs_two_rows(self):
        agg = get_aggregate("corr")
        state = agg.step(agg.init(), 1.0, 2.0)
        assert agg.final(state) is None

    def test_corr_constant_column_zero(self):
        agg = get_aggregate("corr")
        state = agg.init()
        for x in range(5):
            state = agg.step(state, 1.0, float(x))
        assert agg.final(state) == 0.0

    def test_simple_aggregates(self):
        for name, expected in [("sum", 6.0), ("avg", 2.0), ("min", 1.0),
                               ("max", 3.0)]:
            agg = get_aggregate(name)
            state = agg.init()
            for v in [1.0, 2.0, 3.0]:
                state = agg.step(state, v)
            assert agg.final(state) == expected

    def test_count(self):
        agg = get_aggregate("count")
        state = agg.init()
        for _ in range(4):
            state = agg.step(state)
        assert agg.final(state) == 4

    def test_unknown_aggregate(self):
        with pytest.raises(KeyError):
            get_aggregate("median")

    def test_registry_contents(self):
        assert {"corr", "sum", "avg", "count"} <= set(AGGREGATES)


class TestExecutor:
    def test_projection(self, db):
        q = SelectQuery(items=[SelectItem(Column("x"), "x")], table="points")
        rows = execute_select(db, q)
        assert [r["x"] for r in rows] == [1.0, 2.0, 3.0, 1.0, 2.0]

    def test_where_filter(self, db):
        q = SelectQuery(items=[SelectItem(Column("y"), "y")], table="points",
                        where=Compare(">", Column("x"), Literal(1.5)))
        assert len(execute_select(db, q)) == 3

    def test_group_by_aggregate(self, db):
        q = SelectQuery(
            items=[SelectItem(Column("grp"), "grp"),
                   SelectItem(AggregateRef("sum", [Column("y")]), "total")],
            table="points", group_by=[Column("grp")])
        rows = {r["grp"]: r["total"] for r in execute_select(db, q)}
        assert rows == {"a": 12.0, "b": 4.0}

    def test_corr_aggregate_in_query(self, db):
        q = SelectQuery(
            items=[SelectItem(AggregateRef("corr", [Column("x"),
                                                    Column("y")]), "r")],
            table="points",
            where=Compare("=", Column("grp"), Literal("a")))
        rows = execute_select(db, q)
        assert rows[0]["r"] == pytest.approx(1.0)

    def test_hash_join(self, db):
        q = SelectQuery(
            items=[SelectItem(Column("tag"), "tag"),
                   SelectItem(Column("x"), "x")],
            table="points", alias="P",
            joins=[JoinSpec(table="labels", alias="L",
                            left_col="P.grp", right_col="L.grp")])
        rows = execute_select(db, q)
        assert len(rows) == 5
        assert {r["tag"] for r in rows} == {"alpha", "beta"}

    def test_having(self, db):
        q = SelectQuery(
            items=[SelectItem(Column("grp"), "grp"),
                   SelectItem(AggregateRef("count", []), "n")],
            table="points", group_by=[Column("grp")],
            having=Compare(">", Column("n"), Literal(2)))
        rows = execute_select(db, q)
        assert [r["grp"] for r in rows] == ["a"]

    def test_order_and_limit(self, db):
        q = SelectQuery(items=[SelectItem(Column("y"), "y")], table="points",
                        order_by="y", descending=True, limit=2)
        assert [r["y"] for r in execute_select(db, q)] == [6.0, 4.0]

    def test_expression_limit(self, db):
        items = [SelectItem(Column("x"), f"x{i}")
                 for i in range(MAX_EXPRESSIONS + 1)]
        with pytest.raises(ValueError, match="batch"):
            execute_select(db, SelectQuery(items=items, table="points"))


class TestMadlibUda:
    def test_logregr_learns_separable_data(self):
        db = Database()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((400, 2))
        y = (x[:, 0] > 0).astype(float)
        db.create_table("data", ["x0", "x1", "y"],
                        [(float(a), float(b), float(c))
                         for (a, b), c in zip(x, y)])
        logregr_train(db, "data", "coefs", "y", ["x0", "x1"],
                      max_iter=40, lr=0.5)
        f1 = logregr_f1(db, "data", "coefs", "y", ["x0", "x1"])
        assert f1 > 0.9

    def test_one_scan_per_iteration(self):
        db = Database()
        db.create_table("data", ["x", "y"], [(1.0, 1.0), (-1.0, 0.0)])
        before = db.full_scans
        logregr_train(db, "data", "c", "y", ["x"], max_iter=7)
        assert db.full_scans - before == 7

    def test_coefficients_materialized(self):
        db = Database()
        db.create_table("data", ["x", "y"], [(1.0, 1.0), (-1.0, 0.0)])
        logregr_train(db, "data", "c", "y", ["x"], max_iter=2)
        names = [r[0] for r in db.table("c").rows]
        assert names == ["x", "__bias__"]

    def test_empty_table_rejected(self):
        db = Database()
        db.create_table("data", ["x", "y"])
        with pytest.raises(ValueError):
            logregr_train(db, "data", "c", "y", ["x"])


class TestSqlParser:
    def test_tokenize_keywords_and_names(self):
        toks = tokenize("SELECT x FROM t WHERE x = 'abc'")
        kinds = [t.kind for t in toks]
        assert kinds == ["keyword", "name", "keyword", "name", "keyword",
                         "name", "op", "string"]

    def test_tokenize_rejects_garbage(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @#$")

    def test_parse_plain_select(self):
        q = parse_sql("SELECT x, y AS why FROM t WHERE x > 3 "
                      "ORDER BY x DESC LIMIT 5")
        assert isinstance(q, SelectQuery)
        assert q.items[1].alias == "why"
        assert q.order_by == "x"
        assert q.descending
        assert q.limit == 5

    def test_parse_group_by_having(self):
        q = parse_sql("SELECT grp, count() AS n FROM t GROUP BY grp "
                      "HAVING n > 2")
        assert isinstance(q.items[1].expr, AggregateRef)
        assert q.having is not None

    def test_parse_inspect_clause(self):
        q = parse_sql("""
            SELECT M.epoch, S.uid
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid AND U.layer = 0
            GROUP BY M.epoch
            HAVING S.unit_score > 0.8
        """)
        assert isinstance(q, InspectSpec)
        assert q.unit_ref == "U.uid"
        assert q.hyp_ref == "H.h"
        assert q.measures == ["corr"]
        assert q.dataset_ref == "D.seq"
        assert q.inspect_alias == "S"
        assert len(q.tables) == 4

    def test_inspect_default_measure_is_corr(self):
        q = parse_sql("SELECT S.uid INSPECT U.uid AND H.h OVER D.seq AS S "
                      "FROM units U, hypotheses H, inputs D")
        assert q.measures == ["corr"]

    def test_inspect_keeps_order_by_and_limit(self):
        q = parse_sql("SELECT S.uid INSPECT U.uid AND H.h OVER D.seq AS S "
                      "FROM units U, hypotheses H, inputs D "
                      "ORDER BY S.unit_score DESC LIMIT 7")
        assert isinstance(q, InspectSpec)
        assert q.order_by == "S.unit_score"
        assert q.descending
        assert q.limit == 7

    def test_inspect_multiple_measures(self):
        q = parse_sql("SELECT S.uid INSPECT U.uid AND H.h "
                      "USING corr, logreg OVER D.seq AS S "
                      "FROM units U, hypotheses H, inputs D")
        assert q.measures == ["corr", "logreg"]

    def test_boolean_precedence(self):
        q = parse_sql("SELECT x FROM t WHERE a = 1 AND b = 2 OR c = 3")
        assert isinstance(q.where, BoolOp)
        assert q.where.op == "or"

    def test_parenthesized_predicate(self):
        q = parse_sql("SELECT x FROM t WHERE a = 1 AND (b = 2 OR c = 3)")
        assert q.where.op == "and"

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SqlSyntaxError, match="trailing"):
            parse_sql("SELECT x FROM t garbage garbage")

    def test_missing_from_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT x WHERE y = 1")

    def test_non_integral_limit_rejected(self):
        with pytest.raises(SqlSyntaxError, match="LIMIT expects an integer"):
            parse_sql("SELECT x FROM t LIMIT 2.7")
        assert parse_sql("SELECT x FROM t LIMIT 0").limit == 0
        assert parse_sql("SELECT x FROM t LIMIT 20").limit == 20


class TestInspectClause:
    @pytest.fixture
    def session(self, hand_built_session, trained_sql_model, sql_workload):
        from repro.core.pipeline import InspectConfig
        from repro.hypotheses import KeywordHypothesis

        hyps = [KeywordHypothesis("SELECT"), KeywordHypothesis("FROM")]
        db = Database()
        db.create_table("models", ["mid", "epoch"], [["sqlparser", 3]])
        db.create_table("units", ["mid", "uid", "layer"],
                        [["sqlparser", i, 0] for i in range(8)]
                        + [["sqlparser", i, 1] for i in range(8, 16)])
        db.create_table("hypotheses", ["h", "name"],
                        [[h.name, "keywords"] for h in hyps])
        db.create_table("inputs", ["did", "seq"], [["d0", "seq"]])
        return hand_built_session(
            db, models={"sqlparser": trained_sql_model}, hypotheses=hyps,
            datasets={"d0": sql_workload.dataset},
            config=InspectConfig(mode="full", max_records=40))

    def test_paper_query_shape(self, session):
        frame = session.sql("""
            SELECT M.epoch, S.uid, S.hid, S.unit_score
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid AND M.mid = 'sqlparser' AND U.layer = 0
            GROUP BY M.epoch
        """)
        assert len(frame) == 8 * 2  # layer-0 units x hypotheses
        assert set(frame["M.epoch"]) == {3}

    def test_layer_filter_changes_units(self, session):
        frame = session.sql("""
            SELECT S.uid
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid AND U.layer = 1
        """)
        assert set(frame["S.uid"]) == set(range(8, 16))

    def test_having_filters_scores(self, session):
        frame = session.sql("""
            SELECT S.uid, S.unit_score
            INSPECT U.uid AND H.h USING corr OVER D.seq AS S
            FROM models M, units U, hypotheses H, inputs D
            WHERE M.mid = U.mid
            HAVING S.unit_score > 0.1
        """)
        assert all(v > 0.1 for v in frame["S.unit_score"])

    def test_plain_query_runs_on_select_engine(self, session):
        frame = session.sql("SELECT mid, epoch FROM models")
        assert frame.rows() == [{"mid": "sqlparser", "epoch": 3}]
