"""Executor engine tests: columnar storage, shared SQL edge cases, and the
row-vs-columnar differential suite."""

import numpy as np
import pytest

from repro.db import Database, Table, execute_select
from repro.db.aggregates import AGGREGATES
from repro.db.executor import (DEFAULT_ENGINE, ENGINES, JoinSpec, SelectItem,
                               SelectQuery)
from repro.db.expr import (AggregateRef, AmbiguousColumnError, Arith, BoolOp,
                           Column, Compare, Literal)
from repro.db.madlib import logregr_f1, logregr_train

ENGINE_PARAMS = pytest.mark.parametrize("engine", list(ENGINES))


@pytest.fixture
def db():
    database = Database()
    database.create_table("points", ["grp", "x", "y"], [
        ("a", 1.0, 2.0), ("a", 2.0, 4.0), ("a", 3.0, 6.0),
        ("b", 1.0, 3.0), ("b", 2.0, 1.0),
    ])
    database.create_table("labels", ["grp", "tag"],
                          [("a", "alpha"), ("c", "gamma")])
    return database


def assert_rows_equal(got, expected):
    assert len(got) == len(expected), (got, expected)
    for row_got, row_exp in zip(got, expected):
        assert set(row_got) == set(row_exp), (row_got, row_exp)
        for key in row_exp:
            v_got, v_exp = row_got[key], row_exp[key]
            if isinstance(v_exp, float) and v_got is not None:
                assert v_got == pytest.approx(v_exp, rel=1e-9, abs=1e-12), key
            else:
                assert v_got == v_exp, (key, row_got, row_exp)


class TestColumnarTable:
    def test_columns_are_numpy_arrays(self, db):
        table = db.table("points")
        assert isinstance(table.column("x"), np.ndarray)
        assert table.column("x").dtype == np.float64
        assert table.column("grp").dtype == object
        np.testing.assert_allclose(table.column("x"),
                                   [1.0, 2.0, 3.0, 1.0, 2.0])

    def test_int_columns_stay_integer(self):
        t = Table("t", ["k"], [(1,), (2,), (3,)])
        assert t.column("k").dtype == np.int64
        assert t.rows == [(1,), (2,), (3,)]

    def test_insert_flushes_into_columns(self):
        t = Table("t", ["a", "b"])
        t.insert([1, "x"])
        t.insert([2, "y"])
        assert len(t) == 2
        np.testing.assert_array_equal(t.column("a"), [1, 2])
        assert list(t.scan()) == [(1, "x"), (2, "y")]
        t.insert([3, "z"])
        assert t.column("b").tolist() == ["x", "y", "z"]

    def test_constructor_checks_arity(self):
        with pytest.raises(ValueError, match="arity"):
            Table("t", ["a", "b"], [(1, 2), (3,)])

    def test_scan_columns_counts_a_pass(self, db):
        before = db.full_scans
        cols = db.scan_columns("points", ["x", "y"])
        assert db.full_scans == before + 1
        assert len(cols) == 2


class TestAggregateStepBatch:
    @pytest.mark.parametrize("name", sorted(AGGREGATES))
    def test_step_batch_matches_row_stepping(self, name):
        agg = AGGREGATES[name]
        if agg.step_batch is None:
            pytest.skip(f"{name} has no vectorized path")
        rng = np.random.default_rng(3)
        values = rng.standard_normal(101)
        other = 0.5 * values + rng.standard_normal(101)

        state_row = agg.init()
        for i in range(values.shape[0]):
            if agg.n_args == 0:
                state_row = agg.step(state_row)
            elif agg.n_args == 1:
                state_row = agg.step(state_row, float(values[i]))
            else:
                state_row = agg.step(state_row, float(values[i]),
                                     float(other[i]))

        state_batch = agg.init()
        if agg.n_args == 0:
            state_batch = agg.step_batch(state_batch, np.arange(101))
        elif agg.n_args == 1:
            state_batch = agg.step_batch(state_batch, values)
        else:
            state_batch = agg.step_batch(state_batch, values, other)

        assert agg.final(state_batch) == pytest.approx(
            agg.final(state_row), rel=1e-9)


@ENGINE_PARAMS
class TestSharedEdgeCases:
    def test_unknown_engine_rejected(self, db, engine):
        q = SelectQuery(items=[SelectItem(Column("x"), "x")], table="points")
        with pytest.raises(ValueError, match="unknown engine"):
            execute_select(db, q, engine="volcano")

    def test_having_on_aggregate_alias(self, db, engine):
        q = SelectQuery(
            items=[SelectItem(Column("grp"), "grp"),
                   SelectItem(AggregateRef("sum", [Column("y")]), "total")],
            table="points", group_by=[Column("grp")],
            having=Compare(">", Column("total"), Literal(5.0)))
        rows = execute_select(db, q, engine=engine)
        assert_rows_equal(rows, [{"grp": "a", "total": 12.0}])

    def test_join_drops_unmatched_keys(self, db, engine):
        # labels has no "b" key and an extra "c" key: inner join keeps only
        # the three "a" rows
        q = SelectQuery(
            items=[SelectItem(Column("tag"), "tag"),
                   SelectItem(Column("x"), "x")],
            table="points", alias="P",
            joins=[JoinSpec(table="labels", alias="L",
                            left_col="P.grp", right_col="L.grp")])
        rows = execute_select(db, q, engine=engine)
        assert_rows_equal(rows, [{"tag": "alpha", "x": 1.0},
                                 {"tag": "alpha", "x": 2.0},
                                 {"tag": "alpha", "x": 3.0}])

    def test_join_duplicate_right_keys_fan_out(self, engine):
        db2 = Database()
        db2.create_table("l", ["k", "v"], [(1, "p"), (2, "q")])
        db2.create_table("r", ["k", "w"], [(1, 10.0), (1, 20.0), (3, 30.0)])
        q = SelectQuery(
            items=[SelectItem(Column("v"), "v"),
                   SelectItem(Column("w"), "w")],
            table="l", alias="L",
            joins=[JoinSpec(table="r", alias="R",
                            left_col="L.k", right_col="R.k")])
        rows = execute_select(db2, q, engine=engine)
        assert_rows_equal(rows, [{"v": "p", "w": 10.0},
                                 {"v": "p", "w": 20.0}])

    def test_order_by_limit(self, db, engine):
        q = SelectQuery(items=[SelectItem(Column("y"), "y")], table="points",
                        order_by="y", limit=3)
        rows = execute_select(db, q, engine=engine)
        assert [r["y"] for r in rows] == [1.0, 2.0, 3.0]

    def test_order_by_unprojected_column(self, db, engine):
        # the key rides as a hidden output column and is dropped: through
        # the vectorized sort, and through the row-at-a-time NULL-safe
        # sort an object-dtype key needs
        db.create_table("t", ["g", "v"],
                        [("a", 2.0), ("b", None), ("c", 3.0), ("d", 1.0)])
        for table, col, key, expected in [
                ("points", "grp", "y", ["a", "a", "b"]),
                ("t", "g", "v", ["b", "c", "a"])]:   # NULLS FIRST descending
            q = SelectQuery(items=[SelectItem(Column(col), "name")],
                            table=table, order_by=key, descending=True,
                            limit=3)
            assert execute_select(db, q, engine=engine) == \
                [{"name": name} for name in expected]

    def test_ambiguous_bare_name_raises(self, db, engine):
        q = SelectQuery(
            items=[SelectItem(Column("grp"), "grp")],
            table="points", alias="P",
            joins=[JoinSpec(table="labels", alias="L",
                            left_col="P.grp", right_col="L.grp")])
        with pytest.raises(AmbiguousColumnError, match="grp"):
            execute_select(db, q, engine=engine)

    def test_duplicate_output_names_rejected(self, db, engine):
        q = SelectQuery(items=[SelectItem(Column("x"), "v"),
                               SelectItem(Column("y"), "v")], table="points")
        before = db.full_scans
        with pytest.raises(ValueError, match="duplicate output column 'v'"):
            execute_select(db, q, engine=engine)
        assert db.full_scans == before

    def test_query_edited_between_runs_is_rebound(self, db, engine):
        # the bound form kept on the query must never outlive the statement
        # it was bound from: every field is read afresh after an edit
        q = SelectQuery(items=[SelectItem(Column("y"), "y")], table="points",
                        order_by="y", limit=3)

        def ys():
            return [r["y"] for r in execute_select(db, q, engine=engine)]

        assert ys() == [1.0, 2.0, 3.0]
        first = q.bound
        assert ys() == [1.0, 2.0, 3.0] and q.bound is first  # bound once
        q.limit = 2
        assert ys() == [1.0, 2.0]
        q.descending = True
        assert ys() == [6.0, 4.0]
        q.where = Compare("<", Column("x"), Literal(2.5))
        assert ys() == [4.0, 3.0]
        q.order_by = "x"                      # now a hidden key
        assert ys() == [4.0, 1.0]
        q.items.append(SelectItem(Column("grp"), "grp"))   # edited in place
        assert execute_select(db, q, engine=engine) == \
            [{"y": 4.0, "grp": "a"}, {"y": 1.0, "grp": "b"}]
        q.joins.append(JoinSpec(table="labels", alias="L",
                                left_col="points.grp", right_col="L.grp"))
        with pytest.raises(AmbiguousColumnError, match="grp"):
            execute_select(db, q, engine=engine)

    def test_order_by_tolerates_none(self, engine):
        # corr over a single-row group is NULL; sorting on it must not raise
        db2 = Database()
        db2.create_table("t", ["g", "x", "y"], [
            ("a", 1.0, 2.0), ("a", 2.0, 3.0), ("b", 5.0, 1.0),
        ])
        q = SelectQuery(
            items=[SelectItem(Column("g"), "g"),
                   SelectItem(AggregateRef("corr", [Column("x"),
                                                    Column("y")]), "r")],
            table="t", group_by=[Column("g")], order_by="r")
        rows = execute_select(db2, q, engine=engine)
        assert [r["g"] for r in rows] == ["a", "b"]  # NULLS LAST ascending
        assert rows[1]["r"] is None
        desc = execute_select(
            db2, SelectQuery(items=q.items, table="t",
                             group_by=q.group_by, order_by="r",
                             descending=True), engine=engine)
        assert desc[0]["r"] is None  # NULLS FIRST descending

    def test_empty_input_aggregates_yield_one_row(self, engine):
        db2 = Database()
        db2.create_table("t", ["x", "y"])
        q = SelectQuery(
            items=[SelectItem(AggregateRef("count", []), "n"),
                   SelectItem(AggregateRef("sum", [Column("x")]), "s"),
                   SelectItem(AggregateRef("corr", [Column("x"),
                                                    Column("y")]), "r")],
            table="t")
        rows = execute_select(db2, q, engine=engine)
        assert rows == [{"n": 0, "s": None, "r": None}]

    def test_having_drops_empty_aggregate_null_row(self, engine):
        # HAVING over the synthesized NULL aggregate row must filter it
        # out, not raise a TypeError comparing None with a float
        db2 = Database()
        db2.create_table("t", ["x"])
        q = SelectQuery(
            items=[SelectItem(AggregateRef("sum", [Column("x")]), "s")],
            table="t", having=Compare(">", Column("s"), Literal(5.0)))
        assert execute_select(db2, q, engine=engine) == []

    def test_nan_join_keys_never_match(self, engine):
        nan = float("nan")
        db2 = Database()
        db2.create_table("l", ["k", "v"], [(nan, "a"), (2.0, "b")])
        db2.create_table("r", ["k", "w"], [(nan, 1.0), (2.0, 2.0)])
        q = SelectQuery(
            items=[SelectItem(Column("v"), "v"),
                   SelectItem(Column("w"), "w")],
            table="l", alias="L",
            joins=[JoinSpec(table="r", alias="R",
                            left_col="L.k", right_col="R.k")])
        rows = execute_select(db2, q, engine=engine)
        assert_rows_equal(rows, [{"v": "b", "w": 2.0}])

    def test_nan_group_keys_each_form_own_group(self, engine):
        # parity with the row engine's dict keying: nan != nan, so every
        # NaN key row is its own group
        nan = float("nan")
        db2 = Database()
        db2.create_table("t", ["g", "x"], [(nan, 1.0), (nan, 2.0), (1.0, 3.0)])
        q = SelectQuery(
            items=[SelectItem(AggregateRef("count", []), "n"),
                   SelectItem(AggregateRef("sum", [Column("x")]), "s")],
            table="t", group_by=[Column("g")])
        rows = execute_select(db2, q, engine=engine)
        assert sorted((r["n"], r["s"]) for r in rows) == \
            [(1, 1.0), (1, 2.0), (1, 3.0)]

    def test_having_typeerror_on_nonnull_row_propagates(self, db, engine):
        # a genuinely buggy HAVING (int vs str) must raise, not silently
        # drop rows
        q = SelectQuery(
            items=[SelectItem(Column("grp"), "grp"),
                   SelectItem(AggregateRef("count", []), "n")],
            table="points", group_by=[Column("grp")],
            having=Compare(">", Column("n"), Literal("3")))
        with pytest.raises(TypeError):
            execute_select(db, q, engine=engine)

    def test_fully_filtered_aggregates_yield_one_row(self, db, engine):
        q = SelectQuery(
            items=[SelectItem(AggregateRef("count", []), "n"),
                   SelectItem(AggregateRef("avg", [Column("x")]), "m")],
            table="points",
            where=Compare(">", Column("x"), Literal(100.0)))
        rows = execute_select(db, q, engine=engine)
        assert rows == [{"n": 0, "m": None}]

    def test_empty_input_with_group_by_yields_no_rows(self, engine):
        db2 = Database()
        db2.create_table("t", ["g", "x"])
        q = SelectQuery(
            items=[SelectItem(Column("g"), "g"),
                   SelectItem(AggregateRef("count", []), "n")],
            table="t", group_by=[Column("g")])
        assert execute_select(db2, q, engine=engine) == []

    def test_multi_key_group_by(self, engine):
        db2 = Database()
        db2.create_table("t", ["g", "k", "x"], [
            ("a", 1, 1.0), ("a", 1, 2.0), ("a", 2, 4.0), ("b", 1, 8.0),
        ])
        q = SelectQuery(
            items=[SelectItem(Column("g"), "g"), SelectItem(Column("k"), "k"),
                   SelectItem(AggregateRef("sum", [Column("x")]), "s")],
            table="t", group_by=[Column("g"), Column("k")])
        rows = execute_select(db2, q, engine=engine)
        assert_rows_equal(rows, [{"g": "a", "k": 1, "s": 3.0},
                                 {"g": "a", "k": 2, "s": 4.0},
                                 {"g": "b", "k": 1, "s": 8.0}])

    def test_projection_with_arithmetic(self, db, engine):
        q = SelectQuery(
            items=[SelectItem(Arith("+", Column("x"),
                                    Arith("*", Column("y"), Literal(2.0))),
                              "z")],
            table="points",
            where=BoolOp("or", [Compare("=", Column("grp"), Literal("b")),
                                Compare(">=", Column("y"), Literal(6.0))]))
        rows = execute_select(db, q, engine=engine)
        assert [r["z"] for r in rows] == [15.0, 7.0, 4.0]


def _random_query(rng) -> SelectQuery:
    where = None
    if rng.random() < 0.6:
        preds = [Compare(str(rng.choice(["<", "<=", ">", ">="])), Column("x"),
                         Literal(float(rng.uniform(-1.5, 1.5))))]
        if rng.random() < 0.5:
            preds.append(Compare(
                "=" if rng.random() < 0.5 else "<>", Column("grp"),
                Literal(str(rng.choice(["a", "b", "c"])))))
        where = preds[0] if len(preds) == 1 else \
            BoolOp(str(rng.choice(["and", "or"])), preds)

    joins = []
    if rng.random() < 0.5:
        joins.append(JoinSpec(table="r", alias="R",
                              left_col="T.k", right_col="R.k"))
    elif rng.random() < 0.5:
        # comma join: the edge (if any) and per-side predicates ride in
        # WHERE; with no edge it is the cross product
        joins.append(JoinSpec(table="r", alias="R"))
        shape = str(rng.choice(["edge", "edge + pushed", "cross product"]))
        conjuncts = [] if where is None else [where]
        if shape != "cross product":
            conjuncts.append(Compare("=", Column("T.k"), Column("R.k")))
        if shape == "edge + pushed":
            conjuncts += [Compare(">", Column("R.w"), Literal(-0.5)),
                          Compare("<", Column("T.y"), Literal(0.8))]
        where = BoolOp("and", conjuncts) if conjuncts else None

    if rng.random() < 0.6:  # aggregate query
        group_by = [Column("grp")] if rng.random() < 0.7 else \
            [Column("grp"), Column("T.k")]
        items = [SelectItem(Column("grp"), "grp"),
                 SelectItem(AggregateRef("count", []), "n"),
                 SelectItem(AggregateRef("sum", [Column("x")]), "sx"),
                 SelectItem(AggregateRef("avg", [Column("y")]), "my"),
                 SelectItem(AggregateRef("corr", [Column("x"), Column("y")]),
                            "r"),
                 SelectItem(AggregateRef("min", [Column("x")]), "mn"),
                 SelectItem(AggregateRef("max", [Column("y")]), "mx")]
        having = Compare(">", Column("n"), Literal(int(rng.integers(0, 4)))) \
            if rng.random() < 0.5 else None
        order_by = "n" if rng.random() < 0.5 else None
    else:
        group_by, having = [], None
        items = [SelectItem(Column("grp"), "grp"),
                 SelectItem(Arith("-", Column("x"), Column("y")), "d"),
                 SelectItem(Arith("*", Column("x"), Literal(3.0)), "x3")]
        order_by = None
    limit = int(rng.integers(1, 6)) if rng.random() < 0.4 else None
    return SelectQuery(items=items, table="t", alias="T", joins=joins,
                       where=where, group_by=group_by, having=having,
                       order_by=order_by,
                       descending=bool(rng.random() < 0.5), limit=limit)


class TestDifferential:
    """The acceptance gate: both engines agree on randomized queries."""

    @pytest.mark.parametrize("seed", range(40))
    def test_engines_agree(self, seed):
        rng = np.random.default_rng(seed)
        db = Database()
        n = int(rng.integers(0, 60))
        db.create_table(
            "t", ["grp", "k", "x", "y"],
            [(str(rng.choice(["a", "b", "c"])), int(rng.integers(0, 4)),
              float(rng.standard_normal()), float(rng.standard_normal()))
             for _ in range(n)])
        db.create_table(
            "r", ["k", "w"],
            [(int(rng.integers(0, 5)), float(rng.standard_normal()))
             for _ in range(int(rng.integers(0, 8)))])
        query = _random_query(rng)
        columnar = execute_select(db, query, engine="columnar")
        row = execute_select(db, query, engine="row")
        assert_rows_equal(columnar, row)

    def test_default_engine_is_columnar(self):
        assert DEFAULT_ENGINE == "columnar"


class TestMadlibEngines:
    def _make_db(self):
        db = Database()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 3))
        y = (x @ np.array([1.5, -2.0, 0.5]) > 0).astype(float)
        db.create_table("data", ["x0", "x1", "x2", "y"],
                        [(float(a), float(b), float(c), float(d))
                         for (a, b, c), d in zip(x, y)])
        return db

    def test_logreg_engines_agree(self):
        cols = ["x0", "x1", "x2"]
        db_col = self._make_db()
        w_col = logregr_train(db_col, "data", "c", "y", cols, max_iter=10,
                              engine="columnar")
        db_row = self._make_db()
        w_row = logregr_train(db_row, "data", "c", "y", cols, max_iter=10,
                              engine="row")
        np.testing.assert_allclose(w_col, w_row, atol=1e-9)
        f1_col = logregr_f1(db_col, "data", "c", "y", cols, engine="columnar")
        f1_row = logregr_f1(db_row, "data", "c", "y", cols, engine="row")
        assert f1_col == pytest.approx(f1_row)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_one_pass_per_iteration_both_engines(self, engine):
        db = self._make_db()
        before = db.full_scans
        logregr_train(db, "data", "c", "y", ["x0"], max_iter=5, engine=engine)
        assert db.full_scans - before == 5
