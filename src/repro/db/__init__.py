"""A miniature relational engine (PostgreSQL/MADLib substitute).

Implements just enough of an RDBMS to host the paper's DB-oriented DNI
baseline (Section 5.1.1) and the ``INSPECT`` SQL extension (Appendix B):
columnar tables (numpy column arrays), expression evaluation, filters, hash
joins, hash group-by with aggregates (including ``corr``), an
expression-count limit per SELECT clause (PostgreSQL's 1,600 default, which
forces the baseline to batch), and MADLib-style training UDAs that perform
one full table pass per optimization step.

``execute_select`` runs on one of two engines: the vectorized ``columnar``
default, or the original row-at-a-time Volcano interpreter
(``engine="row"``), retained for differential testing and for reproducing
the paper's baseline cost profile.
"""

from repro.db.aggregates import AGGREGATES
from repro.db.engine import Database, Table
from repro.db.executor import (DEFAULT_ENGINE, ENGINES, SelectQuery, bind,
                               execute_select)
from repro.db.expr import AmbiguousColumnError
from repro.db.inspect_clause import run_inspect_spec
from repro.db.madlib import logregr_predict, logregr_train
from repro.db.planner import plan_scan
from repro.db.sqlparser import parse_sql
from repro.db.storage import SortedIndex, TableStorage

__all__ = [
    "AGGREGATES",
    "AmbiguousColumnError",
    "DEFAULT_ENGINE",
    "ENGINES",
    "Database",
    "SelectQuery",
    "SortedIndex",
    "Table",
    "TableStorage",
    "bind",
    "execute_select",
    "plan_scan",
    "logregr_predict",
    "logregr_train",
    "parse_sql",
    "run_inspect_spec",
]
