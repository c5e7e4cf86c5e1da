"""REP008: extractor subclasses stay inside the one protocol.

A :class:`repro.extract.base.Extractor` subclass implements
``raw_states`` (plus ``n_units``); the base class derives the public
``extract``, the cached ``raw_rows``, the read-time view
``finalize_states`` every path ends in and the ``raw_key`` from it.  What
can still go wrong:

* overriding a derived method (``extract``/``raw_rows``/
  ``finalize_states``/``raw_key``) makes direct extraction, the cache tier
  and the store disagree about the same behaviors;
* ``raw_width`` and ``view_columns`` come as a pair: a wider raw sweep
  needs a column view and vice versa, or the view's width disagrees with
  ``n_units``;
* a subclass that defines no ``raw_states`` has no extraction path.

The hypothesis side of the protocol has one rule.  A
:class:`repro.hypotheses.base.HypothesisFunction` subclass either
implements per-record ``behavior`` or overrides ``extract`` with a block
kernel, and a block kernel is only trusted against a per-record
reference: every such subclass under ``src/`` must be named in the
``KERNEL_CLASSES`` table of ``tests/test_hypothesis_kernels.py``, the
differential oracle — and every class that defines the family kernel
``extract_block(self, members, ...)`` (siblings labelled in one pass) in
its ``FAMILY_CLASSES`` table.  (Files outside ``src/`` opt in with
``# analysis-scope: hypothesis-kernels``.)
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.astutil import classes, dotted_name, last_part, methods
from repro.analysis.driver import Checker, FileContext
from repro.analysis.registry import register

_DERIVED = ("extract", "raw_rows", "finalize_states", "raw_key")


#: the differential oracle and the class tables it keeps
ORACLE_TEST = Path("tests") / "test_hypothesis_kernels.py"
ORACLE_TABLE = "KERNEL_CLASSES"
FAMILY_TABLE = "FAMILY_CLASSES"


def _is_subclass_of(cls: ast.ClassDef, base_name: str) -> bool:
    return any(last_part(dotted_name(base)) == base_name
               for base in cls.bases)


def _oracle_classes(path: Path, table: str) -> set[str] | None:
    """Names in the oracle's class ``table``, read from the nearest ancestor
    of ``path`` that holds the oracle; None when there is no oracle."""
    for parent in path.resolve().parents:
        oracle = parent / ORACLE_TEST
        if not oracle.is_file():
            continue
        names: set[str] = set()
        for node in ast.parse(oracle.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                    dotted_name(t) == table for t in node.targets):
                names.update(last_part(dotted_name(ref))
                             for ref in ast.walk(node.value)
                             if isinstance(ref, (ast.Name, ast.Attribute)))
        return names
    return None


@register
class ExtractorProtocolChecker(Checker):
    id = "REP008"
    name = "extractor-protocol"
    description = ("Extractor subclasses implement raw_states and leave "
                   "the derived methods alone; hypothesis block kernels "
                   "must be listed in the differential oracle")
    hint = ("implement n_units + raw_states (plus raw_width + view_columns "
            "together when the sweep is wider); never override extract, "
            "raw_rows, finalize_states or raw_key")

    def visit_file(self, ctx: FileContext):
        yield from self._unlisted_kernels(ctx)
        for cls in classes(ctx.tree):
            if not _is_subclass_of(cls, "Extractor"):
                continue
            named = {fn.name: fn for fn in methods(cls)}
            for name in _DERIVED:
                if name in named:
                    yield self.finding(
                        ctx, named[name],
                        f"{cls.name} overrides {name}(), which the base "
                        f"class derives from raw_states(); direct, cached "
                        f"and stored behaviors would diverge")
            if "raw_width" in named and "view_columns" not in named:
                yield self.finding(
                    ctx, named["raw_width"],
                    f"{cls.name} widens raw_width() without "
                    f"view_columns(); its behaviors would be wider "
                    f"than n_units()")
            if "view_columns" in named and "raw_width" not in named:
                yield self.finding(
                    ctx, named["view_columns"],
                    f"{cls.name} selects view_columns() without "
                    f"raw_width(); raw_rows sizes buffers from the "
                    f"default (= n_units) and truncates the sweep")
            if "raw_states" not in named:
                yield self.finding(
                    ctx, cls,
                    f"{cls.name} defines no raw_states(); it has no "
                    f"extraction path")

    def _unlisted_kernels(self, ctx: FileContext):
        """Hypothesis block kernels the differential oracle does not list."""
        if not ctx.in_scope("src/", "hypothesis-kernels"):
            return
        kernels = [(cls, fn, ORACLE_TABLE,
                    "overrides extract() with a block kernel")
                   for cls in classes(ctx.tree)
                   if _is_subclass_of(cls, "HypothesisFunction")
                   for fn in methods(cls) if fn.name == "extract"]
        kernels += [(cls, fn, FAMILY_TABLE,
                     "defines the family kernel extract_block()")
                    for cls in classes(ctx.tree) for fn in methods(cls)
                    if fn.name == "extract_block"
                    and [a.arg for a in fn.args.args[1:2]] == ["members"]]
        tables = {table: _oracle_classes(ctx.path, table)
                  for table in {table for _, _, table, _ in kernels}}
        for cls, fn, table, what in kernels:
            listed = tables[table]
            if listed is not None and cls.name in listed:
                continue
            where = (f"missing from {table} in {ORACLE_TEST}"
                     if listed is not None
                     else f"and no {ORACLE_TEST} was found above it")
            yield self.finding(
                ctx, fn, f"{cls.name} {what} but is {where}",
                hint=f"keep the per-record body as the reference in "
                     f"{ORACLE_TEST} and add the class to {table}")
