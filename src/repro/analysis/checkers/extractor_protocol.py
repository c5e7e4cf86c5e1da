"""REP008: extractor override sets must be protocol-coherent.

:class:`repro.extract.base.Extractor` supports two shapes of subclass:
*opaque* extractors override :meth:`extract` wholesale, *raw-capable*
ones override :meth:`raw_states` and inherit batching/views.  The methods
are interdependent — ``supports_raw`` keys off ``raw_states``,
``raw_rows`` sizes buffers from ``raw_width``, ``finalize_rows`` maps
the view through ``view_columns`` — so an incomplete override set
produces an extractor that *works in direct mode but silently corrupts
the cache* (wrong raw width, views applied to the wrong columns).

Coherence rules over the set of overridden names:

* raw-protocol methods (``finalize_rows``/``raw_rows``/``raw_key``/
  ``view_states``/``raw_width``/``view_columns``) require ``raw_states``
  — without it ``supports_raw`` is False and they never run;
* ``raw_width`` and ``view_columns`` come as a pair: a wider raw sweep
  needs a column view and vice versa, or cached finalize_rows width
  disagrees with direct-mode ``n_units``;
* ``view_states`` requires ``view_columns`` for the same width reason;
* overriding both ``extract`` and ``raw_states`` mixes the opaque and
  raw-capable shapes — ``extract`` bypasses the view pipeline while the
  cache path does not;
* a custom ``view_attrs`` only means anything for raw-capable
  extractors (it parameterizes views over the raw sweep);
* a subclass overriding neither ``extract`` nor ``raw_states`` has no
  extraction path at all.

The hypothesis side of the protocol has one rule.  A
:class:`repro.hypotheses.base.HypothesisFunction` subclass either
implements per-record ``behavior`` or overrides ``extract`` with a block
kernel, and a block kernel is only trusted against a per-record
reference: every such subclass under ``src/`` must be named in the
``KERNEL_CLASSES`` table of ``tests/test_hypothesis_kernels.py``, the
differential oracle.  (Files outside ``src/`` opt in with
``# analysis-scope: hypothesis-kernels``.)
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.astutil import classes, dotted_name, last_part, methods
from repro.analysis.driver import Checker, FileContext
from repro.analysis.registry import register

_RAW_ONLY = ("finalize_rows", "raw_rows", "raw_key", "view_states",
             "raw_width", "view_columns")


#: the differential oracle and the class table it keeps
ORACLE_TEST = Path("tests") / "test_hypothesis_kernels.py"
ORACLE_TABLE = "KERNEL_CLASSES"


def _is_subclass_of(cls: ast.ClassDef, base_name: str) -> bool:
    return any(last_part(dotted_name(base)) == base_name
               for base in cls.bases)


def _oracle_classes(path: Path) -> set[str] | None:
    """Names in the oracle's class table, read from the nearest ancestor
    of ``path`` that holds the oracle; None when there is no oracle."""
    for parent in path.resolve().parents:
        oracle = parent / ORACLE_TEST
        if not oracle.is_file():
            continue
        names: set[str] = set()
        for node in ast.parse(oracle.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                    dotted_name(t) == ORACLE_TABLE for t in node.targets):
                names.update(last_part(dotted_name(ref))
                             for ref in ast.walk(node.value)
                             if isinstance(ref, (ast.Name, ast.Attribute)))
        return names
    return None


@register
class ExtractorProtocolChecker(Checker):
    id = "REP008"
    name = "extractor-protocol"
    description = ("Extractor subclasses must override a coherent set of "
                   "the raw-sweep protocol methods; hypothesis block "
                   "kernels must be listed in the differential oracle")
    hint = ("raw-capable extractors override raw_states (plus raw_width + "
            "view_columns together when the sweep is wider); opaque ones "
            "override only extract")

    def visit_file(self, ctx: FileContext):
        yield from self._unlisted_kernels(ctx)
        for cls in classes(ctx.tree):
            if not _is_subclass_of(cls, "Extractor"):
                continue
            named = {fn.name: fn for fn in methods(cls)}
            over = set(named)
            has_view_attrs = any(
                isinstance(stmt, (ast.Assign, ast.AnnAssign))
                and "view_attrs" in self._targets(stmt)
                for stmt in cls.body)
            raw = "raw_states" in over

            if not raw:
                for name in _RAW_ONLY:
                    if name in over:
                        yield self.finding(
                            ctx, named[name],
                            f"{cls.name} overrides {name}() without "
                            f"raw_states(); supports_raw stays False so "
                            f"it never runs")
                if has_view_attrs:
                    yield self.finding(
                        ctx, cls,
                        f"{cls.name} customizes view_attrs without "
                        f"raw_states(); view attributes only parameterize "
                        f"raw-capable extractors")
            if raw and "extract" in over:
                yield self.finding(
                    ctx, named["extract"],
                    f"{cls.name} overrides both extract() and "
                    f"raw_states(); the opaque extract() bypasses the "
                    f"view pipeline the cache path still uses")
            if raw:
                if "raw_width" in over and "view_columns" not in over:
                    yield self.finding(
                        ctx, named["raw_width"],
                        f"{cls.name} widens raw_width() without "
                        f"view_columns(); direct-mode width would differ "
                        f"from finalized cache rows")
                if "view_columns" in over and "raw_width" not in over:
                    yield self.finding(
                        ctx, named["view_columns"],
                        f"{cls.name} selects view_columns() without "
                        f"raw_width(); raw_rows sizes buffers from the "
                        f"default (= n_units) and truncates the sweep")
                if "view_states" in over and "view_columns" not in over:
                    yield self.finding(
                        ctx, named["view_states"],
                        f"{cls.name} overrides view_states() without "
                        f"view_columns(); finalize_rows would replay the "
                        f"full-width raw sweep instead of the view")
            if not raw and "extract" not in over:
                yield self.finding(
                    ctx, cls,
                    f"{cls.name} overrides neither extract() nor "
                    f"raw_states(); it has no extraction path")

    def _unlisted_kernels(self, ctx: FileContext):
        """Hypothesis block kernels the differential oracle does not list."""
        if not ctx.in_scope("src/", "hypothesis-kernels"):
            return
        kernels = [(cls, fn) for cls in classes(ctx.tree)
                   if _is_subclass_of(cls, "HypothesisFunction")
                   for fn in methods(cls) if fn.name == "extract"]
        if not kernels:
            return
        listed = _oracle_classes(ctx.path)
        for cls, fn in kernels:
            if listed is not None and cls.name in listed:
                continue
            where = (f"missing from {ORACLE_TABLE} in {ORACLE_TEST}"
                     if listed is not None
                     else f"and no {ORACLE_TEST} was found above it")
            yield self.finding(
                ctx, fn,
                f"{cls.name} overrides extract() with a block kernel "
                f"but is {where}",
                hint=f"keep the per-record body as the reference in "
                     f"{ORACLE_TEST} and add the class to {ORACLE_TABLE}")

    @staticmethod
    def _targets(stmt: ast.stmt) -> set[str]:
        if isinstance(stmt, ast.AnnAssign):
            name = dotted_name(stmt.target)
            return {name} if name else set()
        if isinstance(stmt, ast.Assign):
            return {dotted_name(t) for t in stmt.targets
                    if dotted_name(t) is not None}
        return set()
