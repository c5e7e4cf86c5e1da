"""REP006: counter-reset symmetry between stats() and reset_counters().

``reset_counters()`` is the before/after primitive: "this query extracted
nothing" is asserted by zeroing a tier's counters and reading ``stats()``
afterwards.  That only means something while every attribute
``reset_counters()`` zeroes is a key ``stats()`` reports — resetting
something unreported hints at a renamed counter, whose reads then see a
running total where a reset was meant.

Gauges (``entries``, ``bytes``, ...) live only in ``stats()`` and are
unconstrained.  ``reset_counters`` implementations that delegate to a
same-class helper (``_reset_counters_locked``) are followed one level.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import classes, dotted_name, methods
from repro.analysis.driver import Checker, FileContext
from repro.analysis.registry import register


def _stats_keys(fn: ast.FunctionDef) -> set[str] | None:
    """String keys stats() reports, or None when not statically knowable."""
    keys: set[str] = set()
    knowable = False
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            knowable = True
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value,
                                                                str):
                    keys.add(key.value)
        # out["key"] = ... accumulation style
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.slice, ast.Constant) \
                        and isinstance(target.slice.value, str):
                    knowable = True
                    keys.add(target.slice.value)
    return keys if knowable else None


def _zeroed_attrs(fn: ast.FunctionDef,
                  class_methods: dict[str, ast.FunctionDef],
                  _depth: int = 1) -> set[str]:
    """Attributes assigned a zero constant, following one self-call level."""
    zeroed: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Constant) \
                and node.value.value in (0, 0.0):
            for target in node.targets:
                name = dotted_name(target)
                if name is not None and name.startswith("self."):
                    zeroed.add(name[len("self."):])
        if _depth > 0 and isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is not None and callee.startswith("self."):
                helper = class_methods.get(callee[len("self."):])
                if helper is not None and helper is not fn:
                    zeroed |= _zeroed_attrs(helper, class_methods,
                                            _depth - 1)
    return zeroed


@register
class CounterResetSymmetryChecker(Checker):
    id = "REP006"
    name = "counter-reset-symmetry"
    description = "reset_counters() must zero only counters stats() reports"
    hint = "report every resettable counter from stats()"

    def visit_file(self, ctx: FileContext):
        for cls in classes(ctx.tree):
            named = {fn.name: fn for fn in methods(cls)}
            stats = named.get("stats")
            reset = named.get("reset_counters")
            if stats is None or reset is None:
                continue
            stats_keys = _stats_keys(stats)
            if stats_keys is None:
                continue
            missing = sorted(_zeroed_attrs(reset, named) - stats_keys)
            if missing:
                yield self.finding(
                    ctx, reset,
                    f"{cls.name}.reset_counters zeroes {missing} but "
                    f"stats() never reports them")
