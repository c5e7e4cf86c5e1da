"""REP005: silent-degradation hygiene for broad exception fallbacks.

The store and planner layers degrade gracefully by design: a corrupt
shard re-extracts, an unserializable table goes memory-only.  The danger
is *silent* degradation — an ``except Exception:`` whose body just
passes, continues or returns turns a real regression (every shard
suddenly corrupt; every table failing to encode) into an invisible slow
path that still produces correct results, so nothing ever surfaces it.

Rule: a handler catching ``Exception``/``BaseException`` (or a bare
``except:``) must either re-raise or route through an observability
call — the :func:`repro.util.debuglog.degraded` hook (or logging/
warnings/print).  Typed handlers (``except OSError:``) are exempt: they
document the one failure they absorb.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.astutil import dotted_name, last_part
from repro.analysis.driver import Checker, FileContext
from repro.analysis.registry import register

_BROAD = {"Exception", "BaseException"}
_OBSERVABLE_CALL = re.compile(
    r"degrad|warn|print|debug|info|error|exception|critical|fail|record"
    r"|^log", re.IGNORECASE)


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for node in types:
        if last_part(dotted_name(node)) in _BROAD:
            return True
    return False


def _is_observable(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            name = last_part(dotted_name(node.func))
            if name and _OBSERVABLE_CALL.search(name):
                return True
    return False


@register
class SilentDegradationChecker(Checker):
    id = "REP005"
    name = "silent-degradation"
    description = ("except Exception fallbacks must re-raise or call the "
                   "repro.util.debuglog.degraded hook")
    hint = ("call repro.util.debuglog.degraded('<event>', detail, exc=exc) "
            "in the handler (or narrow the except to the one expected "
            "exception type)")

    def visit_file(self, ctx: FileContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node) or _is_observable(node):
                continue
            caught = ("bare except" if node.type is None
                      else f"except {ast.unparse(node.type)}")
            yield self.finding(
                ctx, node,
                f"{caught} degrades silently (no raise and no "
                f"degraded()/logging call in the handler)")
