"""REP001: fsync-before-rename commit discipline in the storage layers.

Both durable stores in this repo (the behavior store and the relational
engine's table storage, which share one format and one publish helper,
``repro.store.segment.published``) hinge on the same two-step protocol:
write + ``fsync`` the payload, *then* publish it with one atomic
``os.rename``/``os.replace``.  Renaming without a reachable fsync
in the same function means a crash can publish a name whose bytes never
hit the disk — the manifest would point at garbage and every
"recovers to the last commit" guarantee dies silently.

Scope: files whose path mentions ``store`` or ``storage`` (or that
declare ``# analysis-scope: store``).  Rule: every ``os.rename`` /
``os.replace`` call must be preceded, earlier in the same function, by an
``os.fsync``/``.fsync()`` call (or a call to a local helper that is
itself fsync-disciplined, e.g. ``_atomic_write_bytes``).
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import call_name, functions, last_part, walk_scope
from repro.analysis.driver import Checker, FileContext
from repro.analysis.registry import register

_RENAMES = {"os.rename", "os.replace"}


@register
class AtomicCommitChecker(Checker):
    id = "REP001"
    name = "atomic-commit"
    description = ("os.rename/os.replace publishing storage state must be "
                   "preceded by fsync in the same function")
    hint = ("fsync the payload file object (and flush first) before the "
            "rename that publishes it")

    def visit_file(self, ctx: FileContext):
        if not ctx.in_scope("store", "storage"):
            return
        # local helpers that themselves pass the discipline count as
        # fsync-carrying calls for their callers (one level deep)
        disciplined = set()
        for fn in functions(ctx.tree):
            if self._has_fsync_before(fn, stop_line=None):
                disciplined.add(fn.name)
        scopes = list(functions(ctx.tree))
        for fn in scopes:
            yield from self._check_scope(ctx, fn, disciplined)
        yield from self._check_scope(ctx, ctx.tree, disciplined,
                                     module=True)

    def _check_scope(self, ctx: FileContext, scope, disciplined: set[str],
                     module: bool = False):
        for node in walk_scope(scope):
            if module and node is not scope and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            if callee not in _RENAMES:
                continue
            if self._has_fsync_before(scope, stop_line=node.lineno,
                                      disciplined=disciplined):
                continue
            target = (ast.unparse(node.args[1]) if len(node.args) > 1
                      else "its target")
            yield self.finding(
                ctx, node,
                f"{callee} publishes {target} without a reachable fsync "
                f"earlier in the same function")

    @staticmethod
    def _has_fsync_before(scope, stop_line: int | None,
                          disciplined: set[str] = frozenset()) -> bool:
        for node in walk_scope(scope):
            if not isinstance(node, ast.Call):
                continue
            if stop_line is not None and node.lineno >= stop_line:
                continue
            callee = call_name(node)
            if last_part(callee) == "fsync":
                return True
            if callee is not None and last_part(callee) in disciplined:
                return True
        return False
