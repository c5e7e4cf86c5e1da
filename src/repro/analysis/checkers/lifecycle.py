"""REP007: classes owning pools/mmaps/file handles must be closeable.

Leaked worker pools keep the interpreter alive after ``close()``; leaked
mmaps pin shard files that garbage collection believes it deleted; an
unclosed table storage keeps every segment it opened mapped.  Session
teardown (PR 5/6) is built on every resource-owning object exposing an
explicit lifecycle — this checker enforces it structurally.

Rule: a class whose methods create a long-lived OS resource —
``ThreadPoolExecutor``/``ProcessPoolExecutor``/``Pool``, ``open(...)``
assigned to an attribute, ``mmap.mmap``, ``np.load(..., mmap_mode=...)``,
``tempfile.mkdtemp`` — must define ``close()``, ``shutdown()`` or
``__exit__``.  Calls whose handle is scoped by a ``with`` statement don't
count: the block already bounds their lifetime.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import classes, dotted_name, last_part, methods
from repro.analysis.driver import Checker, FileContext
from repro.analysis.registry import register

_POOLS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Pool"}
_LIFECYCLE = {"close", "shutdown", "__exit__", "__del__", "release"}


def _resource_kind(node: ast.Call) -> str | None:
    name = dotted_name(node.func)
    short = last_part(name)
    if short in _POOLS:
        return f"a {short} worker pool"
    if short == "mkdtemp":
        return "an unmanaged temp directory (tempfile.mkdtemp)"
    if name == "mmap.mmap":
        return "an mmap"
    if short == "load":
        for kw in node.keywords:
            if kw.arg == "mmap_mode" and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is None):
                return "a memory-mapped array (np.load mmap_mode=...)"
    return None


@register
class LifecycleChecker(Checker):
    id = "REP007"
    name = "lifecycle"
    description = ("classes creating pools/mmaps/file handles must define "
                   "close()/shutdown()/__exit__")
    hint = ("add a close() (or shutdown()) releasing the resource, and "
            "call it from the owner's teardown path")

    def visit_file(self, ctx: FileContext):
        for cls in classes(ctx.tree):
            defined = {fn.name for fn in methods(cls)}
            if defined & _LIFECYCLE:
                continue
            with_scoped = set()
            for fn in methods(cls):
                for node in ast.walk(fn):
                    if isinstance(node, ast.With):
                        for item in node.items:
                            if isinstance(item.context_expr, ast.Call):
                                with_scoped.add(id(item.context_expr))
            reported: set[str] = set()
            for fn in methods(cls):
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call) \
                            or id(node) in with_scoped:
                        continue
                    kind = _resource_kind(node)
                    if kind is None and last_part(
                            dotted_name(node.func)) == "open":
                        kind = ("an open file handle"
                                if self._assigned_to_self(fn, node)
                                else None)
                    if kind is None or kind in reported:
                        continue
                    reported.add(kind)
                    yield self.finding(
                        ctx, node,
                        f"{cls.name}.{fn.name} creates {kind} but "
                        f"{cls.name} defines no close()/shutdown()/"
                        f"__exit__")

    @staticmethod
    def _assigned_to_self(fn: ast.FunctionDef, call: ast.Call) -> bool:
        """Whether ``call``'s result is stored on ``self`` (owned)."""
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and node.value is call:
                for target in node.targets:
                    name = dotted_name(target)
                    if name is not None and name.startswith("self."):
                        return True
        return False
