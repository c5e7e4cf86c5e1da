"""REP002: lock-order consistency and no callbacks under a held lock.

The cache tiers and the disk store each nest locks (e.g. the store's
in-process ``self._lock`` around the inter-process
``self._dir.locked()``).  Deadlock safety rests on two hand-enforced
rules this checker makes static:

* **One global acquisition order.**  Build the per-class lock graph —
  an edge A -> B whenever B is acquired (lexically, or via a same-class
  method call one level deep) while A is held — and flag any cycle.  A
  self-edge is the degenerate case: re-acquiring a non-reentrant
  ``threading.Lock`` the caller already holds deadlocks instantly.
* **No user callbacks under a lock.**  Calling a function that arrived
  as a *parameter* while holding a lock hands lock-holding control to
  arbitrary user code, which can re-enter the cache and deadlock (or
  block every other reader for an unbounded time).

A ``with`` item counts as a lock when its expression mentions ``lock``
(``self._lock``, ``self._dir.locked()``, ...); multi-item withs acquire
left to right.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.astutil import (classes, dotted_name, methods,
                                    param_names, walk_scope)
from repro.analysis.driver import Checker, FileContext
from repro.analysis.registry import register

_LOCKISH = re.compile(r"lock", re.IGNORECASE)


def _lock_label(expr: ast.AST) -> str | None:
    """Normalized lock name for a with-item, or None if not a lock."""
    if isinstance(expr, ast.Call):
        inner = _lock_label(expr.func)
        return f"{inner}()" if inner is not None else None
    name = dotted_name(expr)
    if name is None or not _LOCKISH.search(name):
        return None
    if name.startswith("self."):
        name = name[len("self."):]
    return name


@register
class LockOrderChecker(Checker):
    id = "REP002"
    name = "lock-order"
    description = ("lock acquisition graph must be cycle-free; no "
                   "callbacks invoked while holding a lock")
    hint = ("acquire locks in one global order everywhere (or release "
            "before re-entering); move callback invocations outside the "
            "locked region")

    def __init__(self):
        # (class node id) -> acquired lock labels, per method
        self._edges: dict[tuple[str, str], tuple[str, int, int]] = {}

    def visit_file(self, ctx: FileContext):
        for cls in classes(ctx.tree):
            yield from self._check_class(ctx, cls)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef):
        prefix = f"{cls.name}."
        # pass 1: which locks does each method acquire directly?
        direct: dict[str, set[str]] = {}
        for fn in methods(cls):
            acquired = set()
            for node in walk_scope(fn):
                if isinstance(node, ast.With):
                    for item in node.items:
                        label = _lock_label(item.context_expr)
                        if label is not None:
                            acquired.add(label)
            direct[fn.name] = acquired
        # pass 2: edges from nesting and same-class calls under a lock
        for fn in methods(cls):
            params = param_names(fn) - {"self", "cls"}
            for node in walk_scope(fn):
                if not isinstance(node, ast.With):
                    continue
                held = [_lock_label(item.context_expr)
                        for item in node.items]
                held = [label for label in held if label is not None]
                if not held:
                    continue
                # multi-item with: left acquires before right
                for first, second in zip(held, held[1:]):
                    self._add_edge(ctx, prefix, first, second, node)
                outermost = held[0]
                for inner in ast.walk(node):
                    if inner is node:
                        continue
                    if isinstance(inner, ast.With):
                        for item in inner.items:
                            label = _lock_label(item.context_expr)
                            if label is not None:
                                self._add_edge(ctx, prefix, outermost,
                                               label, inner)
                    if isinstance(inner, ast.Call):
                        callee = dotted_name(inner.func)
                        if callee is None:
                            continue
                        if callee in params:
                            yield self.finding(
                                ctx, inner,
                                f"callback parameter {callee!r} of "
                                f"{cls.name}.{fn.name} is invoked while "
                                f"holding {prefix}{outermost}")
                        if callee.startswith("self."):
                            method = callee[len("self."):]
                            for label in direct.get(method, ()):
                                self._add_edge(ctx, prefix, outermost,
                                               label, inner)

    def _add_edge(self, ctx: FileContext, prefix: str, src: str, dst: str,
                  node: ast.AST) -> None:
        edge = (prefix + src, prefix + dst)
        if edge not in self._edges:
            self._edges[edge] = (ctx.display_path, node.lineno,
                                 node.col_offset)

    def finalize(self):
        graph: dict[str, set[str]] = {}
        for src, dst in self._edges:
            graph.setdefault(src, set()).add(dst)
            graph.setdefault(dst, set())
        # self-edges: immediate deadlock on a non-reentrant Lock
        reported: set[frozenset] = set()
        for (src, dst), (path, line, col) in sorted(self._edges.items(),
                                                    key=lambda kv: kv[1]):
            if src == dst:
                key = frozenset((src,))
                if key not in reported:
                    reported.add(key)
                    yield self._cycle_finding(
                        path, line, col,
                        f"{src} is re-acquired while already held "
                        f"(deadlock on a non-reentrant Lock)")
        for cycle in self._cycles(graph):
            key = frozenset(cycle)
            if len(cycle) < 2 or key in reported:
                continue
            reported.add(key)
            edge = (cycle[0], cycle[1])
            path, line, col = self._edges.get(
                edge, next(iter(self._edges.values())))
            chain = " -> ".join([*cycle, cycle[0]])
            yield self._cycle_finding(
                path, line, col,
                f"inconsistent lock order: {chain} (some code path "
                f"acquires these locks in the opposite order)")

    def _cycle_finding(self, path: str, line: int, col: int, message: str):
        from repro.analysis.findings import Finding
        return Finding(checker=self.id, name=self.name, path=path,
                       line=line, col=col, message=message, hint=self.hint)

    @staticmethod
    def _cycles(graph: dict[str, set[str]]) -> list[list[str]]:
        """Elementary cycles via DFS (graphs here are tiny)."""
        cycles: list[list[str]] = []
        for start in sorted(graph):
            stack = [(start, [start])]
            while stack:
                node, trail = stack.pop()
                for nxt in sorted(graph.get(node, ())):
                    if nxt == start and len(trail) > 1:
                        cycles.append(list(trail))
                    elif nxt not in trail and nxt > start:
                        # only walk nodes ordered after start: each cycle
                        # is then found exactly once, from its minimum
                        stack.append((nxt, trail + [nxt]))
        return cycles
