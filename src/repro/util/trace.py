"""Ambient trace spans: where a statement spends its time.

    with tracing("statement") as root:
        session.sql("SELECT ... INSPECT ...")
    root.totals()    # {span name: {"calls": n, "total_s": s, "hits": ...}}

A :func:`span` attaches to whatever span is current in its context; with
none current — nobody wrapped the call in :func:`tracing` — it is one shared
no-op: a ``ContextVar.get``, no allocation.  There is no switch: wrapping a
call *is* tracing it.  No span is held open across a ``yield`` (the root
belongs to whoever consumes the block generators), and closing one keeps no
``ContextVar`` token: it puts back the span that was current when it opened,
and only where it is still current itself, so a generator finalised in
another context leaves that context alone.  Pool threads see the submitter's
span through the scheduler's one ``copy_context()`` site; a thread handed a
span opens ``Span(name, parent)``; another process's time is ``attach``-ed.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar

_CURRENT: ContextVar["Span | None"] = ContextVar("repro.trace", default=None)

#: counters of one span may be moved by several pool threads at once
_COUNT_LOCK = threading.Lock()


class Span:
    """One named interval with its child spans and counters."""

    __slots__ = ("name", "parent", "children", "counters", "start", "end",
                 "_outer")

    def __init__(self, name: str, parent: "Span | None" = None):
        self.name = name
        self.parent = parent
        self.children: list[Span] = []
        self.counters: dict[str, int] = {}
        self.start, self.end = 0.0, None   # end stays None while open

    def __enter__(self) -> "Span":
        if self.parent is not None:
            self.parent.children.append(self)
        self._outer = _CURRENT.get()
        _CURRENT.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        if _CURRENT.get() is self:
            _CURRENT.set(self._outer)

    @property
    def duration(self) -> float:
        """Seconds from open to close (to now, while still open)."""
        end = time.perf_counter() if self.end is None else self.end
        return end - self.start

    def count(self, name: str, n: int = 1) -> None:
        with _COUNT_LOCK:
            self.counters[name] = self.counters.get(name, 0) + n

    def attach(self, name: str, seconds: float) -> None:
        """Add a closed child measured elsewhere (a worker process)."""
        child = Span(name, self)
        child.end = seconds
        self.children.append(child)

    def walk(self):
        """This span and every descendant, parents first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def totals(self) -> dict[str, dict]:
        """``{name: {"calls", "total_s", **counters}}`` over the whole tree."""
        out: dict[str, dict] = {}
        for node in self.walk():
            entry = out.setdefault(node.name, {"calls": 0, "total_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += node.duration
            for name, n in node.counters.items():
                entry[name] = entry.get(name, 0) + n
        return out


class _NoSpan:
    """What :func:`span` and :func:`current` return when nothing traces."""

    __slots__ = ()
    __exit__ = count = attach = lambda self, *args: None

    def __enter__(self) -> "_NoSpan":
        return self


_NO_SPAN = _NoSpan()


def tracing(name: str) -> Span:
    """A span opened whether or not one is current: a trace's root."""
    return Span(name, _CURRENT.get())


def span(name: str, *detail: str):
    """A child ``name`` (``name[detail, ...]``) of the current span, or the
    shared no-op when there is none."""
    parent = _CURRENT.get()
    if parent is None:
        return _NO_SPAN
    return Span(f"{name}[{', '.join(detail)}]" if detail else name, parent)


def current():
    """The span counters should land on (the no-op when nothing traces)."""
    return _CURRENT.get() or _NO_SPAN
