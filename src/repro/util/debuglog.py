"""Observability hook for graceful-degradation fallbacks.

The repro layers degrade gracefully by design — a corrupt shard
re-extracts, an unserializable table stays memory-only.  Correct results
either way, but a *systematic* failure (every shard suddenly corrupt)
must not be invisible.  Every
broad except fallback therefore routes through :func:`degraded`, which

* logs on the ``repro.degrade`` logger (DEBUG by default, so quiet
  unless the host application opts in),
* counts per event name, queryable via :func:`degradation_counts` —
  tests assert on these instead of parsing logs — and as a
  ``degraded:<event>`` counter on the current trace span, if any,
* echoes to stderr when ``REPRO_DEBUG`` is set in the environment.

The static analyzer (REP005, ``silent-degradation``) enforces that broad
exception handlers call this hook (or re-raise).
"""

from __future__ import annotations

import logging
import os
import threading
from collections import Counter

from repro.util.trace import current

logger = logging.getLogger("repro.degrade")

_lock = threading.Lock()
_counts: Counter = Counter()


def degraded(event: str, detail: str = "", *,
             exc: BaseException | None = None) -> None:
    """Record that a graceful-degradation fallback was taken.

    ``event`` is a stable dotted name (``store.manifest-version``);
    ``detail`` carries instance specifics.  Pass the swallowed exception
    as ``exc`` so opted-in logging shows the cause.
    """
    with _lock:
        _counts[event] += 1
    current().count(f"degraded:{event}")
    message = f"degraded: {event}" + (f" ({detail})" if detail else "")
    if exc is not None:
        message += f" [{type(exc).__name__}: {exc}]"
    logger.debug(message)
    if os.environ.get("REPRO_DEBUG"):
        import sys
        print(message, file=sys.stderr)


def degradation_counts() -> dict[str, int]:
    """Snapshot of fallback counts per event since the last reset."""
    with _lock:
        return dict(_counts)


def reset_degradation_counts() -> None:
    with _lock:
        _counts.clear()
