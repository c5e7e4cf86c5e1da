"""Wall-clock instrumentation for the runtime-breakdown experiments.

Figure 8 of the paper splits DeepBase runtime into *unit extraction*,
*hypothesis extraction* and *inspection* costs.  The pipeline charges time to
named buckets through a :class:`Stopwatch`, so benches can report the same
breakdown without profiling machinery.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class Timer:
    """Context manager measuring one elapsed interval."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self._start = None


class Stopwatch:
    """Accumulates wall-clock time into named buckets.

    One stopwatch is shared by every query of a served session, so the
    read-modify-write of a bucket is locked.
    """

    def __init__(self) -> None:
        self.buckets: dict[str, float] = {}
        self._lock = threading.Lock()

    @contextmanager
    def charge(self, bucket: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.buckets[bucket] = self.buckets.get(bucket, 0.0) + elapsed

    def total(self) -> float:
        return sum(self.buckets.values())

    def breakdown(self) -> dict[str, float]:
        return dict(self.buckets)

    def reset(self) -> None:
        self.buckets.clear()
