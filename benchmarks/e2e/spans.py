"""A small in-memory span recorder for the traced run.

Spans wrap only calls the harness itself makes (session open, each
``register_*``, ``sql``, ``close``, ``client.query``, and the by-parts
replay's calls into each layer's public function).  They are kept in
memory and written to ``trace.jsonl`` when the run ends.  Spans inside the
program are a later issue.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path


class SpanRecorder:
    """Nested named spans; per-thread nesting, one shared list."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._null = contextlib.nullcontext()

    def span(self, name: str, stmt: str | None = None):
        """Context manager recording one span; a no-op when the recorder
        is disabled."""
        if not self.enabled:
            return self._null
        return self._record(name, stmt)

    @contextlib.contextmanager
    def _record(self, name: str, stmt: str | None):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            record = {"id": len(self.spans), "name": name,
                      "parent": stack[-1] if stack else None,
                      "stmt": stmt, "start": time.perf_counter(),
                      "end": None}
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
