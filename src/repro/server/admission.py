"""Admission control: per-client quotas and fair dispatch.

The server multiplexes every client onto one shared
:class:`~repro.session.Session`, so the resource that needs protecting
is the bounded worker pool queries execute on.  Three layers:

* **Quotas** — each client may hold at most ``per_client_inflight``
  running queries and ``per_client_queue`` waiting ones; beyond that,
  submission raises :class:`QuotaExceeded` and the caller returns a
  structured ``rejected`` error frame instead of queueing unboundedly.
* **Fair dispatch** — waiting queries dispatch round-robin *across
  clients* (one pick per client per rotation), so a tenant that submits
  a burst of 100 queries cannot starve a tenant that submits one.
* **Bounded execution** — at most ``max_concurrent`` queries run at
  once, on a dedicated thread pool (session queries are blocking CPU
  work; they must not run on the event loop).

Jobs carry a ``threading.Event`` cancel flag.  Cancelling a *queued*
job drops it before it ever runs; cancelling a *running* streamed query
is observed by the streaming worker between frames (see
``app._stream_worker``), which abandons the session generator — the
scheduler work stops at the next block boundary.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.server import protocol


class QuotaExceeded(Exception):
    """A client exceeded its admission quota; carries the error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class _Job:
    client: str
    fn: Callable[[threading.Event], Any]
    future: "asyncio.Future"
    cancel_event: threading.Event = field(default_factory=threading.Event)


class _ClientState:
    __slots__ = ("queue", "in_flight", "counters")

    def __init__(self) -> None:
        self.queue: deque[_Job] = deque()
        self.in_flight = 0
        self.counters = {"submitted": 0, "completed": 0, "failed": 0,
                         "rejected": 0, "cancelled": 0}


class AdmissionController:
    """Quota + fair-queueing front of the shared worker pool.

    Owned and driven by the server's event loop; the public coroutine is
    :meth:`submit`, which resolves when the job finishes (or fails, or
    is cancelled while queued).
    """

    def __init__(self, max_concurrent: int = 4, per_client_inflight: int = 2,
                 per_client_queue: int = 8):
        self.max_concurrent = max_concurrent
        self.per_client_inflight = per_client_inflight
        self.per_client_queue = per_client_queue
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="repro-query")
        self._clients: dict[str, _ClientState] = {}
        self._rotation: deque[str] = deque()   # round-robin client order
        self._running = 0
        self._closed = False

    # -- submission (event-loop side) ----------------------------------
    def _state(self, client: str) -> _ClientState:
        state = self._clients.get(client)
        if state is None:
            state = self._clients[client] = _ClientState()
            self._rotation.append(client)
        return state

    def admit(self, client: str, fn: Callable[[threading.Event], Any],
              cancel_event: threading.Event | None = None) -> "asyncio.Future":
        """Queue ``fn`` for ``client``; returns the job's future.

        Raises :class:`QuotaExceeded` (and counts a rejection) when the
        client is at its queue-depth quota or the server is closing.
        """
        state = self._state(client)
        if self._closed:
            state.counters["rejected"] += 1
            raise QuotaExceeded(protocol.ERR_REJECTED, "server is closing")
        if len(state.queue) >= self.per_client_queue:
            state.counters["rejected"] += 1
            raise QuotaExceeded(
                protocol.ERR_REJECTED,
                f"client {client!r} queue depth limit "
                f"({self.per_client_queue}) reached")
        state.counters["submitted"] += 1
        job = _Job(client=client, fn=fn,
                   future=asyncio.get_running_loop().create_future())
        if cancel_event is not None:
            job.cancel_event = cancel_event
        state.queue.append(job)
        self._pump()
        return job.future

    async def submit(self, client: str, fn: Callable[[threading.Event], Any],
                     cancel_event: threading.Event | None = None) -> Any:
        """Admit ``fn`` and await its result."""
        return await self.admit(client, fn, cancel_event)

    # -- dispatch ------------------------------------------------------
    def _pump(self) -> None:
        """Fill free execution slots, one client per rotation step."""
        while self._running < self.max_concurrent:
            job = self._next_job()
            if job is None:
                return
            if job.cancel_event.is_set():      # cancelled while queued
                self._clients[job.client].counters["cancelled"] += 1
                if not job.future.done():
                    job.future.set_result(None)
                continue
            self._running += 1
            self._clients[job.client].in_flight += 1
            asyncio.get_running_loop().create_task(self._run_job(job))

    def _next_job(self) -> _Job | None:
        """Round-robin over clients with queued work and inflight room."""
        for _ in range(len(self._rotation)):
            client = self._rotation[0]
            self._rotation.rotate(-1)
            state = self._clients[client]
            if state.queue and state.in_flight < self.per_client_inflight:
                return state.queue.popleft()
        return None

    async def _run_job(self, job: _Job) -> None:
        loop = asyncio.get_running_loop()
        state = self._clients[job.client]
        try:
            result = await loop.run_in_executor(
                self._executor, job.fn, job.cancel_event)
        except BaseException as exc:
            if job.cancel_event.is_set():
                state.counters["cancelled"] += 1
            else:
                state.counters["failed"] += 1
            if not job.future.done():
                job.future.set_exception(exc)
        else:
            key = ("cancelled" if job.cancel_event.is_set()
                   else "completed")
            state.counters[key] += 1
            if not job.future.done():
                job.future.set_result(result)
        finally:
            self._running -= 1
            state.in_flight -= 1
            self._pump()

    # -- lifecycle / introspection -------------------------------------
    def close(self) -> None:
        """Reject new work and release the pool (blocking; call off-loop)."""
        self._closed = True
        self._executor.shutdown(wait=True)

    def stats(self) -> dict:
        """Aggregate and per-client admission counters."""
        per_client = {}
        totals = {"submitted": 0, "completed": 0, "failed": 0,
                  "rejected": 0, "cancelled": 0}
        for client, state in sorted(self._clients.items()):
            entry = dict(state.counters)
            entry["in_flight"] = state.in_flight
            entry["queued"] = len(state.queue)
            per_client[client] = entry
            for key in totals:
                totals[key] += state.counters[key]
        return {"totals": totals, "running": self._running,
                "max_concurrent": self.max_concurrent,
                "per_client": per_client}
