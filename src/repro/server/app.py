"""The asyncio inspection server: many clients, one shared Session.

Endpoints (see :mod:`repro.server.protocol` for the envelopes):

``POST /query``
    One-shot execution; the response carries the final frame.  The
    client is named by the ``client`` body field or ``X-Client-Id``
    header (defaults to the peer host: every anonymous connection from
    one host is one client, whatever its ephemeral port).
``GET /stream``
    Websocket upgrade.  Clients submit ``{"type": "query", "id", "sql"}``
    and receive one ``frame`` envelope per processed behavior block —
    scores refining as records arrive — with ``final: true`` on the
    last.  ``{"type": "cancel", "id"}`` (or simply disconnecting)
    abandons the underlying stream: the session generator closes, the
    scheduler stops feeding it and the store scope flushes.
``GET /stats``
    ``Session.stats()`` (cache/store/query counters) + per-client
    admission counters + ``dedup`` (the unit tier's single-flight
    counters) + server-level wire counters + ``layers``, ``{span name:
    {calls, total_s}}`` folded from the trace of every ``POST /query``
    (``query`` is the whole request, ``admission_wait`` /
    ``statement`` / ``encode`` / ``send`` its parts).

Queries execute on the admission controller's bounded thread pool —
they are blocking CPU work and must not run on the event loop; the
event loop only parses envelopes, moves frames and enforces quotas.
Cross-client dedup needs no server part: the session's tiers claim each
cold sweep, panel labelling and block's statistics for the first statement
to need it (one helper, :class:`~repro.core.cache._Claims`, one timeout),
and concurrent statements wait for the claim, so cold queries sharing
any of them extract and score it once.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import Iterator

from repro.server import protocol
from repro.server.admission import AdmissionController, QuotaExceeded
from repro.server.http import (AsyncWebSocket, HttpRequest, ProtocolError,
                               handshake_response, http_response,
                               read_http_request)
from repro.util.frame import Frame
from repro.util.trace import Span, current, span, tracing

_STREAM_END = object()   # queue sentinel: the worker finished
#: the unit tier's single-flight counters, as ``GET /stats["dedup"]``
_DEDUP = ("leads", "joins", "waits", "timeouts", "inflight")


class InspectionServer:
    """Serve one :class:`~repro.session.Session` to many clients."""

    def __init__(self, session, host: str = "127.0.0.1", port: int = 0,
                 max_concurrent: int = 4, per_client_inflight: int = 2,
                 per_client_queue: int = 8):
        self.session = session
        self.host = host
        self.port = port
        self.admission = AdmissionController(
            max_concurrent=max_concurrent,
            per_client_inflight=per_client_inflight,
            per_client_queue=per_client_queue)
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._counts = {"connections": 0, "requests": 0, "ws_queries": 0,
                        "ws_cancels": 0, "ws_disconnects": 0}
        # span name less its [detail] (the code's own names: a bounded
        # fold) -> {calls, total_s}; touched on the event loop only
        self._layers: dict[str, dict] = {}

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # idle keep-alive connections sit in read_http_request forever;
        # closing their transports (not cancelling the tasks — asyncio's
        # client_connected_cb done-callback mishandles cancelled tasks)
        # turns the waits into EOFs and lets every handler exit cleanly
        for conn_writer in list(self._conn_writers):
            conn_writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._counts["connections"] += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except ProtocolError as exc:
                    writer.write(self._error_response(
                        400, protocol.ERR_BAD_REQUEST, str(exc),
                        keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                self._counts["requests"] += 1
                if self._is_ws_upgrade(request):
                    await self._serve_websocket(request, reader, writer)
                    return           # a websocket consumes the connection
                if not await self._serve_http(request, writer):
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    @staticmethod
    def _is_ws_upgrade(request: HttpRequest) -> bool:
        return ("upgrade" in request.header("connection").lower()
                and request.header("upgrade").lower() == "websocket")

    def _client_id(self, request: HttpRequest, body: dict | None,
                   writer: asyncio.StreamWriter) -> str:
        if body and isinstance(body.get("client"), str):
            return body["client"]
        header = request.header("x-client-id")
        if header:
            return header
        # by host alone: an ephemeral port would make every reconnect a
        # new client with a fresh quota (and a /stats entry for good)
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if peer else "anonymous"

    def _error_response(self, status: int, code: str, message: str,
                        keep_alive: bool = True) -> bytes:
        body = protocol.dumps(protocol.error_envelope(code, message))
        reason = {400: "Bad Request", 404: "Not Found",
                  429: "Too Many Requests", 500: "Internal Server Error"}
        return http_response(status, reason.get(status, "Error"),
                             body.encode("utf-8"), keep_alive=keep_alive)

    # -- plain HTTP ----------------------------------------------------
    async def _serve_http(self, request: HttpRequest,
                          writer: asyncio.StreamWriter) -> bool:
        """Answer one request; returns False when the connection closes."""
        if request.method == "POST" and request.path == "/query":
            # every served query is traced; only the fold below is kept
            with tracing("query") as root:
                response = await self._handle_query(request, writer)
                with span("send"):
                    writer.write(response)
                    await writer.drain()
            for name, total in root.totals().items():
                layer = self._layers.setdefault(
                    name.partition("[")[0], {"calls": 0, "total_s": 0.0})
                layer["calls"] += total["calls"]
                layer["total_s"] += total["total_s"]
            return request.header("connection").lower() != "close"
        if request.method == "GET" and request.path == "/stats":
            body = protocol.dumps(self.stats()).encode("utf-8")
            response = http_response(200, "OK", body)
        else:
            response = self._error_response(
                404, protocol.ERR_BAD_REQUEST,
                f"no route for {request.method} {request.path}")
        writer.write(response)
        await writer.drain()
        return request.header("connection").lower() != "close"

    async def _handle_query(self, request: HttpRequest,
                            writer: asyncio.StreamWriter) -> bytes:
        try:
            body = protocol.parse_envelope(request.body or b"{}")
            sql = body["sql"]
        except (ValueError, KeyError):
            return self._error_response(
                400, protocol.ERR_BAD_REQUEST,
                'request body must be a JSON object with a "sql" field')
        client = self._client_id(request, body, writer)
        root = current()    # _serve_http's "query" span
        submitted = time.perf_counter()

        def run(cancel_event: threading.Event) -> Frame:
            # on an admission pool thread: handed the root, not a context
            root.attach("admission_wait", time.perf_counter() - submitted)
            with Span("statement", root):
                return self.session.sql(sql)

        try:
            frame = await self.admission.submit(client, run)
        except QuotaExceeded as exc:
            return self._error_response(429, exc.code, exc.message)
        except Exception as exc:
            return self._error_response(
                500, protocol.ERR_QUERY, f"{type(exc).__name__}: {exc}")
        with span("encode"):
            envelope = protocol.result_envelope(frame,
                                                elapsed_s=root.duration)
            return http_response(200, "OK",
                                 protocol.dumps(envelope).encode("utf-8"))

    # -- websocket streaming -------------------------------------------
    async def _serve_websocket(self, request: HttpRequest,
                               reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        key = request.header("sec-websocket-key")
        if request.path != "/stream" or not key:
            writer.write(self._error_response(
                400, protocol.ERR_BAD_REQUEST,
                "websocket upgrades are served at /stream",
                keep_alive=False))
            await writer.drain()
            return
        writer.write(handshake_response(key))
        await writer.drain()
        ws = AsyncWebSocket(reader, writer)
        client = self._client_id(request, None, writer)
        cancels: dict[str, threading.Event] = {}
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    raw = await ws.recv()
                except ProtocolError:
                    raw = None       # treat framing garbage as a disconnect
                if raw is None:
                    self._counts["ws_disconnects"] += 1
                    break
                try:
                    msg = protocol.parse_envelope(raw)
                    kind = msg.get("type")
                    qid = str(msg.get("id", ""))
                    if kind == "query":
                        sql = msg["sql"]
                    elif kind != "cancel":
                        raise ValueError(f"unknown envelope type {kind!r}")
                except (ValueError, KeyError) as exc:
                    await ws.send_text(protocol.dumps(
                        protocol.error_envelope(
                            protocol.ERR_BAD_REQUEST, str(exc))))
                    continue
                if kind == "cancel":
                    self._counts["ws_cancels"] += 1
                    event = cancels.get(qid)
                    if event is not None:
                        event.set()
                    continue
                self._counts["ws_queries"] += 1
                cancels[qid] = threading.Event()
                task = asyncio.ensure_future(
                    self._run_stream(ws, client, qid, sql, cancels[qid]))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            # disconnect: cancel every stream this socket owns, then wait
            # for the workers to notice and release their session work
            for event in cancels.values():
                event.set()
            for task in list(tasks):
                with contextlib.suppress(Exception):
                    await task
            await ws.close()

    async def _run_stream(self, ws: AsyncWebSocket, client: str, qid: str,
                          sql: str, cancel_event: threading.Event) -> None:
        """Drive one streamed query: worker thread → frame queue → socket."""
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def push(item) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, item)

        def worker(cancel: threading.Event) -> None:
            _stream_worker(self.session, sql, cancel, push)

        try:
            future = self.admission.admit(client, worker,
                                          cancel_event=cancel_event)
        except QuotaExceeded as exc:
            await ws.send_text(protocol.dumps(protocol.error_envelope(
                exc.code, exc.message, id=qid)))
            return
        # a job cancelled while still queued never runs the worker (so
        # never pushes the sentinel itself) — end the pump when the
        # future settles, whichever happens first
        future.add_done_callback(lambda _: queue.put_nowait(_STREAM_END))
        await ws.send_text(protocol.dumps({"type": "accepted", "id": qid}))
        seq = 0
        try:
            while True:
                item = await queue.get()
                if item is _STREAM_END:
                    break
                final, frame = item
                await ws.send_text(protocol.dumps(
                    protocol.frame_envelope(qid, seq, final, frame)))
                seq += 1
        except (ConnectionError, RuntimeError):
            cancel_event.set()     # peer went away mid-frame
        try:
            await future
        except Exception as exc:
            if not cancel_event.is_set():
                with contextlib.suppress(ConnectionError):
                    await ws.send_text(protocol.dumps(
                        protocol.error_envelope(
                            protocol.ERR_QUERY,
                            f"{type(exc).__name__}: {exc}", id=qid)))
                return
        if cancel_event.is_set():
            with contextlib.suppress(ConnectionError):
                await ws.send_text(protocol.dumps(
                    {"type": "cancelled", "id": qid}))

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        out = {"type": "stats", "server": dict(self._counts),
               "session": self.session.stats(),
               "admission": self.admission.stats(),
               "layers": {name: dict(layer)
                          for name, layer in self._layers.items()}}
        tier_stats = self.session.unit_cache.stats()
        out["dedup"] = {name: tier_stats[name] for name in _DEDUP}
        return out


def _stream_worker(session, sql: str, cancel: threading.Event,
                   push) -> None:
    """Run ``stream_sql`` on a worker thread, pushing ``(final, frame)``.

    One-frame lookahead tags the last frame ``final`` without buffering
    the stream.  A set cancel flag abandons the generator between
    frames — ``closing()`` propagates GeneratorExit through the session
    layer, which releases scheduler work, flushes the store scope and
    counts the abandonment.
    """
    try:
        with contextlib.closing(session.stream_sql(sql)) as frames:
            pending: Frame | None = None
            for frame in frames:
                if cancel.is_set():
                    return           # closing() abandons the stream
                if pending is not None:
                    push((False, pending))
                pending = frame
            if pending is not None and not cancel.is_set():
                push((True, pending))
    finally:
        push(_STREAM_END)


# ----------------------------------------------------------------------
# embedding harness: run the server on a background thread
# ----------------------------------------------------------------------
class ServerThread:
    """An :class:`InspectionServer` running its own event loop thread.

    Tests, examples and the benchmark embed the server this way: start
    it, read ``.port``, hammer it from plain (blocking) client code,
    then ``stop()`` — which drains the admission pool before returning.
    """

    def __init__(self, server: InspectionServer):
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-server")
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("inspection server failed to start")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        # off-loop by construction now: safe to block on pool shutdown
        self.server.admission.close()
        self._loop = self._thread = None


@contextlib.contextmanager
def serve_in_thread(session, **kwargs) -> Iterator[ServerThread]:
    """``with serve_in_thread(session) as server: ...`` — see ServerThread."""
    harness = ServerThread(InspectionServer(session, **kwargs)).start()
    try:
        yield harness
    finally:
        harness.stop()
