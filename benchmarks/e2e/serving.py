"""The served side: server process lifecycle and the load generators.

The server is its own process — ``python -m repro serve --setup
benchmarks/e2e/server_setup.py --port 0`` with the CLI defaults — so its
peak RSS and its GIL are its own.  The announced port is parsed from its
first output line; :meth:`ServerProcess.stop` runs on every exit path and
fails the run if the process outlives it.
"""

from __future__ import annotations

import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.server import InspectClient

from .measure import probe, timed
from .spec import E2E_DIR, REPO_ROOT

HOST = "127.0.0.1"
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class ServerProcess:
    """One ``python -m repro serve`` subprocess; it inherits the worker's
    environment, which names the inputs for ``server_setup.py``."""

    def __init__(self, log_path: Path):
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._log = None

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--setup",
             str(E2E_DIR / "server_setup.py"), "--port", "0"],
            cwd=REPO_ROOT, stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        deadline = time.monotonic() + timeout
        try:
            while self.port is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError("server did not announce a port "
                                       f"within {timeout:.0f} s")
                ready, _, _ = select.select([self.proc.stdout], [], [],
                                            remaining)
                if not ready:
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        "server exited before announcing a port (see "
                        f"{self.log_path})")
                match = _LISTENING.search(line)
                if match:
                    self.port = int(match.group(2))
        except BaseException:
            self.stop()
            raise
        return self

    def client(self, client_id: str) -> InspectClient:
        return InspectClient(HOST, self.port, client_id=client_id)

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS, read from ``/proc`` while it lives."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        """Interrupt (clean session close), then terminate, then kill."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            for stop_signal in (signal.SIGINT, signal.SIGTERM,
                                signal.SIGKILL):
                if proc.poll() is not None:
                    break
                proc.send_signal(stop_signal)
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    continue
            if proc.poll() is None:
                raise RuntimeError("server process outlived the run")
        finally:
            proc.stdout.close()
            self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def server_counters(stats: dict) -> dict:
    """The admission and dedup counters of one ``GET /stats`` snapshot."""
    totals = stats["admission"]["totals"]
    dedup = stats.get("dedup", {})
    return {"admission.submitted": totals["submitted"],
            "admission.completed": totals["completed"],
            "admission.rejected": totals["rejected"],
            "dedup.leads": dedup.get("leads", 0),
            "dedup.joins": dedup.get("joins", 0)}


def _fan_out(n_threads: int, body) -> None:
    """Run ``body(thread_index)`` on ``n_threads`` threads; re-raise the
    first exception any of them hit."""
    errors: list[BaseException] = []

    def guarded(index: int) -> None:
        try:
            body(index)
        except BaseException as exc:  # repro: allow[REP005] re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(server: ServerProcess, schedule: list[tuple[str, str]],
              rate: float, connections: int, recorder) -> dict:
    """Send ``schedule`` at a fixed ``rate`` whatever the server does.

    ``schedule`` holds ``(name, sql)``.  Statement ``i`` is due at
    ``t0 + i / rate``; ``connections`` client threads take statements in
    order, each waiting for the due time.  Latency is timed **from the due
    time**, so a stall also charges the statements queued behind it, and
    how late the generator itself sent each statement is reported.  Each
    client takes one host-speed probe right after a reply, outside the
    timed interval.
    Returns ``{"results": [(name, latency_s, frame, error, probe_ms)],
    "late_s": [...], "span_s": first due to last reply}``.
    """
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    results: list = [None] * len(schedule)
    late: list = [0.0] * len(schedule)
    clients = [server.client(f"conn-{i}") for i in range(connections)]
    t0 = time.perf_counter() + 0.05

    def body(index: int) -> None:
        client = clients[index]
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            name, sql = schedule[i]
            due = t0 + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            with recorder.span("client.query", stmt=name):
                sent = time.perf_counter()
                _, frame, error = timed(client.query, sql)
                done = time.perf_counter()
            late[i] = sent - due
            results[i] = (name, done - due, frame, error, probe())

    _fan_out(connections, body)
    last_reply = max(i / rate + r[1] for i, r in enumerate(results))
    return {"results": results, "late_s": late, "span_s": last_reply}


def closed_loop(server: ServerProcess, schedule: list[tuple[str, str]],
                connections: int) -> float:
    """``connections`` clients each send their next statement when the
    previous reply arrives; returns statements completed per second."""
    lock = threading.Lock()
    cursor = iter(schedule)
    clients = [server.client(f"closed-{i}") for i in range(connections)]

    def body(index: int) -> None:
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            clients[index].query(item[1])

    start = time.perf_counter()
    _fan_out(connections, body)
    return len(schedule) / (time.perf_counter() - start)
