"""The multi-tenant inspection server (DeepBase-as-a-service).

DeepBase frames deep neural inspection as declarative queries over
shared behavior/hypothesis relations; the natural end state is a
*service* many analysts query concurrently.  This package serves one
shared :class:`repro.session.Session` — one store, one scheduler pool,
shared memory tiers — to many clients over a wire protocol built from
the stdlib only (``asyncio`` + a minimal HTTP/1.1 + RFC 6455 websocket
layer).  Concurrent queries needing the same cold forward sweep (or
block statistics) share one computation through the session's tiers
(:meth:`repro.core.cache.UnitBehaviorCache.extract`), as any threads
sharing a session do; ``GET /stats["dedup"]`` reports its counters.

* :mod:`repro.server.app` — :class:`InspectionServer`, the asyncio
  front end (``POST /query``, ``GET /stream`` websocket, ``GET /stats``)
  and :func:`serve_in_thread`, the embedding harness tests/benchmarks
  use.
* :mod:`repro.server.protocol` — the JSON envelopes and the
  frame-over-JSON encoding (bit-exact for float64: shortest-repr float
  round-trips are exact, so a streamed final frame equals direct
  execution).
* :mod:`repro.server.admission` — per-client quotas, bounded queueing
  and fair round-robin dispatch onto a bounded worker pool, so one
  tenant cannot starve the rest.
* :mod:`repro.server.http` — the wire layer (HTTP parsing, RFC 6455
  framing) as pure, separately-testable functions.
* :mod:`repro.server.client` — the stdlib client used by tests,
  examples and the load-generating benchmark.

Start one from the CLI::

    python -m repro serve --store behavior_store --db catalog.db

or embed it::

    from repro.server import InspectionServer, serve_in_thread
    with serve_in_thread(session) as server:
        client = InspectClient("127.0.0.1", server.port)
        frame = client.query("SELECT ... INSPECT ...")
"""

from repro.server.admission import AdmissionController, QuotaExceeded
from repro.server.app import InspectionServer, serve_in_thread
from repro.server.client import InspectClient

__all__ = [
    "AdmissionController",
    "InspectClient",
    "InspectionServer",
    "QuotaExceeded",
    "serve_in_thread",
]
