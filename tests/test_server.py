"""Inspection server: protocol, framing, admission, dedup, streaming.

The acceptance story of the server PR: many concurrent clients multiplex
onto one shared :class:`~repro.session.Session`; N identical cold
INSPECT queries extract the model exactly once (counter-asserted);
streamed final frames are bit-identical to direct execution; quota
violations come back as structured error envelopes; a client that
disconnects mid-stream abandons its run without leaking scheduler work
or uncommitted store state.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import (HypothesisCache, InspectConfig, Session,
                   UnitBehaviorCache)
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.server import InspectClient, serve_in_thread
from repro.server import http as wire
from repro.server import protocol
from repro.server.client import ServerError, StreamHandle
from repro.util.frame import Frame
from repro.util.testing import CountingForwardModel

MAX_RECORDS = 60
BLOCK = 16   # 60 records / 16 -> 4 blocks, so streams yield several frames

INSPECT_SQL = """
    SELECT S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid
    ORDER BY S.unit_score DESC
"""


@pytest.fixture
def hyps():
    return sql_keyword_hypotheses(("SELECT", "FROM"))


class SlowForwardModel:
    """Delegating wrapper that naps per ``hidden_states`` sweep.

    Keeps cancellation tests deterministic: a cancel or disconnect sent
    after the first streamed frame always lands while later blocks are
    still extracting, independent of host speed.  Used together with an
    explicit ``scheduler="threads"`` pin.
    """

    def __init__(self, inner, nap=0.2):
        self._inner = inner
        self._nap = nap
        self.model_id = inner.model_id
        self.n_units = inner.n_units
        self.forward_calls = 0

    def parameters(self):
        return self._inner.parameters()

    def hidden_states(self, ids):
        self.forward_calls += 1
        time.sleep(self._nap)
        return self._inner.hidden_states(ids)


def slow_config() -> InspectConfig:
    return InspectConfig(max_records=MAX_RECORDS, block_size=BLOCK,
                         early_stop=False, scheduler="threads")


def make_session(model, workload, hyps, **kwargs) -> Session:
    kwargs.setdefault("config", InspectConfig(
        max_records=MAX_RECORDS, block_size=BLOCK, early_stop=False))
    session = Session(**kwargs)
    session.register_model("m0", model)
    session.register_dataset("d0", workload.dataset)
    session.register_hypotheses(hyps, name="keywords")
    return session


def raw_frame(opcode: int, payload: bytes, fin: bool = True,
              mask: bytes | None = None) -> bytes:
    """A frame built by hand: the encoder refuses to write the illegal
    control frames the framing cases feed the decoder and the server."""
    n = len(payload)
    head = bytes([(0x80 if fin else 0) | opcode])
    mask_bit = 0x80 if mask is not None else 0
    if n < 126:
        head += bytes([mask_bit | n])
    else:
        head += bytes([mask_bit | 126]) + n.to_bytes(2, "big")
    if mask is None:
        return head + payload
    return head + mask + wire.apply_mask(payload, mask)


#: control frames RFC 6455 forbids, as ``(opcode, payload, fin, match)``
ILLEGAL_CONTROL_FRAMES = {
    # §5.5: at most 125 payload bytes, never fragmented
    "oversized": (wire.OP_PING, b"x" * 200, True, "control"),
    "fragmented": (wire.OP_PING, b"hi", False, "control"),
    "oversized-pong": (wire.OP_PONG, b"x" * 126, True, "control"),
    "fragmented-pong": (wire.OP_PONG, b"hi", False, "control"),
    "oversized-close": (wire.OP_CLOSE, (1000).to_bytes(2, "big") + b"x" * 124,
                        True, "control"),
    "fragmented-close": (wire.OP_CLOSE, (1000).to_bytes(2, "big"), False,
                         "control"),
    # §5.5.1: a close body starts with a 2-byte status code
    "one-byte-close": (wire.OP_CLOSE, b"\x03", True, "close"),
}


# ----------------------------------------------------------------------
# protocol: envelopes and the frame-over-JSON encoding
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip_is_bit_identical(self):
        frame = Frame({
            "uid": [0, 1, 2],
            "score": [0.1, 1.0 / 3.0, -2.5e-17],   # repr-exact floats
            "hid": ["a", "b", "c"],
        })
        frame.records_processed = 42
        frame.converged = False
        decoded = protocol.frame_from_payload(
            protocol.parse_envelope(protocol.dumps(
                {"frame": protocol.frame_payload(frame)}))["frame"])
        assert decoded == frame
        assert decoded.records_processed == 42
        assert decoded.converged is False

    def test_numpy_values_are_jsonable(self):
        import numpy as np
        frame = Frame({"score": list(np.linspace(0, 1, 3)),
                       "uid": list(np.arange(3))})
        payload = protocol.dumps(protocol.frame_payload(frame))
        decoded = protocol.frame_from_payload(
            protocol.parse_envelope(payload))
        assert decoded["uid"] == [0, 1, 2]
        assert decoded["score"] == [0.0, 0.5, 1.0]

    def test_malformed_envelopes_raise(self):
        with pytest.raises(ValueError):
            protocol.parse_envelope(b"{not json")
        with pytest.raises(ValueError):
            protocol.parse_envelope(b"[1, 2]")


# ----------------------------------------------------------------------
# websocket framing edge cases (pure layer, no sockets)
# ----------------------------------------------------------------------
class TestWsFraming:
    def test_roundtrip_unmasked(self):
        raw = wire.encode_ws_frame(b"hello", wire.OP_TEXT)
        assembler = wire.WsMessageAssembler(require_mask=False)
        assert assembler.feed(raw) == [("text", "hello")]

    def test_roundtrip_masked_and_long_payloads(self):
        for size in (5, 126, 70_000):   # 7-bit, 16-bit and 64-bit lengths
            payload = bytes(i % 251 for i in range(size))
            raw = wire.encode_ws_frame(payload, wire.OP_BINARY,
                                       mask=b"\x01\x02\x03\x04")
            events = wire.WsMessageAssembler().feed(raw)
            assert events == [("binary", payload)]

    def test_fragmented_message_reassembles(self):
        # text split over three frames: TEXT(fin=0) CONT(fin=0) CONT(fin=1)
        parts = [
            wire.encode_ws_frame(b"he", wire.OP_TEXT, fin=False,
                                 mask=b"maskmask"[:4]),
            wire.encode_ws_frame(b"ll", wire.OP_CONT, fin=False,
                                 mask=b"abcd"),
            wire.encode_ws_frame(b"o", wire.OP_CONT, fin=True,
                                 mask=b"wxyz"),
        ]
        assembler = wire.WsMessageAssembler()
        stream = b"".join(parts)
        events = []
        # feed byte-by-byte: frame boundaries must not matter
        for i in range(len(stream)):
            events += assembler.feed(stream[i:i + 1])
        assert events == [("text", "hello")]

    def test_ping_between_fragments_is_surfaced_immediately(self):
        assembler = wire.WsMessageAssembler()
        events = assembler.feed(
            wire.encode_ws_frame(b"par", wire.OP_TEXT, fin=False,
                                 mask=b"aaaa")
            + wire.encode_ws_frame(b"beat", wire.OP_PING, mask=b"bbbb")
            + wire.encode_ws_frame(b"tial", wire.OP_CONT, fin=True,
                                   mask=b"cccc"))
        assert events == [("ping", b"beat"), ("text", "partial")]

    def test_server_refuses_unmasked_client_frames(self):
        assembler = wire.WsMessageAssembler()   # require_mask=True
        with pytest.raises(wire.ProtocolError, match="masked"):
            assembler.feed(wire.encode_ws_frame(b"x", wire.OP_TEXT))

    def test_continuation_without_start_is_an_error(self):
        assembler = wire.WsMessageAssembler(require_mask=False)
        with pytest.raises(wire.ProtocolError, match="continuation"):
            assembler.feed(wire.encode_ws_frame(b"x", wire.OP_CONT))

    def test_interleaving_a_new_message_into_fragments_is_an_error(self):
        assembler = wire.WsMessageAssembler(require_mask=False)
        assembler.feed(wire.encode_ws_frame(b"a", wire.OP_TEXT, fin=False))
        with pytest.raises(wire.ProtocolError, match="fragment"):
            assembler.feed(wire.encode_ws_frame(b"b", wire.OP_TEXT))

    def test_oversized_control_frame_refused_at_encode(self):
        with pytest.raises(wire.ProtocolError):
            wire.encode_ws_frame(b"x" * 126, wire.OP_PING)

    @pytest.mark.parametrize("opcode, payload, fin, match",
                             ILLEGAL_CONTROL_FRAMES.values(),
                             ids=ILLEGAL_CONTROL_FRAMES.keys())
    def test_illegal_control_frame_refused_at_decode(self, opcode, payload,
                                                     fin, match):
        assembler = wire.WsMessageAssembler(require_mask=False)
        with pytest.raises(wire.ProtocolError, match=match):
            assembler.feed(raw_frame(opcode, payload, fin))

    def test_longest_legal_ping_is_surfaced(self):
        assembler = wire.WsMessageAssembler(require_mask=False)
        payload = b"p" * 125
        assert assembler.feed(raw_frame(wire.OP_PING, payload)) == [
            ("ping", payload)]

    @pytest.mark.parametrize("payload", [
        b"",                                        # §5.5.1: body optional
        (1000).to_bytes(2, "big") + b"r" * 123,     # code + longest reason
    ], ids=["empty", "longest"])
    def test_legal_close_body_is_surfaced(self, payload):
        assembler = wire.WsMessageAssembler(require_mask=False)
        assert assembler.feed(raw_frame(wire.OP_CLOSE, payload)) == [
            ("close", payload)]

    def test_close_frame_event(self):
        assembler = wire.WsMessageAssembler(require_mask=False)
        code = (1000).to_bytes(2, "big")
        assert assembler.feed(
            wire.encode_ws_frame(code, wire.OP_CLOSE)) == [("close", code)]

    def test_accept_key_matches_rfc_example(self):
        # the worked example from RFC 6455 §1.3
        assert wire.websocket_accept_key(
            "dGhlIHNhbXBsZSBub25jZQ==") == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="


# ----------------------------------------------------------------------
# the server end to end
# ----------------------------------------------------------------------
class TestServerEndToEnd:
    def test_concurrent_identical_queries_extract_once(
            self, trained_sql_model, sql_workload, hyps):
        # solo baseline: the forward-call cost of exactly one extraction
        solo = CountingForwardModel(trained_sql_model)
        with make_session(solo, sql_workload, hyps) as session:
            direct = session.sql(INSPECT_SQL)
        assert solo.forward_calls > 0

        counting = CountingForwardModel(trained_sql_model)
        session = make_session(counting, sql_workload, hyps)
        with session, serve_in_thread(session, max_concurrent=8,
                                      per_client_inflight=2) as server:
            n = 5
            results: list = [None] * n
            clients = [InspectClient("127.0.0.1", server.port,
                                     client_id=f"tenant-{i}")
                       for i in range(n)]

            def go(i: int) -> None:
                results[i] = clients[i].query(INSPECT_SQL)

            threads = [threading.Thread(target=go, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)

            # N concurrent identical cold queries: ONE extraction
            assert counting.forward_calls == solo.forward_calls
            for frame in results:
                assert frame == direct
            stats = clients[0].stats()
            # one claim per sweep, however many queries read it
            assert stats["dedup"]["leads"] \
                == stats["session"]["unit_cache"]["extractions"] >= 1
            assert stats["dedup"]["inflight"] == 0
            assert stats["session"]["queries"]["completed"] >= n

    def test_streamed_final_frame_bit_identical_to_direct(
            self, trained_sql_model, sql_workload, hyps):
        with make_session(trained_sql_model, sql_workload, hyps) as session:
            direct = session.sql(INSPECT_SQL)
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port)
            frames = client.stream(INSPECT_SQL).results()
        assert len(frames) > 1                    # progressive, per block
        finals = [final for final, _ in frames]
        assert finals == [False] * (len(frames) - 1) + [True]
        assert frames[-1][1] == direct            # bit-identical
        partial = frames[0][1]
        assert partial.columns == direct.columns
        assert partial != direct                  # genuinely progressive

    def test_one_shot_query_matches_direct(
            self, trained_sql_model, sql_workload, hyps):
        with make_session(trained_sql_model, sql_workload, hyps) as session:
            direct = session.sql(INSPECT_SQL)
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port)
            assert client.query(INSPECT_SQL) == direct

    def test_plain_select_over_the_wire(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port)
            frame = client.query("SELECT mid FROM models")
            assert frame["mid"] == ["m0"]

    def test_multi_table_select_on_every_surface(
            self, trained_sql_model, sql_workload, hyps):
        """The follow-up to ``INTO scores``: join the saved scores with
        the catalog — same frame from ``sql``, ``stream_sql``,
        ``POST /query`` and ``WS /stream``, same rows from the row
        engine; the unprojected ORDER BY key never reaches the wire."""
        from repro.db import execute_select, parse_sql
        joined = ("SELECT S.uid, U.layer FROM scores S, units U "
                  "WHERE S.uid = U.uid AND U.uid < 4 "
                  "ORDER BY S.unit_score DESC LIMIT 5")
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port)
            client.query(
                "SELECT S.uid AS uid, S.unit_score AS unit_score INTO scores "
                "INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
                "FROM models M, units U, hypotheses H, inputs D "
                "WHERE M.mid = U.mid")
            direct = session.sql(joined)
            assert direct.columns == ["S.uid", "U.layer"] and len(direct) == 5
            assert list(session.stream_sql(joined)) == [direct]
            assert client.query(joined) == direct
            assert client.stream(joined).results() == [(True, direct)]
            assert execute_select(session.db, parse_sql(joined),
                                  engine="row") == direct.rows()
            with pytest.raises(ServerError, match="'uid' is ambiguous") as err:
                client.query(joined.replace("S.uid, U.layer", "uid"))
            assert err.value.code == protocol.ERR_QUERY

    def test_query_error_is_structured(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port)
            with pytest.raises(ServerError) as err:
                client.query("SELECT nonsense FROM nowhere")
            assert err.value.code == protocol.ERR_QUERY
            stats = client.stats()
            assert stats["session"]["queries"]["failed"] >= 1

    def test_quota_rejection_is_structured(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session,
                                      per_client_queue=0) as server:
            client = InspectClient("127.0.0.1", server.port,
                                   client_id="greedy")
            with pytest.raises(ServerError) as err:
                client.query("SELECT mid FROM models")
            assert err.value.code == protocol.ERR_REJECTED
            stats = client.stats()
            assert stats["admission"]["per_client"]["greedy"][
                "rejected"] == 1

    def test_stats_endpoint_shape(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port,
                                   client_id="observer")
            client.query("SELECT mid FROM models")
            stats = client.stats()
        assert {"server", "session", "admission", "dedup"} <= stats.keys()
        assert "queries" in stats["session"]
        assert "degraded" in stats["session"]
        per_client = stats["admission"]["per_client"]["observer"]
        assert per_client["submitted"] == 1
        assert per_client["completed"] == 1

    def test_tiers_pinned_on_config_are_the_ones_stats_report(
            self, trained_sql_model, sql_workload, hyps):
        """Tiers pinned on ``config=`` are ``session.hyp_cache`` and
        ``session.unit_cache``, and both stats surfaces read them."""
        hyp_tier, unit_tier = HypothesisCache(), UnitBehaviorCache()
        config = InspectConfig(max_records=MAX_RECORDS, block_size=BLOCK,
                               early_stop=False, cache=hyp_tier,
                               unit_cache=unit_tier)
        session = make_session(trained_sql_model, sql_workload, hyps,
                               config=config)
        assert session.hyp_cache is hyp_tier
        assert session.unit_cache is unit_tier
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port)
            client.query(INSPECT_SQL)
            served = client.stats()
            local = session.stats()
        n_blocks = -(-MAX_RECORDS // BLOCK)
        assert local["unit_cache"] == unit_tier.stats()
        assert local["unit_cache"]["extractions"] == n_blocks
        assert local["hypothesis_cache"]["extractions"] == \
            hyp_tier.stats()["extractions"] == len(hyps) * n_blocks
        assert served["session"]["unit_cache"] == local["unit_cache"]
        assert served["dedup"]["leads"] == unit_tier.stats()["leads"] \
            == n_blocks
        assert served["dedup"] == {
            name: local["unit_cache"][name] for name in
            ("leads", "joins", "waits", "timeouts", "inflight")}

    def test_ws_cancel_stops_the_stream(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(SlowForwardModel(trained_sql_model),
                               sql_workload, hyps, config=slow_config())
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port)
            handle = client.stream(INSPECT_SQL)
            stream = iter(handle)
            next(stream)               # one partial frame arrived
            handle.cancel()
            leftovers = list(stream)   # drains to cancelled/final quickly
            assert len(leftovers) < 4  # far fewer than a full-run stream
            deadline = time.time() + 10
            while time.time() < deadline:
                if session.stats()["queries"]["cancelled"] >= 1:
                    break
                time.sleep(0.02)
            assert session.stats()["queries"]["cancelled"] >= 1
            # the session still serves queries afterwards
            assert len(client.query("SELECT mid FROM models")) == 1

    def test_mid_stream_disconnect_abandons_without_leaks(
            self, trained_sql_model, sql_workload, hyps, tmp_path):
        counting = SlowForwardModel(trained_sql_model)
        session = make_session(counting, sql_workload, hyps,
                               config=slow_config(),
                               store_path=str(tmp_path / "store"))
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port)
            handle = client.stream(INSPECT_SQL)
            next(iter(handle))
            handle._sock.close()       # hard disconnect, no close frame
            deadline = time.time() + 10
            while time.time() < deadline:
                if session.stats()["queries"]["streams_abandoned"] >= 1:
                    break
                time.sleep(0.02)
            assert session.stats()["queries"]["streams_abandoned"] == 1
            time.sleep(0.5)            # drain any in-flight prefetch
            calls_after_abandon = counting.forward_calls
            time.sleep(0.5)            # no further extraction happens
            assert counting.forward_calls == calls_after_abandon
            # the store is not wedged mid-commit: a fresh query completes
            # and commits (deferred-commit depth unwound cleanly)
            frame = client.query(INSPECT_SQL)
            assert len(frame) > 0
        # after server + session teardown no worker/server threads remain
        deadline = time.time() + 10
        while time.time() < deadline:
            leftover = [t for t in threading.enumerate()
                        if t.name.startswith(("repro-query",
                                              "repro-server"))]
            if not leftover:
                break
            time.sleep(0.05)
        assert not leftover

    def test_http_404_and_bad_body(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port)
            with pytest.raises(ServerError) as err:
                client._request("GET", "/nope")
            assert err.value.code == protocol.ERR_BAD_REQUEST
            # malformed body -> structured bad-request, connection usable
            raw = socket.create_connection(("127.0.0.1", server.port))
            try:
                raw.sendall(b"POST /query HTTP/1.1\r\n"
                            b"Content-Length: 9\r\n\r\nnot json!")
                response = raw.recv(65536)
            finally:
                raw.close()
            assert b"400" in response.split(b"\r\n", 1)[0]
            assert b"bad-request" in response

    @pytest.mark.parametrize("opcode, payload, fin, match",
                             ILLEGAL_CONTROL_FRAMES.values(),
                             ids=ILLEGAL_CONTROL_FRAMES.keys())
    def test_illegal_control_frame_drops_the_websocket(
            self, trained_sql_model, sql_workload, hyps, opcode, payload,
            fin, match):
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            frames = _ws_exchange(server.port,
                                  raw_frame(opcode, payload, fin, MASK))
        # no pong, no echo of the bad body: the server closes normally
        assert [(f.opcode, f.payload) for f in frames] == [
            (wire.OP_CLOSE, (1000).to_bytes(2, "big"))]

    def test_longest_legal_ping_is_answered(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(trained_sql_model, sql_workload, hyps)
        payload = b"p" * 125
        close = (1000).to_bytes(2, "big")
        with session, serve_in_thread(session) as server:
            frames = _ws_exchange(
                server.port, raw_frame(wire.OP_PING, payload, mask=MASK)
                + raw_frame(wire.OP_CLOSE, close, mask=MASK))
        assert [(f.opcode, f.payload) for f in frames] == [
            (wire.OP_PONG, payload), (wire.OP_CLOSE, close)]


MASK = b"\x0f\x1e\x2d\x3c"


def _ws_exchange(port: int, data: bytes) -> list:
    """Upgrade one connection, send ``data`` raw and return every frame
    the server writes back until it closes the connection."""
    handle = StreamHandle("127.0.0.1", port, "framing", timeout=10)
    sock = handle._sock
    try:
        sock.sendall(data)
        buf = b""
        while chunk := sock.recv(65536):
            buf += chunk
    finally:
        sock.close()
    frames = []
    while decoded := wire.decode_ws_frame(buf):
        frame, used = decoded
        frames.append(frame)
        buf = buf[used:]
    assert not buf
    return frames


def _anonymous_post(port: int, sql: str) -> dict:
    """One ``POST /query`` on its own connection, naming no client."""
    import http.client
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/query",
                     body=protocol.dumps({"sql": sql}).encode("utf-8"),
                     headers={"Content-Type": "application/json"})
        return protocol.parse_envelope(conn.getresponse().read())
    finally:
        conn.close()


def _until(condition, timeout: float = 10.0) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return condition()


class TestAnonymousClients:
    """A peer that names no client is its host, not its ephemeral port."""

    def test_reconnecting_host_is_one_client(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            n = 12
            for _ in range(n):
                reply = _anonymous_post(server.port, "SELECT mid FROM models")
                assert reply["type"] == "result"
            stats = InspectClient("127.0.0.1", server.port).stats()
        per_client = stats["admission"]["per_client"]
        assert list(per_client) == ["127.0.0.1"]
        assert per_client["127.0.0.1"]["completed"] == n

    def test_queue_quota_holds_across_reconnects(
            self, trained_sql_model, sql_workload, hyps):
        """One running, one queued — a third connection from the same
        host is over ``per_client_queue`` although its port is new."""
        session = make_session(SlowForwardModel(trained_sql_model),
                               sql_workload, hyps, config=slow_config())
        replies: list[dict] = []

        def post() -> None:
            replies.append(_anonymous_post(server.port, INSPECT_SQL))

        with session, serve_in_thread(session, per_client_inflight=1,
                                      per_client_queue=1) as server:
            observer = InspectClient("127.0.0.1", server.port)

            def host() -> dict:
                return observer.stats()["admission"]["per_client"].get(
                    "127.0.0.1", {})
            threads = [threading.Thread(target=post) for _ in range(2)]
            threads[0].start()
            assert _until(lambda: host().get("in_flight") == 1)
            threads[1].start()
            assert _until(lambda: host().get("queued") == 1)
            third = _anonymous_post(server.port, INSPECT_SQL)
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            final = host()
        assert third["type"] == "error"
        assert third["code"] == protocol.ERR_REJECTED
        assert [reply["type"] for reply in replies] == ["result", "result"]
        assert (final["submitted"], final["completed"],
                final["rejected"]) == (2, 2, 1)


class TestServedTrace:
    """Every served query is traced; ``/stats`` keeps only the fold."""

    def test_layers_fold_every_served_query(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            client = InspectClient("127.0.0.1", server.port)
            assert "layers" in client.stats()       # present, empty
            n = 4
            client.query(INSPECT_SQL)
            cold = client.stats()["layers"]
            for _ in range(n - 1):
                client.query(INSPECT_SQL)
            client.query("SELECT mid FROM models")
            with pytest.raises(ServerError):
                client.query("SELECT nonsense FROM nowhere")
            stats = client.stats()
            layers = stats["layers"]
        served = n + 2
        for part in ("query", "admission_wait", "statement", "send"):
            assert layers[part] == {"calls": served,
                                    "total_s": layers[part]["total_s"]}
        # a failed statement has nothing to encode; its error is still sent
        assert layers["encode"]["calls"] == served - 1
        # the statement's own spans nest under it, names without their
        # [detail]: the fold cannot grow with what clients register
        assert layers["parse"]["calls"] == served
        assert layers["inspection"]["calls"] == 4 * n       # blocks
        assert layers["score"]["calls"] == 4 * n
        # only the first, cold query read blocks; every later one folded
        # the block statistics the first kept
        for part in ("hypothesis_extraction", "wait_sweeps"):
            assert cold[part]["calls"] >= 4, part
            assert layers[part] == cold[part], part
        assert layers["unit_extraction"]["calls"] \
            == cold["unit_extraction"]["calls"]
        kept = stats["session"]["hypothesis_cache"]
        assert (kept["stat_hits"], kept["stat_misses"]) == (4 * (n - 1), 4)
        assert layers["select"]["calls"] == 2    # one of them raised in it
        assert not any("[" in name for name in layers)
        parts = sum(layers[part]["total_s"] for part in (
            "admission_wait", "statement", "encode", "send"))
        assert 0 < parts <= layers["query"]["total_s"]

    def test_result_envelope_is_what_an_old_client_reads(
            self, trained_sql_model, sql_workload, hyps):
        session = make_session(trained_sql_model, sql_workload, hyps)
        with session, serve_in_thread(session) as server:
            reply = _anonymous_post(server.port, "SELECT mid FROM models")
        assert set(reply) == {"type", "frame", "elapsed_s"}
        assert reply["type"] == "result" and reply["elapsed_s"] > 0


# ----------------------------------------------------------------------
# python -m repro serve
# ----------------------------------------------------------------------
SERVE_SETUP = """\
from repro.data import generate_sql_workload
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.nn import CharLSTMModel
from repro.util.rng import new_rng

wl = generate_sql_workload("small", n_queries=8, window=20, stride=5,
                           seed=5, max_records=40)
session.register_model("m0", CharLSTMModel(len(wl.vocab), n_units=8,
                                           rng=new_rng(0), model_id="m0"))
session.register_dataset("d0", wl.dataset)
session.register_hypotheses(sql_keyword_hypotheses(("SELECT",)),
                            name="keywords")
"""


class TestServeCli:
    @staticmethod
    def _serve(*args: str):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)

    def test_serves_until_interrupted(self, tmp_path):
        import http.client
        import signal
        setup = tmp_path / "setup.py"
        setup.write_text(SERVE_SETUP, encoding="utf-8")
        proc = self._serve("--setup", str(setup))
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            port = int(line.rsplit(":", 1)[1])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                conn.request("GET", "/stats")
                response = conn.getresponse()
                assert response.status == 200
                assert "dedup" in protocol.parse_envelope(response.read())
            finally:
                conn.close()
            frame = InspectClient("127.0.0.1", port).query(
                INSPECT_SQL + " LIMIT 3")
            assert len(frame) == 3
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()

    def test_a_missing_setup_script_exits_2(self, tmp_path):
        proc = self._serve("--setup", str(tmp_path / "missing.py"))
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert "no such setup script" in err
