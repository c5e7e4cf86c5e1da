"""The wire layer: minimal HTTP/1.1 and RFC 6455 websocket framing.

No web framework — the protocol surface the server needs is small
enough to implement directly on ``asyncio`` streams, and keeping the
framing logic in *pure* functions (:func:`encode_ws_frame`,
:class:`WsMessageAssembler`) makes the edge cases — fragmented
messages, interleaved ping/pong, masked client frames, oversized
payloads — unit-testable without a socket in sight.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass, field

# RFC 6455 §1.3: fixed GUID appended to the client key before hashing
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_CONTROL_OPS = (OP_CLOSE, OP_PING, OP_PONG)

#: refuse assembled messages beyond this (64 MiB) — a malformed length
#: header must not make the server allocate unbounded memory
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024


class ProtocolError(Exception):
    """Malformed HTTP request or websocket frame."""


# ----------------------------------------------------------------------
# HTTP/1.1
# ----------------------------------------------------------------------
@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str]       # header names lower-cased
    body: bytes

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


async def read_http_request(reader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request from an asyncio stream.

    Returns ``None`` on a clean EOF before any bytes (client closed a
    keep-alive connection); raises :class:`ProtocolError` on garbage.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except Exception as exc:  # IncompleteReadError, LimitOverrunError
        partial = getattr(exc, "partial", b"")
        if not partial:
            return None
        raise ProtocolError("truncated HTTP request") from None
    if len(head) > _MAX_HEADER_BYTES:
        raise ProtocolError("HTTP header section too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, path, _ = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length < 0 or length > _MAX_BODY_BYTES:
        raise ProtocolError(f"unacceptable content-length: {length}")
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def http_response(status: int, reason: str, body: bytes = b"",
                  content_type: str = "application/json",
                  extra_headers: dict[str, str] | None = None,
                  keep_alive: bool = True) -> bytes:
    headers = [f"HTTP/1.1 {status} {reason}",
               f"Content-Length: {len(body)}",
               f"Content-Type: {content_type}",
               f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body


# ----------------------------------------------------------------------
# RFC 6455 websocket framing (pure functions — unit-tested directly)
# ----------------------------------------------------------------------
def websocket_accept_key(client_key: str) -> str:
    """``Sec-WebSocket-Accept`` for a client's ``Sec-WebSocket-Key``."""
    digest = hashlib.sha1((client_key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def handshake_response(client_key: str) -> bytes:
    return ("HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {websocket_accept_key(client_key)}"
            "\r\n\r\n").encode("latin-1")


def _check_control_frame(opcode: int, payload: bytes, fin: bool) -> None:
    """RFC 6455 §5.5: a control frame is unfragmented with at most 125
    payload bytes; §5.5.1: a close body starts with a 2-byte status code."""
    if opcode not in _CONTROL_OPS:
        return
    if len(payload) > 125 or not fin:
        raise ProtocolError("control frames must be short and unfragmented")
    if opcode == OP_CLOSE and len(payload) == 1:
        raise ProtocolError("close payload of 1 byte")


def encode_ws_frame(payload: bytes, opcode: int = OP_TEXT, fin: bool = True,
                    mask: bytes | None = None) -> bytes:
    """Serialize one websocket frame.

    Servers send unmasked frames (``mask=None``); clients MUST mask
    (RFC 6455 §5.3) and pass their 4-byte masking key.
    """
    _check_control_frame(opcode, payload, fin)
    head = bytearray([(0x80 if fin else 0) | opcode])
    mask_bit = 0x80 if mask is not None else 0
    n = len(payload)
    if n < 126:
        head.append(mask_bit | n)
    elif n < 1 << 16:
        head.append(mask_bit | 126)
        head += n.to_bytes(2, "big")
    else:
        head.append(mask_bit | 127)
        head += n.to_bytes(8, "big")
    if mask is not None:
        if len(mask) != 4:
            raise ProtocolError("masking key must be 4 bytes")
        head += mask
        payload = apply_mask(payload, mask)
    return bytes(head) + payload


def apply_mask(payload: bytes, mask: bytes) -> bytes:
    """XOR-mask/unmask a payload with a 4-byte key (involution)."""
    reps = -(-len(payload) // 4)
    return bytes(a ^ b for a, b in zip(payload, mask * reps))


@dataclass
class WsFrame:
    fin: bool
    opcode: int
    payload: bytes
    masked: bool = False


def decode_ws_frame(buf: bytes | bytearray) -> tuple[WsFrame, int] | None:
    """Decode one frame from the head of ``buf``.

    Returns ``(frame, bytes_consumed)``, or ``None`` if the buffer does
    not yet hold a complete frame (the caller reads more and retries).
    """
    if len(buf) < 2:
        return None
    b0, b1 = buf[0], buf[1]
    if b0 & 0x70:
        raise ProtocolError("RSV bits set without a negotiated extension")
    fin, opcode = bool(b0 & 0x80), b0 & 0x0F
    masked, n = bool(b1 & 0x80), b1 & 0x7F
    offset = 2
    if n == 126:
        if len(buf) < offset + 2:
            return None
        n = int.from_bytes(buf[offset:offset + 2], "big")
        offset += 2
    elif n == 127:
        if len(buf) < offset + 8:
            return None
        n = int.from_bytes(buf[offset:offset + 8], "big")
        offset += 8
    if n > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame payload of {n} bytes exceeds limit")
    mask = b""
    if masked:
        if len(buf) < offset + 4:
            return None
        mask = bytes(buf[offset:offset + 4])
        offset += 4
    if len(buf) < offset + n:
        return None
    payload = bytes(buf[offset:offset + n])
    if masked:
        payload = apply_mask(payload, mask)
    return (WsFrame(fin=fin, opcode=opcode, payload=payload, masked=masked),
            offset + n)


@dataclass
class WsMessageAssembler:
    """Incremental frame → message assembly (fragmentation, control frames).

    Feed raw bytes with :meth:`feed`; it returns a list of events:
    ``("text", str)`` / ``("binary", bytes)`` for completed messages,
    ``("ping", payload)`` (the caller answers with a pong),
    ``("pong", payload)`` and ``("close", payload)``.  Control frames
    may arrive *between* the fragments of a message (RFC 6455 §5.4) —
    they are surfaced immediately without disturbing reassembly.
    """

    require_mask: bool = True      # servers must refuse unmasked clients
    _buf: bytearray = field(default_factory=bytearray)
    _parts: list[bytes] = field(default_factory=list)
    _opcode: int | None = None     # opcode of the in-progress message

    def feed(self, data: bytes) -> list[tuple[str, object]]:
        self._buf += data
        events: list[tuple[str, object]] = []
        while True:
            decoded = decode_ws_frame(self._buf)
            if decoded is None:
                return events
            frame, consumed = decoded
            del self._buf[:consumed]
            events += self._on_frame(frame)

    def _on_frame(self, frame: WsFrame) -> list[tuple[str, object]]:
        if self.require_mask and not frame.masked:
            # RFC 6455 §5.1: a server MUST refuse unmasked client frames
            raise ProtocolError("client frames must be masked")
        _check_control_frame(frame.opcode, frame.payload, frame.fin)
        if frame.opcode == OP_PING:
            return [("ping", frame.payload)]
        if frame.opcode == OP_PONG:
            return [("pong", frame.payload)]
        if frame.opcode == OP_CLOSE:
            return [("close", frame.payload)]
        if frame.opcode in (OP_TEXT, OP_BINARY):
            if self._opcode is not None:
                raise ProtocolError("new message before fragment finished")
            self._opcode = frame.opcode
        elif frame.opcode == OP_CONT:
            if self._opcode is None:
                raise ProtocolError("continuation frame with no message")
        else:
            raise ProtocolError(f"unknown opcode {frame.opcode:#x}")
        self._parts.append(frame.payload)
        if sum(map(len, self._parts)) > MAX_MESSAGE_BYTES:
            raise ProtocolError("assembled message exceeds size limit")
        if not frame.fin:
            return []
        payload, opcode = b"".join(self._parts), self._opcode
        self._parts, self._opcode = [], None
        if opcode == OP_TEXT:
            try:
                return [("text", payload.decode("utf-8"))]
            except UnicodeDecodeError:
                raise ProtocolError("invalid UTF-8 in text message") from None
        return [("binary", payload)]


# ----------------------------------------------------------------------
# asyncio-facing websocket wrapper
# ----------------------------------------------------------------------
class AsyncWebSocket:
    """A server-side websocket over asyncio streams.

    Thin: framing is delegated to the pure layer above; this class only
    pumps bytes and answers pings.  ``recv()`` returns the next text
    message, or ``None`` once the peer closes (a close frame is echoed
    back per RFC 6455 §5.5.1).
    """

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._assembler = WsMessageAssembler()
        self._pending: list[str] = []
        self._closed = False

    async def send_text(self, text: str) -> None:
        if self._closed:
            return
        self._writer.write(encode_ws_frame(text.encode("utf-8"), OP_TEXT))
        await self._writer.drain()

    async def recv(self) -> str | None:
        while True:
            if self._pending:
                return self._pending.pop(0)
            if self._closed:
                return None
            data = await self._reader.read(65536)
            if not data:
                self._closed = True
                return None
            for kind, payload in self._assembler.feed(data):
                if kind == "text":
                    self._pending.append(payload)
                elif kind == "ping":
                    self._writer.write(encode_ws_frame(payload, OP_PONG))
                    await self._writer.drain()
                elif kind == "close":
                    if not self._closed:
                        self._closed = True
                        self._writer.write(
                            encode_ws_frame(payload[:2], OP_CLOSE))
                        await self._writer.drain()
                    return None
                # pongs are heartbeat answers: nothing to do

    async def close(self, code: int = 1000) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.write(
                encode_ws_frame(code.to_bytes(2, "big"), OP_CLOSE))
            await self._writer.drain()
        except (ConnectionError, RuntimeError):
            pass
