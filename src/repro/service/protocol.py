"""The ``repro-wire/1`` framed wire format — pure encode/decode.

Every message between a streaming client and the analysis service is
one **frame**::

    +----------------+--------+------------------+
    | length (u32 BE)| type u8| payload bytes    |
    +----------------+--------+------------------+

``length`` counts the type byte plus the payload, so an empty frame has
length 1. Frames are capped at :data:`MAX_FRAME` — a stream claiming
more is corrupt by definition and fails before any allocation.

Client→server types: ``HELLO`` (open or resume a session), ``EVENTS``
(one batch of events), ``CHECKPOINT``, ``FLUSH``, ``CLOSE``, ``STATS``.
Server→client: ``OK``, ``REPORT`` (the final ``repro-report/1``
document), ``VIOLATION`` (new findings), ``ERROR``, ``BUSY``
(backpressure: the session's shard queue is full, retry).

All payloads are UTF-8 JSON except ``EVENTS``, whose payload is a
1-byte encoding tag, a 12-byte position header (``u64`` stream base
position + ``u32`` CRC32 of the body), then the batch body:

* tag ``2`` — **text**: newline-joined ``.std`` event lines, exactly
  the :mod:`repro.trace.parser` grammar;
* tag ``3`` — **packed delta**: the incremental form of
  :class:`~repro.trace.packed.PackedTrace` columns. A
  :class:`DeltaEncoder`/:class:`DeltaDecoder` pair mirrors the four
  interner namespaces (threads, variables, locks, labels); each frame
  ships only the names interned since the previous frame, then the
  batch's dense ``(thread, op, target)`` integer triples. Long streams
  stop paying for strings almost immediately.

The base makes at-least-once delivery idempotent — a server that
already ingested past ``base`` drops the overlap instead of
double-feeding — and the CRC turns any payload corruption into a typed
:class:`PayloadError` instead of silently different events. Tags 0/1,
the unpositioned forms of the same bodies, are rejected.

Everything here is pure — no sockets, no sessions — and hardened the
same way the binary trace reader is: any corrupt or truncated input
raises a typed :class:`WireError` (``FrameError`` at the framing layer,
``PayloadError`` inside a payload), never an uncontrolled exception.
``tests/test_service_protocol.py`` fuzzes exactly that contract.

The framing layer is **sans-IO**: :class:`FrameDecoder` is an
incremental decoder fed arbitrary byte chunks (it owns a compacting
ring buffer of :class:`memoryview`-sliced bytes, so partial frames cost
nothing and no per-frame ``bytes`` joins ever happen), and
:class:`FrameEncoder` is its outbound twin. Neither knows what a socket
is — the blocking shim :class:`FrameStream` (client SDK, cluster peer
calls) and the server's ``selectors`` event loop both drive the same
codec.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from enum import IntEnum
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..trace.events import Event, Op
from ..trace.packed import _NAMESPACE_OF_OP, NO_TARGET, Interner
from ..trace.parser import TraceParseError, parse_fields

#: Protocol identifier carried in every HELLO.
PROTOCOL = "repro-wire/1"

#: Hard cap on one frame's (type + payload) size.
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">IB")  # frame length, frame type
_U32 = struct.Struct("<I")
_TRIPLE = struct.Struct("<IBi")  # thread index, op, target index

#: Event-batch encoding tags (first payload byte of an EVENTS frame);
#: the body is prefixed with ``u64`` base + ``u32`` CRC32.
TEXT_EVENTS_POS = 2
DELTA_EVENTS_POS = 3

_POS_HEADER = struct.Struct("<QI")  # stream base position, body CRC32


class WireError(Exception):
    """Base of every protocol-level failure (never raised raw)."""


class FrameError(WireError):
    """The framing layer is broken: truncation, oversize, unknown type."""


class PayloadError(WireError):
    """A well-framed payload failed to decode."""


class FrameType(IntEnum):
    """Frame type codes of ``repro-wire/1``."""

    # client -> server
    HELLO = 1
    EVENTS = 2
    CHECKPOINT = 3
    FLUSH = 4
    CLOSE = 5
    STATS = 6
    # cluster control (node -> node; RING also client -> node to fetch
    # the membership document for ring-aware routing)
    JOIN = 7
    RING = 8
    HANDOFF = 9
    OWNED = 10
    # server -> client
    OK = 16
    REPORT = 17
    VIOLATION = 18
    ERROR = 19
    BUSY = 20
    REDIRECT = 21
    # Epoch fence: the receiver's membership view is stale (its epoch
    # is behind the sender's), or the sender's is (a HANDOFF/OWNED
    # carrying an old epoch). The write was rejected; refresh and
    # re-route instead of double-serving.
    FENCED = 22


_KNOWN_TYPES = frozenset(int(t) for t in FrameType)


# -- framing ----------------------------------------------------------------


def _check_header(length: int, ftype: int) -> None:
    """The one copy of frame-header validation every path goes through."""
    if length < 1 or length > MAX_FRAME:
        raise FrameError(f"frame length {length} out of range [1, {MAX_FRAME}]")
    if ftype not in _KNOWN_TYPES:
        raise FrameError(f"unknown frame type {ftype}")


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    """One wire frame: header + type + payload."""
    length = 1 + len(payload)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds MAX_FRAME")
    return _HEADER.pack(length, ftype) + payload


class RingBuffer:
    """A compacting byte ring for incremental decoding.

    Appends are amortized O(1); reads hand out ``memoryview`` slices of
    the single backing ``bytearray``, so a frame arriving in N chunks
    never costs a join. Consumed bytes are reclaimed lazily: the buffer
    compacts only when the dead prefix outweighs the live bytes (or
    passes a fixed threshold), keeping per-chunk work constant.
    """

    #: Compact whenever this many consumed bytes sit ahead of the data.
    COMPACT_AT = 64 * 1024

    __slots__ = ("_buf", "_start", "high_water")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._start = 0
        #: Most bytes ever buffered at once (service-stats gauge).
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._buf) - self._start

    def write(self, data) -> None:
        """Append one received chunk (bytes-like)."""
        start = self._start
        if start and (start >= len(self._buf) - start or start >= self.COMPACT_AT):
            del self._buf[:start]
            self._start = 0
        self._buf += data
        live = len(self._buf) - self._start
        if live > self.high_water:
            self.high_water = live

    def view(self) -> memoryview:
        """A zero-copy view of the unconsumed bytes."""
        return memoryview(self._buf)[self._start :]

    def take(self, n: int) -> bytes:
        """Consume and return the first ``n`` buffered bytes."""
        out = bytes(self._buf[self._start : self._start + n])
        self._start += n
        return out

    def skip(self, n: int) -> None:
        """Consume ``n`` bytes without materializing them."""
        self._start += n


class FrameDecoder:
    """Incremental ``repro-wire/1`` frame decoder — the sans-IO core.

    Feed it byte chunks exactly as they arrive (:meth:`feed`); pull
    complete ``(type, payload)`` frames out with :meth:`next_frame` or
    by iterating. Partial frames simply stay buffered in the ring;
    corrupt framing raises :class:`FrameError` at the earliest byte
    that proves the stream broken. No sockets, no blocking — the
    server's event loop, :class:`FrameStream` and the fuzz suite all
    drive this same object.
    """

    __slots__ = ("_ring", "frames_decoded")

    def __init__(self) -> None:
        self._ring = RingBuffer()
        #: Complete frames decoded over this connection's lifetime.
        self.frames_decoded = 0

    @property
    def buffered(self) -> int:
        """Bytes currently sitting in the ring (partial frame)."""
        return len(self._ring)

    @property
    def high_water(self) -> int:
        """Most bytes ever buffered at once."""
        return self._ring.high_water

    def feed(self, data) -> None:
        """Buffer one received chunk (any bytes-like, any split)."""
        self._ring.write(data)

    def needed(self) -> int:
        """Bytes still missing before :meth:`next_frame` can succeed.

        Validates the buffered header as a side effect (so a blocking
        caller can read *exactly* the right amount and still fail fast
        on garbage).

        Raises:
            FrameError: If the buffered header is invalid.
        """
        have = len(self._ring)
        if have < _HEADER.size:
            return _HEADER.size - have
        length, ftype = _HEADER.unpack_from(self._ring.view())
        _check_header(length, ftype)
        return max(0, _HEADER.size + (length - 1) - have)

    def next_frame(self) -> Optional[Tuple[int, bytes]]:
        """Decode one complete frame, or ``None`` (feed more bytes).

        Raises:
            FrameError: On an oversize length or an unknown frame type.
        """
        if self.needed():
            return None
        length, ftype = _HEADER.unpack_from(self._ring.view())
        self._ring.skip(_HEADER.size)
        payload = self._ring.take(length - 1) if length > 1 else b""
        self.frames_decoded += 1
        return ftype, payload

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:
        """Drain every currently-complete frame."""
        while True:
            frame = self.next_frame()
            if frame is None:
                return
            yield frame


class FrameEncoder:
    """Outbound half of the codec: frames in, counted bytes out.

    Stateless apart from its counters (the wire format needs no
    outbound state) — it accounts the server's reply traffic for
    ``service-stats``.
    """

    __slots__ = ("frames_encoded", "bytes_encoded")

    def __init__(self) -> None:
        self.frames_encoded = 0
        self.bytes_encoded = 0

    def encode(self, ftype: int, payload: bytes = b"") -> bytes:
        frame = encode_frame(ftype, payload)
        self.frames_encoded += 1
        self.bytes_encoded += len(frame)
        return frame

    def encode_json(self, ftype: int, obj: Dict[str, Any]) -> bytes:
        return self.encode(
            ftype, json.dumps(obj, separators=(",", ":")).encode("utf-8")
        )


class FrameStream:
    """Blocking-transport shim over :class:`FrameDecoder`.

    Wraps a binary stream (a socket ``makefile`` or any object with
    ``read(n)``) and yields frames. This is the *one* blocking read
    loop in the codebase — the client SDK and the cluster's peer calls
    both use it, so there are no duplicated read loops to drift apart.
    """

    __slots__ = ("_stream", "_decoder")

    def __init__(self, stream) -> None:
        self._stream = stream
        self._decoder = FrameDecoder()

    @property
    def decoder(self) -> FrameDecoder:
        return self._decoder

    def read_frame(self) -> Optional[Tuple[int, bytes]]:
        """Read one frame; ``None`` on a clean EOF at a frame boundary.

        Raises:
            FrameError: On EOF inside a frame, oversize, unknown type.
        """
        while True:
            need = self._decoder.needed()  # raises on a corrupt header
            if not need:
                return self._decoder.next_frame()
            data = self._stream.read(need)
            if not data:
                if self._decoder.buffered:
                    raise FrameError(
                        "truncated frame: EOF after "
                        f"{self._decoder.buffered} buffered byte(s)"
                    )
                return None  # clean EOF
            self._decoder.feed(data)


def decode_frame(
    data: bytes, offset: int = 0
) -> Optional[Tuple[int, bytes, int]]:
    """Decode one frame from ``data[offset:]`` (one-shot form).

    Returns ``(type, payload, next_offset)``, or ``None`` when the
    buffer holds only an incomplete frame (read more and retry).

    Raises:
        FrameError: On an oversize length or an unknown frame type.
    """
    if len(data) - offset < _HEADER.size:
        return None
    length, ftype = _HEADER.unpack_from(data, offset)
    _check_header(length, ftype)
    end = offset + _HEADER.size + (length - 1)
    if len(data) < end:
        return None
    return ftype, bytes(data[offset + _HEADER.size : end]), end


# -- JSON payloads ----------------------------------------------------------


def encode_json(ftype: int, obj: Dict[str, Any]) -> bytes:
    """A frame whose payload is a JSON object."""
    return encode_frame(
        ftype, json.dumps(obj, separators=(",", ":")).encode("utf-8")
    )


def decode_json(payload: bytes) -> Dict[str, Any]:
    """Decode a JSON-object payload.

    Raises:
        PayloadError: On invalid UTF-8/JSON or a non-object document.
    """
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise PayloadError(f"bad JSON payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise PayloadError(
            f"JSON payload must be an object, got {type(obj).__name__}"
        )
    return obj


def parse_hello(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a HELLO payload and normalize its analysis specs.

    Returns a dict with keys ``analyses`` (list of ``(name, options)``
    pairs), ``name``, ``packed``, ``resume``, ``lenient``, ``epoch``,
    ``session`` and ``meta``.

    Raises:
        PayloadError: On a protocol mismatch or a malformed field.
    """
    protocol = obj.get("protocol")
    if protocol != PROTOCOL:
        raise PayloadError(
            f"protocol {protocol!r} unsupported (want {PROTOCOL!r})"
        )
    raw = obj.get("analyses")
    resume = bool(obj.get("resume", False))
    if not isinstance(raw, list) or (not raw and not resume):
        raise PayloadError("HELLO must carry a non-empty analyses list")
    analyses: List[Tuple[str, Dict[str, Any]]] = []
    for entry in raw:
        if isinstance(entry, str):
            analyses.append((entry, {}))
        elif isinstance(entry, dict) and isinstance(entry.get("name"), str):
            options = entry.get("options", {})
            if not isinstance(options, dict):
                raise PayloadError("analysis options must be an object")
            analyses.append((entry["name"], options))
        else:
            raise PayloadError(f"bad analysis spec {entry!r}")
    session = obj.get("session")
    if session is not None and not isinstance(session, str):
        raise PayloadError("session id must be a string")
    if resume and session is None:
        raise PayloadError("resume requires a session id")
    name = obj.get("name", "stream")
    if not isinstance(name, str):
        raise PayloadError("trace name must be a string")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise PayloadError("meta must be an object")
    epoch = obj.get("epoch")
    if epoch is not None and (not isinstance(epoch, int) or epoch < 0):
        raise PayloadError("epoch must be a non-negative integer")
    return {
        "analyses": analyses,
        "name": name,
        "packed": bool(obj.get("packed", False)),
        "resume": resume,
        # Epoch fence: the membership epoch the client routed by. The
        # connection pins it; every shard-bound frame on the connection
        # (EVENTS, FLUSH, CHECKPOINT, CLOSE) inherits the pin, and a
        # node whose own epoch has fallen behind answers FENCED instead
        # of silently serving writes it may no longer own.
        "epoch": epoch,
        # Lenient resume: if nothing resumable exists (no live session,
        # no spool entry, no shipped replica), open fresh at position 0
        # instead of erroring — the cluster client's failover path,
        # where a session may die before its first checkpoint ships.
        "lenient": bool(obj.get("lenient", False)),
        "session": session,
        "meta": meta,
    }


# -- HANDOFF payloads -------------------------------------------------------

_HANDOFF_META = struct.Struct("<I")  # header JSON length
_HANDOFF_BLOB = struct.Struct("<IQ")  # payload crc32, payload length


def encode_handoff(meta: Dict[str, Any], blob: bytes) -> bytes:
    """A HANDOFF payload: JSON header + CRC-guarded checkpoint bytes.

    ``meta`` describes the shipment (``session``, ``position``,
    ``live``, ``epoch``, ``origin``); ``blob`` is the frozen
    :class:`~repro.service.recovery.SessionCheckpoint` exactly as the
    spool stores it — a migration literally ships the spool entry.
    """
    header = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    return (
        _HANDOFF_META.pack(len(header))
        + header
        + _HANDOFF_BLOB.pack(zlib.crc32(blob), len(blob))
        + blob
    )


def decode_handoff(payload: bytes) -> Tuple[Dict[str, Any], bytes]:
    """Decode a HANDOFF payload -> ``(meta, checkpoint_blob)``.

    Raises:
        PayloadError: On truncation, bad JSON, or a blob CRC mismatch.
    """
    if len(payload) < _HANDOFF_META.size:
        raise PayloadError("truncated handoff payload")
    (header_len,) = _HANDOFF_META.unpack_from(payload)
    pos = _HANDOFF_META.size
    if header_len > len(payload) - pos:
        raise PayloadError("truncated handoff header")
    meta = decode_json(payload[pos : pos + header_len])
    pos += header_len
    if len(payload) - pos < _HANDOFF_BLOB.size:
        raise PayloadError("truncated handoff blob header")
    crc, length = _HANDOFF_BLOB.unpack_from(payload, pos)
    pos += _HANDOFF_BLOB.size
    blob = payload[pos:]
    if len(blob) != length:
        raise PayloadError(
            f"handoff blob is {len(blob)} bytes, header claims {length}"
        )
    if zlib.crc32(blob) != crc:
        raise PayloadError("handoff blob CRC mismatch (corrupt shipment)")
    return meta, blob


# -- EVENTS payloads --------------------------------------------------------


def _positioned(tag: int, base: int, body: bytes) -> bytes:
    return bytes([tag]) + _POS_HEADER.pack(base, zlib.crc32(body)) + body


def encode_events_text(events: Iterable[Event], base: int) -> bytes:
    """An EVENTS payload in text encoding (``.std`` lines).

    ``base`` is the stream position of the batch's first event: the
    server drops duplicate deliveries by it and verifies the body CRC.
    """
    body = "\n".join(str(event) for event in events).encode("utf-8")
    return _positioned(TEXT_EVENTS_POS, base, body)


class DeltaEncoder:
    """Client half of the packed-delta event encoding.

    Owns the four interner namespaces for one stream and remembers how
    many names of each the peer has already seen; :meth:`encode` ships
    only the new ones, then the batch's integer triples. Mirrors
    :class:`~repro.trace.packed.PackedTrace.from_trace`'s namespace
    discipline exactly, so indices mean the same thing on both ends.
    """

    def __init__(self) -> None:
        self.threads = Interner()
        self.variables = Interner()
        self.locks = Interner()
        self.labels = Interner()
        # namespace order matches trace.packed: variable, lock, thread, label
        self._by_ns = (self.variables, self.locks, self.threads, self.labels)
        self._sent = [0, 0, 0, 0]

    def encode(self, events: Iterable[Event], base: int) -> bytes:
        """One EVENTS payload (delta encoding) for this batch.

        Each namespace's name table is prefixed with its **base index**
        (how many names the peer already has), which makes frames
        retransmission-safe: a decoder that already absorbed a frame's
        names (say, before answering ``BUSY``) recognizes the resent
        base and skips the duplicates instead of shifting every later
        index. ``base`` (the batch's stream position) adds event-level
        duplicate dropping and a body CRC on top.
        """
        triples = bytearray()
        n = 0
        thread_of = self.threads.index_of
        for event in events:
            op = event.op
            target = event.target
            t_idx = thread_of(event.thread)
            if target is None:
                target_idx = NO_TARGET
            else:
                target_idx = self._by_ns[_NAMESPACE_OF_OP[op]].index_of(target)
            triples += _TRIPLE.pack(t_idx, op, target_idx)
            n += 1
        out = bytearray()
        for ns, interner in enumerate(self._by_ns):
            table_base = self._sent[ns]
            names = interner.names_from(table_base)
            self._sent[ns] = len(interner)
            out += _U32.pack(table_base)
            out += _U32.pack(len(names))
            for name in names:
                raw = name.encode("utf-8")
                out += _U32.pack(len(raw))
                out += raw
        out += _U32.pack(n)
        out += triples
        return _positioned(DELTA_EVENTS_POS, base, bytes(out))


class DeltaDecoder:
    """Server half of the packed-delta event encoding.

    Accumulates the name tables frame by frame and reconstructs
    :class:`~repro.trace.events.Event` objects with global stream
    indices stamped by the caller.
    """

    def __init__(self) -> None:
        # variable, lock, thread, label — same order as the encoder.
        self._names: Tuple[List[str], ...] = ([], [], [], [])

    def decode(self, body: bytes) -> List[Event]:
        """Decode one delta body into events.

        Raises:
            PayloadError: On truncation, bad UTF-8, an op code outside
                the eight known kinds, or an index past the tables.
        """
        view = memoryview(body)
        pos = 0

        def take(n: int) -> memoryview:
            nonlocal pos
            if len(view) - pos < n:
                raise PayloadError("truncated delta body")
            chunk = view[pos : pos + n]
            pos += n
            return chunk

        for names in self._names:
            (base,) = _U32.unpack(take(4))
            (count,) = _U32.unpack(take(4))
            if count > len(body):  # cheap sanity bound before the loop
                raise PayloadError(f"absurd name count {count}")
            if base > len(names):
                raise PayloadError(
                    f"name table gap: frame base {base}, have {len(names)}"
                )
            for k in range(count):
                (size,) = _U32.unpack(take(4))
                if size > len(body):
                    raise PayloadError(f"absurd name length {size}")
                try:
                    name = bytes(take(size)).decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise PayloadError(f"bad name encoding: {exc}") from exc
                if base + k < len(names):
                    # a retransmitted frame (e.g. resent through BUSY):
                    # this name is already in the table — don't shift it.
                    if names[base + k] != name:
                        raise PayloadError(
                            f"retransmit mismatch at index {base + k}"
                        )
                else:
                    names.append(name)
        (n,) = _U32.unpack(take(4))
        if n * _TRIPLE.size != len(view) - pos:
            raise PayloadError(
                f"delta body claims {n} events, "
                f"{len(view) - pos} bytes of triples remain"
            )
        variables, locks, threads, labels = self._names
        events: List[Event] = []
        for _ in range(n):
            t_idx, op_code, target_idx = _TRIPLE.unpack(take(_TRIPLE.size))
            if op_code > 7:
                raise PayloadError(f"unknown op code {op_code}")
            op = Op(op_code)
            try:
                thread = threads[t_idx]
            except IndexError:
                raise PayloadError(f"thread index {t_idx} unknown") from None
            if target_idx == NO_TARGET:
                if op not in (Op.BEGIN, Op.END):
                    raise PayloadError(f"{op.name} event without a target")
                target = None
            else:
                table = self._names[_NAMESPACE_OF_OP[op]]
                if not 0 <= target_idx < len(table):
                    raise PayloadError(
                        f"target index {target_idx} unknown for {op.name}"
                    )
                target = table[target_idx]
            events.append(Event(thread, op, target))
        return events


def _decode_text_body(body: bytes) -> List[Event]:
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PayloadError(f"bad text encoding: {exc}") from exc
    events: List[Event] = []
    for line_number, line in enumerate(io.StringIO(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            thread, op, target = parse_fields(stripped, line_number)
        except TraceParseError as exc:
            raise PayloadError(str(exc)) from exc
        events.append(Event(thread, op, target))
    return events


def decode_events_ex(
    payload: bytes, decoder: Optional[DeltaDecoder] = None
) -> Tuple[List[Event], int]:
    """Decode an EVENTS payload of either encoding.

    Returns ``(events, base)`` — ``base`` is the stream position the
    batch claims to start at. ``decoder`` carries the per-stream delta
    state; text payloads do not need one. Returned events carry
    ``idx = -1`` — the session stamps global stream positions.

    Raises:
        PayloadError: On an unknown or unpositioned encoding tag, a CRC
            mismatch, or any body defect.
    """
    if not payload:
        raise PayloadError("empty EVENTS payload")
    tag = payload[0]
    if tag not in (TEXT_EVENTS_POS, DELTA_EVENTS_POS):
        raise PayloadError(
            f"unknown events encoding tag {tag} (EVENTS must be "
            f"positioned: tag {TEXT_EVENTS_POS} or {DELTA_EVENTS_POS})"
        )
    body = payload[1:]
    if len(body) < _POS_HEADER.size:
        raise PayloadError("truncated positioned-events header")
    base, crc = _POS_HEADER.unpack_from(body)
    body = body[_POS_HEADER.size :]
    if zlib.crc32(body) != crc:
        raise PayloadError(
            f"events body CRC mismatch at base {base} (corrupt frame)"
        )
    if tag == TEXT_EVENTS_POS:
        return _decode_text_body(body), base
    if decoder is None:
        raise PayloadError("delta-encoded events need a stream decoder")
    return decoder.decode(body), base
