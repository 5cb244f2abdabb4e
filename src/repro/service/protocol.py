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
1-byte encoding tag (always ``3``), a 12-byte position header (``u64``
stream base position + ``u32`` CRC32 of the body), then the batch body
in **packed delta** form: the incremental form of
:class:`~repro.trace.packed.PackedTrace` columns. A
:class:`DeltaEncoder`/:class:`DeltaDecoder` pair mirrors the four
interner namespaces (threads, variables, locks, labels) for one
session; each frame ships only the names interned since the previous
frame, then the batch's dense ``(thread, op, target)`` integer triples.
Long streams stop paying for strings almost immediately. The decoder
builds no events: a frame decodes to a
:class:`~repro.trace.packed.DeltaBatch` (its new names and three integer
columns), which the session's own store absorbs.

The base makes at-least-once delivery idempotent — a server that
already ingested past ``base`` drops the overlap instead of
double-feeding — and the CRC turns any payload corruption into a typed
:class:`PayloadError` instead of silently different events. Any other
tag is rejected, so a frame from an older client fails typed instead
of decoding as garbage.

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

import json
import struct
import zlib
from enum import IntEnum
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from array import array
from itertools import compress

from ..trace.events import Event, Op
from ..trace.packed import _NAMESPACE_OF_OP, NO_TARGET, DeltaBatch, Interner

#: Protocol identifier carried in every HELLO.
PROTOCOL = "repro-wire/1"

#: Hard cap on one frame's (type + payload) size.
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">IB")  # frame length, frame type
_U32 = struct.Struct("<I")
_TABLE = struct.Struct("<II")  # name-table base, name count
_TRIPLE = struct.Struct("<IBi")  # thread index, op, target index
#: ``(ints, Struct)`` packing 2**k triples in one call, k = 9 down to
#: 0 ("<" packs without padding, so the bytes equal one ``_TRIPLE.pack``
#: per triple). A frame of any length is runs of the largest plus at
#: most one of each smaller: ten compiled formats, ~100 KB in all.
_TRIPLE_RUNS = tuple(
    (3 << k, struct.Struct("<" + "IBi" * (1 << k))) for k in range(9, -1, -1)
)

#: Per namespace, a ``bytes.translate`` table marking the op codes
#: whose target lives there (1) and the rest (0).
_NS_MASKS = tuple(
    bytes(int(code < 8 and _NAMESPACE_OF_OP[code] == ns) for code in range(256))
    for ns in range(4)
)
_LABELS = 3

#: Event-batch encoding tag (first payload byte of an EVENTS frame);
#: the body is prefixed with ``u64`` base + ``u32`` CRC32.
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
        return self.encode(ftype, _json_payload(obj))


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


class JSONRows(list):
    """A JSON array whose items are already rendered: a list of compact
    JSON texts, each the text of one item or of several consecutive
    items joined by commas, never empty (the finding rows a FLUSH or
    CLOSE drains, the ``violations`` arrays of a REPORT).

    :func:`encode_json` and :meth:`FrameEncoder.encode_json` place a
    value of this type, at any depth of dicts and lists, into the
    payload as the array of its rows, verbatim. Anywhere else it is a
    list of ``str``; it compares equal to the list its text decodes
    to, so a document carrying rows equals the same document as a
    client decodes it.
    """

    __slots__ = ()

    def decoded(self) -> List[Any]:
        """The items, decoded."""
        return json.loads("[" + ",".join(self) + "]")

    def __eq__(self, other: object) -> bool:
        if type(other) is JSONRows:
            other = other.decoded()
        elif not isinstance(other, list):
            return NotImplemented
        return self.decoded() == other

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


#: ``json.dumps(obj, separators=(",", ":"))`` without building a new
#: ``JSONEncoder`` per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: The value types :func:`_has_rows` looks into.
_NESTED = frozenset({dict, list, JSONRows})


def _json_payload(obj: Dict[str, Any]) -> bytes:
    """``obj``'s compact JSON text as bytes, rendered rows spliced in.
    An object without rows (every OK frame, a zero-finding FLUSH) costs
    one scan of its values on top of the encoder."""
    if not _has_rows(obj):
        return _encode(obj).encode("utf-8")
    out: List[str] = []
    _splice(obj, out)
    return "".join(out).encode("utf-8")


def _has_rows(value: Any) -> bool:
    """Whether a non-empty :class:`JSONRows` sits anywhere in ``value``
    (an empty one encodes as ``[]`` like any list)."""
    kind = type(value)
    if kind is dict:
        value = value.values()
    elif kind is not list:
        return kind is JSONRows and len(value) > 0
    for item in value:
        if type(item) in _NESTED and _has_rows(item):
            return True
    return False


def _splice(value: Any, out: List[str]) -> None:
    """Append the JSON text of ``value``, which holds rows, to ``out``
    with each :class:`JSONRows` in it decoded, built by structure: along
    the path of dicts and lists that leads to rows, each run of items
    without rows is encoded whole by the encoder, in the container's own
    order, and the rows go between the runs as arrays. The encoded text
    is never searched, and nothing is joined but the rows until the
    caller's final join."""
    if type(value) is JSONRows:
        out += ("[", ",".join(value), "]")
        return
    is_dict = type(value) is dict
    out.append("{" if is_dict else "[")
    run: Any = {} if is_dict else []
    for key, item in value.items() if is_dict else enumerate(value):
        if type(item) in _NESTED and _has_rows(item):
            if run:
                out += (_encode(run)[1:-1], ",")
                run = {} if is_dict else []
            if is_dict:
                out.append(_encode({key: None})[1:-5])  # '"key":'
            _splice(item, out)
            out.append(",")
        elif is_dict:
            run[key] = item
        else:
            run.append(item)
    if run:
        out.append(_encode(run)[1:-1])
    else:
        out.pop()  # the last rows' comma
    out.append("}" if is_dict else "]")


def encode_json(ftype: int, obj: Dict[str, Any]) -> bytes:
    """A frame whose payload is a JSON object (rows spliced in, as
    :class:`JSONRows` describes)."""
    return encode_frame(ftype, _json_payload(obj))


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


def _flag(obj: Dict[str, Any], key: str) -> bool:
    """A HELLO flag: absent means false, anything but a JSON bool fails."""
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise PayloadError(f"{key} must be a boolean, got {value!r}")
    return value


def parse_hello(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a HELLO payload and normalize its analysis specs.

    Returns a dict with keys ``analyses`` (list of ``(name, options)``
    pairs), ``name``, ``resume``, ``lenient``, ``epoch``, ``session``
    and ``meta``. A ``packed`` flag from older clients is still
    validated and then ignored: every session sweeps packed.

    Raises:
        PayloadError: On a protocol mismatch or a malformed field.
    """
    protocol = obj.get("protocol")
    if protocol != PROTOCOL:
        raise PayloadError(
            f"protocol {protocol!r} unsupported (want {PROTOCOL!r})"
        )
    raw = obj.get("analyses")
    _flag(obj, "packed")
    resume = _flag(obj, "resume")
    lenient = _flag(obj, "lenient")
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
    if epoch is not None and (type(epoch) is not int or epoch < 0):
        raise PayloadError("epoch must be a non-negative integer")
    return {
        "analyses": analyses,
        "name": name,
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
        "lenient": lenient,
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
    header = _encode(meta).encode("utf-8")
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


def _positioned(tables, count: int, triples: bytes, base: int) -> bytes:
    """One positioned EVENTS payload: the name-table deltas, the event
    count and the packed triples behind the tag, base and body CRC."""
    out = bytearray()
    for table_base, names in tables:
        out += _TABLE.pack(table_base, len(names))
        for name in names:
            raw = name.encode("utf-8")
            out += _U32.pack(len(raw))
            out += raw
    out += _U32.pack(count)
    out += triples
    header = _POS_HEADER.pack(base, zlib.crc32(out))
    return bytes([DELTA_EVENTS_POS]) + header + bytes(out)


def encode_batch(batch: DeltaBatch, base: int) -> bytes:
    """The positioned EVENTS payload that decodes back to ``batch``
    (same table bases, names and columns) at stream position ``base``:
    a spool log record."""
    triples = b"".join(map(_TRIPLE.pack, batch.threads, batch.ops, batch.targets))
    return _positioned(batch.tables, len(batch), triples, base)


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
        self._by_op = tuple(self._by_ns[ns] for ns in _NAMESPACE_OF_OP)
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
        # Known names are dict subscripts on the interners' own maps;
        # only a new name pays for ``index_of``.
        flat: List[int] = []
        threads = self.threads
        thread_index = threads._index
        by_op = self._by_op
        index_by_op = [interner._index for interner in by_op]
        for event in events:
            op = event.op
            target = event.target
            thread = event.thread
            try:
                t_idx = thread_index[thread]
            except KeyError:
                t_idx = threads.index_of(thread)
            if target is None:
                target_idx = NO_TARGET
            else:
                try:
                    target_idx = index_by_op[op][target]
                except KeyError:
                    target_idx = by_op[op].index_of(target)
            flat += (t_idx, op, target_idx)
        n = len(flat) // 3
        triples = _pack_triples(flat)
        tables = []
        for ns, interner in enumerate(self._by_ns):
            table_base = self._sent[ns]
            tables.append((table_base, interner.names_from(table_base)))
            self._sent[ns] = len(interner)
        return _positioned(tables, n, triples, base)


def _pack_triples(flat: List[int]) -> bytes:
    """``flat`` (thread, op, target, thread, ...) as packed triples, in
    one call per ``_TRIPLE_RUNS`` run."""
    parts = []
    lo = 0
    end = len(flat)
    for width, run in _TRIPLE_RUNS:
        while end - lo >= width:
            parts.append(run.pack(*flat[lo : lo + width]))
            lo += width
    return b"".join(parts)


class DeltaDecoder:
    """Server half of the packed-delta event encoding.

    Accumulates one stream's name tables frame by frame (they validate
    every frame's indices and retransmitted names) and decodes each
    body into a :class:`~repro.trace.packed.DeltaBatch`: the frame's own
    table bases and new names plus three integer columns, with no
    :class:`~repro.trace.events.Event` built. The tables mirror one
    :class:`DeltaEncoder`, so a connection needs a fresh decoder for
    every session it opens; ``tables`` (names by index, in namespace
    order) continues a stream whose earlier frames were decoded
    elsewhere, as spool log replay does.
    """

    def __init__(self, tables: Optional[Sequence[Sequence[str]]] = None) -> None:
        # variable, lock, thread, label — same order as the encoder.
        self._names: Tuple[List[str], ...] = (
            tuple(list(names) for names in tables) if tables
            else ([], [], [], [])
        )

    def whole(self, batch: DeltaBatch) -> DeltaBatch:
        """``batch`` carrying every name decoded so far, each table from
        0: what a receiver that lost track of the stream's names needs."""
        tables = tuple((0, names[:]) for names in self._names)
        return DeltaBatch(tables, batch.threads, batch.ops, batch.targets,
                          self._names)

    def decode(self, body: bytes) -> DeltaBatch:
        """Decode one delta body into a batch.

        Raises:
            PayloadError: On truncation, bad UTF-8, an op code outside
                the eight known kinds, or an index past the tables.
        """
        try:
            return self._decode(body)
        except struct.error:
            raise PayloadError("truncated delta body") from None

    def _decode(self, body: bytes) -> DeltaBatch:
        pos = 0
        deltas = []
        for names in self._names:
            base, count = _TABLE.unpack_from(body, pos)
            pos += _TABLE.size
            if count > len(body):  # cheap sanity bound before the loop
                raise PayloadError(f"absurd name count {count}")
            if base > len(names):
                raise PayloadError(
                    f"name table gap: frame base {base}, have {len(names)}"
                )
            new = []
            for _ in range(count):
                (size,) = _U32.unpack_from(body, pos)
                pos += _U32.size
                if size > len(body):
                    raise PayloadError(f"absurd name length {size}")
                if pos + size > len(body):
                    raise PayloadError("truncated delta body")
                try:
                    new.append(str(body[pos : pos + size], "utf-8"))
                except UnicodeDecodeError as exc:
                    raise PayloadError(f"bad name encoding: {exc}") from exc
                pos += size
            have = len(names) - base
            if have > 0:
                # a retransmitted frame (e.g. resent through BUSY): these
                # names are already in the table — don't shift them.
                for k, name in enumerate(new[:have]):
                    if names[base + k] != name:
                        raise PayloadError(
                            f"retransmit mismatch at index {base + k}"
                        )
                names.extend(new[have:])
            else:
                names.extend(new)
            deltas.append((base, new))
        (n,) = _U32.unpack_from(body, pos)
        pos += _U32.size
        if n * _TRIPLE.size != len(body) - pos:
            raise PayloadError(
                f"delta body claims {n} events, "
                f"{len(body) - pos} bytes of triples remain"
            )
        if n:
            threads, ops, targets = zip(*_TRIPLE.iter_unpack(memoryview(body)[pos:]))
            if (
                max(ops) > 7
                or max(threads) >= len(self._names[2])
                or not self._targets_known(ops, targets)
            ):
                self._reject(threads, ops, targets)
        else:
            threads = ops = targets = ()
        return DeltaBatch(tuple(deltas), array("i", threads), array("b", ops),
                          array("i", targets), self._names)

    def _targets_known(self, ops, targets) -> bool:
        """Whether every target index is in its op's table (``-1`` only
        on BEGIN/END), checked column-wise per namespace."""
        if min(targets) < NO_TARGET:
            return False
        codes = bytes(ops)
        for ns, names in enumerate(self._names):
            selected = list(compress(targets, codes.translate(_NS_MASKS[ns])))
            if selected and (
                max(selected) >= len(names)
                or (ns != _LABELS and min(selected) < 0)
            ):
                return False
        return True

    def _reject(self, threads, ops, targets) -> None:
        """Name the first bad event of a batch the column checks refused."""
        thread_table = self._names[2]
        for t_idx, op_code, target_idx in zip(threads, ops, targets):
            if op_code > 7:
                raise PayloadError(f"unknown op code {op_code}")
            op = Op(op_code)
            if t_idx >= len(thread_table):
                raise PayloadError(f"thread index {t_idx} unknown")
            if target_idx == NO_TARGET:
                if op not in (Op.BEGIN, Op.END):
                    raise PayloadError(f"{op.name} event without a target")
                continue
            table = self._names[_NAMESPACE_OF_OP[op]]
            if not 0 <= target_idx < len(table):
                raise PayloadError(
                    f"target index {target_idx} unknown for {op.name}"
                )
        raise AssertionError("column checks refused a valid batch")


def decode_events_ex(
    payload: bytes, decoder: DeltaDecoder
) -> Tuple[DeltaBatch, int]:
    """Decode an EVENTS payload through the session's ``decoder``.

    Returns ``(batch, base)`` — ``base`` is the stream position the
    batch claims to start at.

    Raises:
        PayloadError: On an unknown encoding tag, a CRC mismatch, or any
            body defect.
    """
    if not payload:
        raise PayloadError("empty EVENTS payload")
    tag = payload[0]
    if tag != DELTA_EVENTS_POS:
        raise PayloadError(
            f"unknown events encoding tag {tag} (EVENTS must be "
            f"positioned packed delta: tag {DELTA_EVENTS_POS})"
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
    return decoder.decode(body), base
