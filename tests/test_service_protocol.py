"""Wire-format robustness: corrupt frames must fail cleanly.

Mirror of ``tests/test_binary_fuzz.py`` for the ``repro-wire/1``
protocol: encode/decode round-trips valid traffic; every byte-corrupted,
truncated or arbitrary input either decodes to something valid or
raises a **typed** :class:`~repro.service.protocol.WireError` — never a
raw ``struct.error``/``IndexError``/``UnicodeDecodeError``, and never
garbage accepted silently.
"""

import io
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import protocol
from repro.service.protocol import (
    DeltaDecoder,
    DeltaEncoder,
    FrameError,
    FrameType,
    PayloadError,
    FrameStream,
    WireError,
    decode_events_ex,
    decode_frame,
    decode_json,
    encode_events_text,
    encode_frame,
    encode_json,
    parse_hello,
)
from repro.sim.random_traces import RandomTraceConfig, random_trace


def make_events(seed, length=20):
    trace = random_trace(
        seed, RandomTraceConfig(n_threads=3, n_vars=3, n_locks=2, length=length)
    )
    return list(trace)


#: Bytes ahead of an EVENTS body: the tag, the u64 base, the u32 CRC.
POS_PREFIX = 1 + 12


def positioned_text(body, base=0):
    """A positioned text EVENTS payload around a raw (maybe bad) body."""
    return bytes([2]) + struct.pack("<QI", base, zlib.crc32(body)) + body


def delta_body(events):
    """The bare delta body the encoder puts behind the position header."""
    return DeltaEncoder().encode(events, base=0)[POS_PREFIX:]


def eq_events(a, b):
    return [(e.thread, e.op, e.target) for e in a] == [
        (e.thread, e.op, e.target) for e in b
    ]


# -- framing ----------------------------------------------------------------


def test_frame_round_trip():
    frame = encode_frame(FrameType.FLUSH, b"payload")
    ftype, payload, end = decode_frame(frame)
    assert (ftype, payload, end) == (FrameType.FLUSH, b"payload", len(frame))


def test_incomplete_frame_returns_none():
    frame = encode_frame(FrameType.EVENTS, b"x" * 100)
    assert decode_frame(frame[:3]) is None
    assert decode_frame(frame[:-1]) is None


def test_oversize_frame_rejected_both_ways():
    with pytest.raises(FrameError, match="MAX_FRAME"):
        encode_frame(FrameType.EVENTS, b"x" * protocol.MAX_FRAME)
    bad = (protocol.MAX_FRAME + 10).to_bytes(4, "big") + bytes([2]) + b"xx"
    with pytest.raises(FrameError, match="out of range"):
        decode_frame(bad)


def test_unknown_frame_type_rejected():
    bad = (1).to_bytes(4, "big") + bytes([99])
    with pytest.raises(FrameError, match="unknown frame type"):
        decode_frame(bad)


def test_read_frame_truncation_and_eof():
    frame = encode_frame(FrameType.OK, b"abc")
    assert FrameStream(io.BytesIO(frame)).read_frame() == (FrameType.OK, b"abc")
    assert FrameStream(io.BytesIO(b"")).read_frame() is None  # clean EOF
    with pytest.raises(FrameError, match="truncated"):
        FrameStream(io.BytesIO(frame[:-1])).read_frame()
    with pytest.raises(FrameError, match="truncated"):
        FrameStream(io.BytesIO(frame[:2])).read_frame()


@settings(max_examples=80, deadline=None)
@given(
    position=st.integers(0, 10_000),
    byte=st.integers(0, 255),
    seed=st.integers(0, 30),
)
def test_corrupted_frame_stream_never_crashes(position, byte, seed):
    events = make_events(seed)
    data = bytearray(
        encode_json(FrameType.HELLO, {"protocol": protocol.PROTOCOL})
        + encode_frame(FrameType.EVENTS, encode_events_text(events, base=0))
        + encode_frame(FrameType.CLOSE)
    )
    data[position % len(data)] = byte
    stream = FrameStream(io.BytesIO(bytes(data)))
    decoder = DeltaDecoder()
    try:
        while True:
            frame = stream.read_frame()
            if frame is None:
                break
            ftype, payload = frame
            if ftype == FrameType.HELLO:
                parse_hello(decode_json(payload))
            elif ftype == FrameType.EVENTS:
                decode_events_ex(payload, decoder)
    except WireError:
        pass  # typed failure: the contract


@settings(max_examples=60, deadline=None)
@given(junk=st.binary(min_size=0, max_size=200))
def test_arbitrary_bytes_only_raise_wire_errors(junk):
    stream = FrameStream(io.BytesIO(junk))
    try:
        while True:
            frame = stream.read_frame()
            if frame is None:
                break
            ftype, payload = frame
            decode_json(payload)
    except WireError:
        pass


# -- JSON payloads ----------------------------------------------------------


def test_json_payload_round_trip():
    obj = {"protocol": protocol.PROTOCOL, "analyses": ["aerodrome"]}
    ftype, payload, _ = decode_frame(encode_json(FrameType.HELLO, obj))
    assert decode_json(payload) == obj


@pytest.mark.parametrize(
    "payload", [b"\xff\xfe", b"[1,2]", b'"str"', b"{bad json"]
)
def test_bad_json_payloads_rejected(payload):
    with pytest.raises(PayloadError):
        decode_json(payload)


@pytest.mark.parametrize(
    "hello",
    [
        {},  # no protocol
        {"protocol": "repro-wire/999", "analyses": ["a"]},
        {"protocol": protocol.PROTOCOL},  # no analyses
        {"protocol": protocol.PROTOCOL, "analyses": []},
        {"protocol": protocol.PROTOCOL, "analyses": [7]},
        {"protocol": protocol.PROTOCOL, "analyses": [{"options": {}}]},
        {"protocol": protocol.PROTOCOL, "analyses": ["a"], "session": 3},
        {"protocol": protocol.PROTOCOL, "analyses": ["a"], "resume": True},
        {"protocol": protocol.PROTOCOL, "analyses": ["a"], "name": 1},
    ],
)
def test_bad_hellos_rejected(hello):
    with pytest.raises(PayloadError):
        parse_hello(hello)


def test_hello_normalizes_specs():
    parsed = parse_hello(
        {
            "protocol": protocol.PROTOCOL,
            "analyses": [
                "aerodrome",
                {"name": "aerodrome", "options": {"mode": "report_all"}},
            ],
            "name": "t",
        }
    )
    assert parsed["analyses"] == [
        ("aerodrome", {}),
        ("aerodrome", {"mode": "report_all"}),
    ]


# -- EVENTS payloads --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_text_events_round_trip(seed):
    events = make_events(seed % 100)
    decoded, base = decode_events_ex(encode_events_text(events, base=seed))
    assert eq_events(decoded, events) and base == seed


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), cut=st.integers(1, 19))
def test_delta_events_round_trip_across_frames(seed, cut):
    """Interner deltas accumulate: later frames reuse earlier names."""
    events = make_events(seed % 100)
    encoder, decoder = DeltaEncoder(), DeltaDecoder()
    first, _ = decode_events_ex(encoder.encode(events[:cut], base=0), decoder)
    second, base = decode_events_ex(
        encoder.encode(events[cut:], base=cut), decoder
    )
    assert eq_events(first + second, events) and base == cut


def test_delta_second_frame_ships_no_repeated_names():
    events = make_events(3)
    encoder = DeltaEncoder()
    encoder.encode(events, base=0)
    # same names again: all interned
    replay = encoder.encode(events, base=len(events))
    # position prefix + 4 empty name tables (base + count) + event
    # count + triples, nothing more.
    expected = POS_PREFIX + 4 * 8 + 4 + 9 * len(events)
    assert len(replay) == expected


def test_delta_frame_retransmit_is_idempotent():
    """A frame resent through BUSY must not shift the name tables
    (regression: duplicated names skewed every later index)."""
    events = make_events(11, length=40)
    cut = len(events) // 2
    encoder, decoder = DeltaEncoder(), DeltaDecoder()
    frame1 = encoder.encode(events[:cut], base=0)
    decode_events_ex(frame1, decoder)
    replayed, _ = decode_events_ex(frame1, decoder)  # the BUSY retransmit
    assert eq_events(replayed, events[:cut])
    rest, _ = decode_events_ex(encoder.encode(events[cut:], base=cut), decoder)
    assert eq_events(rest, events[cut:])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 50),
    position=st.integers(0, 5_000),
    byte=st.integers(0, 255),
)
def test_delta_corruption_never_crashes(seed, position, byte):
    # Fuzz the body behind the CRC: a corrupt positioned payload never
    # even reaches the delta decoder.
    body = bytearray(delta_body(make_events(seed)))
    body[position % len(body)] = byte
    try:
        DeltaDecoder().decode(bytes(body))
    except PayloadError:
        pass


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 50), cut=st.floats(0.0, 0.99))
def test_delta_truncation_never_crashes(seed, cut):
    body = delta_body(make_events(seed))
    truncated = body[: int(len(body) * cut)]
    with pytest.raises(PayloadError):  # any strictly shorter body
        DeltaDecoder().decode(truncated)


def test_delta_needs_a_decoder():
    payload = DeltaEncoder().encode(make_events(1), base=0)
    with pytest.raises(PayloadError, match="decoder"):
        decode_events_ex(payload)


def test_unknown_encoding_tag_rejected():
    with pytest.raises(PayloadError, match="encoding tag"):
        decode_events_ex(bytes([7]) + b"rest")


def test_bad_text_lines_rejected():
    with pytest.raises(PayloadError):
        decode_events_ex(positioned_text(b"t1|frobnicate(x)"))
    with pytest.raises(PayloadError):
        decode_events_ex(positioned_text(b"\xff\xfe"))


def test_text_events_skip_comments_and_blanks():
    decoded, _ = decode_events_ex(positioned_text(b"# header\n\nt1|w(x)\n"))
    assert len(decoded) == 1 and decoded[0].thread == "t1"


# -- the resume seam: positioned frames across a handoff ---------------------
#
# When a session migrates between cluster nodes (or a node fails over),
# the client re-attaches mid-stream and at-least-once delivery means the
# new owner can see duplicated and prematurely-delivered positioned
# EVENTS batches around the seam. The gap/overlap resync in
# ``StreamingSession.feed`` must absorb all of it: overlap is dropped,
# gaps mark the session out-of-sync until the in-order batch arrives,
# and the final report equals the offline run.


def _positioned_batches(events, rng):
    batches, i = [], 0
    while i < len(events):
        n = rng.randint(1, 4)
        batches.append((i, events[i : i + n]))
        i += n
    return batches


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 200),
    schedule_seed=st.integers(0, 10_000),
    handoff_frac=st.floats(0.1, 0.9),
)
def test_duplicated_reordered_frames_across_handoff_resync(
    seed, schedule_seed, handoff_frac
):
    import random as _random

    from repro.api import Session
    from repro.service import StreamingSession

    events = make_events(seed, length=30)
    rng = _random.Random(schedule_seed)
    batches = _positioned_batches(events, rng)

    # Chaotic delivery: every batch arrives in order at least once, but
    # around it ride duplicates of already-delivered batches and
    # premature deliveries of future ones — exactly what a client
    # replaying across a REDIRECT/failover seam produces.
    schedule = []
    for idx, batch in enumerate(batches):
        if idx > 0 and rng.random() < 0.4:
            schedule.append(batches[rng.randrange(idx)])  # duplicate
        if idx + 1 < len(batches) and rng.random() < 0.3:
            schedule.append(batches[idx + 1])  # premature (gap)
        schedule.append(batch)
        if rng.random() < 0.3:
            schedule.append(batch)  # immediate redelivery

    session = StreamingSession("seam", ["aerodrome", "races"], name="seam")
    handoff_at = int(len(schedule) * handoff_frac)
    out_of_sync_seen = False
    for step, (base, batch) in enumerate(schedule):
        if step == handoff_at:
            # The handoff: freeze on the old owner, thaw on the new.
            session = StreamingSession.from_bytes(session.to_bytes())
        before = session.position
        session.feed(list(batch), base=base)
        if base > before:
            out_of_sync_seen = True
            assert session.out_of_sync  # the gap was detected...
            assert session.position == before  # ...and nothing ingested
        else:
            assert not session.out_of_sync  # resync clears the flag
            assert session.position == max(before, base + len(batch))

    assert session.position == len(events)
    doc = session.report()
    base_doc = Session(iter(events), ["aerodrome", "races"],
                       name="seam").run().to_json()
    assert doc["analyses"] == base_doc["analyses"]
    assert doc["verdict"] == base_doc["verdict"]
    # The schedule generator really does exercise the gap path often
    # enough to matter (not asserted per-example: hypothesis shrinks).
    del out_of_sync_seen
