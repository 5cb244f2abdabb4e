"""Sans-IO codec equivalence: incremental decode == one-shot decode.

The server's event loop feeds :class:`~repro.service.protocol.FrameDecoder`
whatever chunks ``recv`` happens to return, so the decoder must produce
byte-identical frames — and raise the *same* typed
:class:`~repro.service.protocol.WireError` on the same broken input —
no matter how the stream is split. This suite drives the decoder
byte-at-a-time and through hypothesis-chosen random splits against the
one-shot :func:`~repro.service.protocol.decode_frame` as ground truth,
plus the ring-buffer/counter plumbing ``service-stats`` reports and the
blocking :class:`~repro.service.protocol.FrameStream` shim.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import protocol
from repro.service.protocol import (
    FrameDecoder,
    FrameEncoder,
    FrameError,
    FrameStream,
    FrameType,
    RingBuffer,
    decode_frame,
    encode_frame,
    encode_json,
)


def reference_decode(data: bytes):
    """One-shot ground truth: every frame, or the typed error raised."""
    frames, end = [], 0
    while end < len(data):
        out = decode_frame(data[end:])
        if out is None:
            break  # trailing partial frame
        ftype, payload, used = out
        frames.append((ftype, bytes(payload)))
        end += used
    return frames


def incremental_decode(data: bytes, cuts):
    """Feed ``data`` split at ``cuts`` and drain after every chunk."""
    decoder = FrameDecoder()
    frames = []
    last = 0
    for cut in list(cuts) + [len(data)]:
        decoder.feed(data[last:cut])
        last = cut
        frames.extend((ftype, bytes(p)) for ftype, p in decoder)
    return frames, decoder


def stream_corpus(seed: int) -> bytes:
    """A deterministic multi-frame conversation."""
    body = bytes((seed * 7 + i) % 256 for i in range(seed % 400))
    return (
        encode_json(FrameType.HELLO, {"protocol": protocol.PROTOCOL, "n": seed})
        + encode_frame(FrameType.EVENTS, bytes([0]) + b"t1|w(x)")
        + encode_frame(FrameType.EVENTS, bytes([0]) + body.hex().encode())
        + encode_frame(FrameType.FLUSH)
        + encode_frame(FrameType.CLOSE)
    )


# -- equivalence ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 500))
def test_byte_at_a_time_agrees_with_one_shot(seed):
    data = stream_corpus(seed)
    expected = reference_decode(data)
    got, decoder = incremental_decode(data, range(1, len(data)))
    assert got == expected
    assert decoder.buffered == 0
    assert decoder.frames_decoded == len(expected)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 500),
    cuts=st.lists(st.integers(0, 2_000), max_size=12),
)
def test_random_splits_agree_with_one_shot(seed, cuts):
    data = stream_corpus(seed)
    expected = reference_decode(data)
    points = sorted({c % (len(data) + 1) for c in cuts})
    got, _ = incremental_decode(data, points)
    assert got == expected


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 200),
    position=st.integers(0, 5_000),
    byte=st.integers(0, 255),
)
def test_corrupted_streams_raise_the_same_typed_error(seed, position, byte):
    """Both decoders fail identically (or both accept) any 1-byte flip."""
    data = bytearray(stream_corpus(seed))
    data[position % len(data)] = byte
    data = bytes(data)

    one_shot_error = None
    try:
        expected = reference_decode(data)
    except FrameError as error:
        one_shot_error = error

    decoder = FrameDecoder()
    got = []
    incremental_error = None
    try:
        for i in range(len(data)):
            decoder.feed(data[i : i + 1])
            got.extend((ftype, bytes(p)) for ftype, p in decoder)
    except FrameError as error:
        incremental_error = error

    if one_shot_error is None:
        assert incremental_error is None
        assert got == expected
    else:
        assert incremental_error is not None
        assert str(incremental_error) == str(one_shot_error)


def test_partial_frame_stays_buffered():
    frame = encode_frame(FrameType.OK, b"abcdef")
    decoder = FrameDecoder()
    decoder.feed(frame[:-1])
    assert decoder.next_frame() is None
    assert decoder.buffered == len(frame) - 1
    decoder.feed(frame[-1:])
    assert decoder.next_frame() == (FrameType.OK, b"abcdef")
    assert decoder.buffered == 0


def test_needed_counts_down_to_a_frame():
    frame = encode_frame(FrameType.FLUSH, b"xyz")
    decoder = FrameDecoder()
    assert decoder.needed() == protocol._HEADER.size
    decoder.feed(frame[:2])
    assert decoder.needed() == protocol._HEADER.size - 2
    decoder.feed(frame[2 : protocol._HEADER.size])
    assert decoder.needed() == 3  # the payload
    decoder.feed(frame[protocol._HEADER.size :])
    assert decoder.needed() == 0


def test_needed_rejects_bad_headers_early():
    decoder = FrameDecoder()
    decoder.feed((protocol.MAX_FRAME + 10).to_bytes(4, "big") + bytes([2]))
    with pytest.raises(FrameError, match="out of range"):
        decoder.needed()
    decoder = FrameDecoder()
    decoder.feed((1).to_bytes(4, "big") + bytes([99]))
    with pytest.raises(FrameError, match="unknown frame type"):
        decoder.needed()


# -- ring buffer ------------------------------------------------------------


def test_ring_buffer_compacts_consumed_prefix():
    ring = RingBuffer()
    ring.write(b"a" * 100)
    assert ring.take(60) == b"a" * 60
    # Dead prefix (60) outweighs live bytes (40): next write compacts.
    ring.write(b"b")
    assert ring._start == 0
    assert bytes(ring.view()) == b"a" * 40 + b"b"


def test_ring_buffer_high_water_tracks_peak():
    ring = RingBuffer()
    ring.write(b"x" * 10)
    ring.skip(10)
    ring.write(b"y" * 4)
    assert ring.high_water == 10
    assert len(ring) == 4


# -- encoder counters -------------------------------------------------------


def test_frame_encoder_counts_traffic():
    encoder = FrameEncoder()
    a = encoder.encode(FrameType.OK, b"hi")
    b = encoder.encode_json(FrameType.ERROR, {"code": "wire"})
    assert encoder.frames_encoded == 2
    assert encoder.bytes_encoded == len(a) + len(b)
    assert decode_frame(b)[0] == FrameType.ERROR


# -- blocking shims ---------------------------------------------------------


def test_frame_stream_eof_semantics():
    frame = encode_frame(FrameType.OK, b"abc")
    stream = FrameStream(io.BytesIO(frame + frame))
    assert stream.read_frame() == (FrameType.OK, b"abc")
    assert stream.read_frame() == (FrameType.OK, b"abc")
    assert stream.read_frame() is None  # clean EOF at a boundary
    with pytest.raises(FrameError, match="truncated"):
        FrameStream(io.BytesIO(frame[:-1])).read_frame()

