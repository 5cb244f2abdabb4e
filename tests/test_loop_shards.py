"""Shards on the event loop.

A shard runs each command as a direct call on the calling thread,
under one lock per shard: no shard thread, no inbox and no wake-up.
These tests pin the contract:

* a ``Router`` starts no ``repro-shard-*`` thread;
* ``feed`` has applied the batch when it returns;
* sans-IO: an EVENTS frame and a FLUSH frame through one
  ``WireConnection`` are answered by ``pump()`` calls that return
  ``None`` (nothing for the loop to wait on): the first applies and
  answers the EVENTS frame and sets ``more``, the next answers the
  FLUSH;
* a blocking caller on another thread serializes on the shard's lock
  while the loop streams, and the report still equals offline;
* an injected ``ShardCrash`` kills the in-loop shard, which restarts
  from the spool, and the stream still ends offline-equal;
* a pipelining client is served one EVENTS frame per loop turn and
  still gets every reply, in order, before its EOF is seen.
"""

import threading

import pytest

from repro.api import Session
from repro.faults import FaultPlan
from repro.faults.injector import injected
from repro.service import Router, ServiceServer, submit_trace
from repro.service import protocol
from repro.service.connection import WireConnection
from repro.service.protocol import FrameDecoder, FrameType, decode_json
from repro.service.recovery import RecoveryManager
from repro.sim.workloads.benchmarks import get_case

ANALYSES = ["aerodrome", "races", "lockset"]


@pytest.fixture(scope="module")
def events():
    # The raytracer row: race-heavy, and new variables keep appearing.
    return list(get_case("raytracer").generate(seed=7, scale=0.05))


def _offline(events, analyses=ANALYSES):
    return Session(events, analyses).run().to_json()["analyses"]


def _batches(events, size, start=0):
    """``(base, DeltaBatch)`` per ``size`` events of ``events[start:]``,
    decoded the way a connection decodes them."""
    encoder = protocol.DeltaEncoder()
    decoder = protocol.DeltaDecoder()
    out = []
    for lo in range(start, len(events), size):
        payload = encoder.encode(events[lo : lo + size], base=lo)
        batch, base = protocol.decode_events_ex(payload, decoder)
        out.append((base, batch))
    return out


def _shard_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-shard")]


def test_thread_workers_start_no_shard_thread():
    before = len(_shard_threads())
    with Router(shards=3) as router:
        router.open_session([("aerodrome", {})], session_id="s")
        assert len(_shard_threads()) == before
        assert router.stats()["shards"][0]["workers"] == "thread"


def test_feed_has_applied_the_batch_when_it_returns(events):
    with Router(shards=2) as router:
        router.open_session([(n, {}) for n in ANALYSES], session_id="now")
        worker = router._shards[router.shard_of("now")]._worker
        fed = 0
        for base, batch in _batches(events[:300], 64):
            router.feed("now", batch, base=base)
            fed += len(batch)
            # No FLUSH, no other command behind the batch: the session
            # is already past it.
            assert worker.sessions["now"].position == fed
        stats = router.stats()
        assert stats["events"] == fed
        assert all(s["queue_depth"] == 0 for s in stats["shards"])


def _replies(conn):
    decoder = FrameDecoder()
    for chunk in conn.outbox:
        decoder.feed(chunk)
    return [
        (ftype, decode_json(payload) if payload else {})
        for ftype, payload in decoder
    ]


def test_events_and_flush_answered_without_a_wait(events):
    router = Router(shards=1)
    try:
        conn = WireConnection(router, lambda name: None, dict)
        conn.receive_bytes(protocol.encode_json(FrameType.HELLO, {
            "protocol": protocol.PROTOCOL, "analyses": ANALYSES,
            "session": "one-pump",
        }))
        assert conn.pump() is None
        conn.outbox.clear()
        payload = protocol.DeltaEncoder().encode(events[:64], base=0)
        conn.receive_bytes(
            protocol.encode_frame(FrameType.EVENTS, payload)
            + protocol.encode_frame(FrameType.FLUSH)
        )
        # The EVENTS frame is applied and answered at once; the loop
        # serves other connections before the buffered FLUSH ...
        assert conn.pump() is None and conn.more
        ((ok_type, ok),) = _replies(conn)
        assert ok_type == FrameType.OK and ok == {"queued": 64}
        assert router._shards[0]._worker.sessions["one-pump"].position == 64
        # ... which the next pump answers: nothing waits on a thread.
        assert conn.pump() is None and not conn.more
        _, (flush_type, flush) = _replies(conn)
        assert flush_type in (FrameType.OK, FrameType.VIOLATION)
        assert flush["position"] == 64 and flush["error"] is None
    finally:
        router.shutdown()


def test_blocking_caller_on_another_thread_while_the_loop_streams(events):
    stop = threading.Event()
    listed = []
    errors = []
    with ServiceServer(shards=1).start() as server:

        def gossip():
            while not stop.is_set():
                try:
                    listed.append(server.router.list_sessions())
                except Exception as exc:  # surfaced below
                    errors.append(exc)
                    return

        caller = threading.Thread(target=gossip, daemon=True)
        caller.start()
        try:
            doc = submit_trace(server.host, server.port, events, ANALYSES,
                               batch=32, session_id="busy-lock")
        finally:
            stop.set()
            caller.join(10.0)
    assert not caller.is_alive() and errors == []
    assert len(listed) > 1
    assert doc["analyses"] == _offline(events)


def test_injected_crash_restarts_the_loop_shard_from_the_spool(
    tmp_path, events
):
    plan = FaultPlan(seed=5).add(
        "shard.batch", op="crash", after_n=6, times=1, match="crashy"
    )
    recovery = RecoveryManager(tmp_path / "spool")
    with Router(shards=1, recovery=recovery, checkpoint_every=96) as router:
        router.open_session([(n, {}) for n in ANALYSES], session_id="crashy")
        with injected(plan):
            for base, batch in _batches(events, 32):
                # A crash is parked on the shard, as if the batch had
                # been queued: feed itself does not raise.
                router.feed("crashy", batch, base=base)
                if not router._shards[0].alive():
                    break
        assert len(plan.log) == 1
        assert not router._shards[0].alive()
        # The next command restarts the shard from the spool, behind
        # the crash; the client re-sends from the reported position.
        position = router.flush("crashy")["position"]
        assert router.restarts == 1 and router._shards[0].alive()
        assert 0 < position < len(events)
        for base, batch in _batches(events, 32, start=position):
            router.feed("crashy", batch, base=base)
        doc = router.close("crashy")["report"]
    assert doc["analyses"] == _offline(events)


def test_pipelined_frames_are_served_one_events_frame_per_turn(events):
    """A client that sends every frame before reading a reply (and then
    half-closes) gets every reply in order: the loop serves its
    buffered EVENTS frames one per turn and sees the EOF only after
    them."""
    import socket

    frames = -(-len(events) // 64)
    encoder = protocol.DeltaEncoder()
    wire = protocol.encode_json(FrameType.HELLO, {
        "protocol": protocol.PROTOCOL, "analyses": ANALYSES,
        "session": "pipelined",
    })
    for lo in range(0, len(events), 64):
        wire += protocol.encode_frame(
            FrameType.EVENTS, encoder.encode(events[lo : lo + 64], base=lo)
        )
    wire += protocol.encode_json(FrameType.CLOSE, {})
    with ServiceServer(shards=1).start() as server:
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(wire)
            sock.shutdown(socket.SHUT_WR)
            decoder = FrameDecoder()
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                decoder.feed(chunk)
        replies = list(decoder)
    types = [ftype for ftype, _ in replies]
    assert types[0] == FrameType.OK
    assert types[1 : 1 + frames] == [FrameType.OK] * frames
    assert types[-1] == FrameType.REPORT and len(types) == frames + 2
    doc = decode_json(replies[-1][1])["report"]
    assert doc["analyses"] == _offline(events)
