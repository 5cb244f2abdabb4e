"""Epoch fencing at the wire: stale writers get FENCED, never served.

Every cluster frame that can change session state carries the sender's
membership epoch; a node whose own view is behind answers a typed
``FENCED`` frame and refuses the write. These tests pin all four fence
points — HELLO, HANDOFF, OWNED, and the per-frame pinned-epoch check on
shard-bound frames — plus the recovery contract: a fenced handoff is
undone on the source, which drains the session itself without
double-reporting its violations.
"""

import pytest

from repro.api import Session
from repro.cluster import (
    DEAD,
    NodeInfo,
    StaleEpochError,
    json_call,
    migrate_session,
    ship_handoff,
)
from repro.service import ServiceServer
from repro.service.client import ServiceClient, SessionFenced
from repro.service.client import submit_trace as node_submit
from repro.service.connection import WireConnection
from repro.service.protocol import (
    PROTOCOL,
    FrameDecoder,
    FrameType,
    decode_json,
    encode_events_text,
    encode_frame,
    encode_json,
)
from repro.service.router import Router
from repro.sim import trace_zoo

ANALYSES = ["aerodrome", "races", "lockset"]


def offline_doc(spec):
    return Session(spec.trace(), ANALYSES, name=spec.name).run().to_json()


def bump_epoch(server, n=1):
    """Advance a node's membership epoch without touching its ring
    (dead members never join the ring), so previously-stamped frames
    become stale."""
    cluster = server.cluster
    with cluster._lock:
        for i in range(n):
            cluster.membership.add(
                NodeInfo(f"ghost-{cluster.membership.epoch}-{i}",
                         "127.0.0.1", 1, DEAD)
            )
    return cluster.epoch


@pytest.fixture
def node(tmp_path):
    """One clustered node with a quiet gossip loop."""
    server = ServiceServer(
        shards=2, spool=str(tmp_path / "node"),
        cluster=True, node_id="n1",
        gossip_interval=5.0, suspect_after=60.0,
    ).start()
    yield server
    server.stop()


# -- HELLO ------------------------------------------------------------------


def test_hello_from_future_epoch_is_fenced(node):
    """A client routed by a membership newer than the node's: the node
    may be the stale side of a partition and must not serve."""
    before = node.cluster.epoch
    with ServiceClient(node.host, node.port) as client:
        with pytest.raises(SessionFenced) as excinfo:
            client.open_session(ANALYSES, epoch=before + 1)
    assert excinfo.value.code == "fenced"
    assert excinfo.value.epoch == before
    with ServiceClient(node.host, node.port) as client:
        assert client.stats()["server"]["fenced"] >= 1


def test_hello_at_current_epoch_pins_and_serves(node):
    spec = trace_zoo.get("paper-rho1")
    base = offline_doc(spec)
    with ServiceClient(node.host, node.port) as client:
        handle = client.open_session(ANALYSES, epoch=node.cluster.epoch)
        handle.send(list(spec.trace()))
        doc = handle.result()
    assert doc["analyses"] == base["analyses"]
    assert doc["verdict"] == base["verdict"]


# -- HANDOFF / OWNED control frames -----------------------------------------


def test_stale_handoff_is_fenced(node):
    """A partitioned old owner pushing state decided under a superseded
    ring is refused before its blob is even looked at."""
    stale = node.cluster.epoch
    current = bump_epoch(node)
    meta = {"session": "fence-h1", "live": True,
            "epoch": stale, "origin": "ghost"}
    with pytest.raises(StaleEpochError) as excinfo:
        ship_handoff(node.host, node.port, meta, b"bogus", timeout=10.0)
    assert excinfo.value.peer_epoch == current
    # The fenced blob was never imported.
    assert not any(
        row["session"] == "fence-h1"
        for row in node.router.list_sessions()
    )


def test_handoff_at_current_epoch_is_accepted(node):
    """Same frame, fresh epoch: the replica path stores the blob."""
    meta = {"session": "fence-h2", "live": False,
            "epoch": node.cluster.epoch, "origin": "peer"}
    reply = ship_handoff(node.host, node.port, meta, b"blob", timeout=10.0)
    assert reply.get("session") == "fence-h2"


def test_stale_owned_notice_is_fenced(node):
    """A stale peer's drop notice must not destroy a replica the
    current ring may still need for failover."""
    stale = node.cluster.epoch
    current = bump_epoch(node)
    with pytest.raises(StaleEpochError) as excinfo:
        json_call(
            node.host, node.port, FrameType.OWNED,
            {"from": "ghost", "session": "fence-o1",
             "closed": True, "epoch": stale},
            timeout=10.0,
        )
    assert excinfo.value.peer_epoch == current
    # The same notice stamped with the current epoch goes through.
    reply = json_call(
        node.host, node.port, FrameType.OWNED,
        {"from": "ghost", "session": "fence-o1",
         "closed": True, "epoch": node.cluster.epoch},
        timeout=10.0,
    )
    assert isinstance(reply, dict)


# -- the per-frame pinned-epoch fence (sans-IO) ------------------------------


class StubCluster:
    """Just enough coordinator surface for a WireConnection, with a
    settable epoch — the only way to exercise the defense-in-depth
    pinned-epoch check, since real epochs are monotone."""

    def __init__(self, epoch):
        self.epoch = epoch
        self.vnodes = 8

    def owns(self, session_id):
        return True

    def local_session_id(self):
        return "stub-session"

    def session_closed(self, session_id):
        pass

    def stats(self):
        return {}


def drive(conn, timeout=10.0):
    """Pump a sans-IO connection until idle, waiting on shard futures."""
    while True:
        waiting = conn.pump()
        if not waiting:
            return
        for future in waiting:
            future.join(timeout)


def replies(conn):
    """Decode every reply frame the connection has queued so far."""
    decoder = FrameDecoder()
    for chunk in conn.outbox:
        decoder.feed(chunk)
    frames = []
    while True:
        frame = decoder.next_frame()
        if frame is None:
            return frames
        ftype, payload = frame
        frames.append((ftype, decode_json(payload) if payload else {}))


def test_events_behind_pinned_epoch_is_fenced():
    """A shard-bound frame on a connection whose node fell behind its
    pinned routing epoch answers FENCED, not silence."""
    router = Router(shards=1)
    try:
        counters = {}

        def count(name):
            counters[name] = counters.get(name, 0) + 1

        stub = StubCluster(epoch=3)
        conn = WireConnection(router, count, lambda: dict(counters), stub)
        conn.receive_bytes(encode_json(FrameType.HELLO, {
            "protocol": PROTOCOL, "analyses": ["races"],
            "session": "pin-1", "epoch": 3,
        }))
        drive(conn)
        assert conn.pinned_epoch == 3
        assert replies(conn)[-1][0] == FrameType.OK
        # The node's view regresses behind the pin (stale partition
        # side): the very next shard-bound frame must fence.
        stub.epoch = 2
        conn.receive_bytes(
            encode_frame(FrameType.EVENTS, encode_events_text([], base=0))
        )
        drive(conn)
        ftype, obj = replies(conn)[-1]
        assert ftype == FrameType.FENCED
        assert obj["code"] == "fenced"
        assert obj["session"] == "pin-1"
        assert obj["epoch"] == 2
        assert counters["fenced"] == 1
    finally:
        router.shutdown()


def test_hello_behind_epoch_is_fenced_sans_io():
    router = Router(shards=1)
    try:
        conn = WireConnection(
            router, lambda name: None, dict, StubCluster(epoch=2)
        )
        conn.receive_bytes(encode_json(FrameType.HELLO, {
            "protocol": PROTOCOL, "analyses": ["races"],
            "session": "pin-2", "epoch": 5,
        }))
        drive(conn)
        ftype, obj = replies(conn)[-1]
        assert ftype == FrameType.FENCED
        assert obj["epoch"] == 2
        assert conn.session_id is None  # the session never opened
    finally:
        router.shutdown()


# -- fenced drain: no duplicate violation reports ----------------------------


def test_fenced_handoff_drains_on_source_without_double_reporting(tmp_path):
    """A fenced live migration is undone: the source re-imports the
    session and drains it itself, and the final report still equals the
    offline run — the aborted handoff neither loses acked events nor
    duplicates the violations already found."""
    spec = trace_zoo.get("paper-rho2")
    base = offline_doc(spec)
    events = list(spec.trace())
    source = ServiceServer(
        shards=1, spool=str(tmp_path / "src"),
        checkpoint_every=4,
    ).start()
    target = ServiceServer(
        shards=1, spool=str(tmp_path / "dst"),
        cluster=True, node_id="t1",
        gossip_interval=5.0, suspect_after=60.0,
    ).start()
    try:
        stale = target.cluster.epoch
        bump_epoch(target)
        half = max(4, len(events) // 2)
        info = node_submit(
            source.host, source.port, events, ANALYSES, batch=4,
            session_id="drain-1", stop_after=half, checkpoint=True,
        )
        assert info["open"] and info["position"] == half
        with pytest.raises(StaleEpochError):
            migrate_session(
                source.router, "drain-1", target.host, target.port,
                timeout=10.0, epoch=stale, origin="src",
            )
        # Undone: the session is live on the source again, at its
        # checkpointed position, and absent from the fencing target.
        assert any(
            row["session"] == "drain-1"
            for row in source.router.list_sessions()
        )
        assert not any(
            row["session"] == "drain-1"
            for row in target.router.list_sessions()
        )
        doc = node_submit(
            source.host, source.port, events, ANALYSES, batch=4,
            session_id="drain-1", resume=True,
        )
        assert doc["analyses"] == base["analyses"]
        assert doc["verdict"] == base["verdict"]
        with ServiceClient(target.host, target.port) as client:
            assert client.stats()["server"]["fenced"] >= 1
    finally:
        target.stop()
        source.stop()
