"""Columns from the wire to the analyses.

An EVENTS frame decodes to a :class:`~repro.trace.packed.DeltaBatch`
(the frame's new names plus three integer columns, no ``Event``), the
session's own :class:`~repro.trace.packed.PackedStore` absorbs the
names and maps the columns, and each analysis sweeps the whole batch in
one loop. These tests pin what that design has to keep:

* the store is the session's own: a batch fed to one session is never
  changed by it, so the same batches can feed several sessions;
* every seam ends with the offline report: a fresh client encoder
  resuming a live or a thawed session, a BUSY resend of a frame whose
  names the connection already absorbed, process shards, a shard
  restart that makes the client re-send, and the kill -9 spool drill;
* the bounds: a batch pickles in O(events + new names), the store holds
  at most one checkpoint interval of columns, and extending the map
  from client indices to store indices costs the same per batch however
  many names came before;
* spool entries from before the change fail typed or are cut.
"""

import cProfile
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Session
from repro.core.snapshot import CheckpointError
from repro.faults import FaultPlan
from repro.faults.injector import injected
from repro.service import (
    BusyError,
    Router,
    ServiceClient,
    ServiceServer,
    StreamingSession,
    submit_trace,
)
from repro.service import protocol
from repro.service.connection import WireConnection
from repro.service.protocol import FrameDecoder, FrameType, decode_json
from repro.service.recovery import (
    LogAppend,
    RecoveryManager,
    SessionCheckpoint,
)
from repro.service.router import ShardWorker
from repro.sim import trace_zoo
from repro.sim.workloads.benchmarks import get_case
from repro.trace.events import begin, end, write
from repro.trace.packed import PackedTrace, pack

ANALYSES = ["aerodrome", "races", "lockset"]
ROOT = Path(__file__).resolve().parent.parent


def _events(scale=0.02):
    return list(get_case("raytracer").generate(seed=7, scale=scale))


def _offline(events, analyses=ANALYSES):
    return Session(events, analyses).run().to_json()["analyses"]


@pytest.fixture(scope="module")
def events():
    return _events()  # ~1k events; variables keep appearing


def _frames(events, size, start=0, encoder=None):
    """Positioned EVENTS payloads for ``events[start:]`` from one
    encoder (a fresh one unless given)."""
    encoder = encoder or protocol.DeltaEncoder()
    return [
        (lo, encoder.encode(events[lo : lo + size], base=lo))
        for lo in range(start, len(events), size)
    ]


# -- the store is the session's own ------------------------------------------


def test_feeding_shared_slices_leaves_them_unchanged():
    """Regression: the first packed batch used to become the session's
    store and grow in place, so a second session fed the same slices
    swept 16 of 10 events, and the first slice ended up with 10."""
    trace = trace_zoo.get("paper-rho1").trace()
    packed = pack(trace)
    first, rest = packed[:4], packed[4:]
    ops = list(first.arrays()[1])
    for _ in range(2):
        session = Session(None, ANALYSES, name=trace.name)
        session.feed(first)
        session.feed(rest)
        result = session.finish()
        assert result.events_swept == len(packed) == 10
        assert result.to_json()["analyses"] == _offline(trace)
    assert len(first) == 4 and list(first.arrays()[1]) == ops
    assert len(rest) == 6


def test_decoded_batches_feed_several_sessions(events):
    """The same decoded batches through two sessions and a shard worker,
    as the ledger replays them, all end with the offline report."""
    decoder = protocol.DeltaDecoder()
    decoded = [protocol.decode_events_ex(payload, decoder)
               for _, payload in _frames(events, 128)]
    for _ in range(2):
        session = Session(None, ANALYSES)
        for batch, _base in decoded:
            session.feed(batch)
        assert session.finish().to_json()["analyses"] == _offline(events)
    worker = ShardWorker(0)
    worker.do_open("w", ANALYSES, "stream", False)
    for batch, base in decoded:
        worker.do_events("w", batch, base)
    assert worker.do_close("w")["report"]["analyses"] == _offline(events)


def test_a_batch_carries_its_frames_own_names(events):
    encoder, decoder = protocol.DeltaEncoder(), protocol.DeltaDecoder()
    first, _ = protocol.decode_events_ex(encoder.encode(events[:50], 0), decoder)
    second, base = protocol.decode_events_ex(
        encoder.encode(events[50:100], 50), decoder
    )
    assert base == 50 and len(second) == 50 and first.fresh
    for ns, ((base1, names1), (base2, names2)) in enumerate(
        zip(first.tables, second.tables)
    ):
        assert base1 == 0 and base2 == len(names1)
        assert encoder._by_ns[ns].names() == names1 + names2
    whole = decoder.whole(second)
    assert whole.fresh and [n for _, n in whole.tables] == [
        names1 + names2
        for (_, names1), (_, names2) in zip(first.tables, second.tables)
    ]


def test_a_batch_past_the_absorbed_names_is_out_of_sync(events):
    """A batch whose tables start past the names a session absorbed
    cannot be mapped: it is dropped and flagged, never misread."""
    decoder = protocol.DeltaDecoder()
    (b1, _), (b2, base2) = [protocol.decode_events_ex(p, decoder)
                            for _, p in _frames(events[:200], 100)]
    session = StreamingSession("gap", ANALYSES)
    session.feed(b1, base=0)
    restarted = StreamingSession("gap", ANALYSES)
    assert restarted.feed(b2, base=0) == 0  # claims names it never saw
    assert restarted.out_of_sync and restarted.position == 0
    session.feed(b2, base=base2)
    session.feed(events[200:], base=200)
    assert session.finish().to_json()["analyses"] == _offline(events)


# -- bounds ------------------------------------------------------------------


def test_pickled_batch_size_does_not_grow_with_the_stream():
    """A batch crosses a process-shard queue in O(events + new names):
    the 200th batch of a stream that names 10 new variables per batch
    pickles no larger than the 2nd. (The first batch names 300, so both
    compared table bases are past 255, where pickle's ints stop being
    one byte.)"""
    encoder, decoder = protocol.DeltaEncoder(), protocol.DeltaDecoder()
    sizes, named, position = [], 0, 0
    for k in range(200):
        fresh = 300 if k == 0 else 10
        batch = [begin("t")]
        batch += [write("t", f"v{named + j:06d}") for j in range(fresh)]
        batch.append(end("t"))
        named += fresh
        decoded, _ = protocol.decode_events_ex(
            encoder.encode(batch, base=position), decoder
        )
        position += len(batch)
        sizes.append(len(pickle.dumps(decoded)))
    assert sizes[199] <= sizes[1]


def test_store_holds_at_most_one_checkpoint_interval(tmp_path, events):
    interval = 64
    worker = ShardWorker(0, RecoveryManager(tmp_path), interval)
    worker.do_open("win", ANALYSES, "raytracer", False)
    session = worker.sessions["win"]
    decoder = protocol.DeltaDecoder()
    for lo, payload in _frames(events, 32):
        batch, base = protocol.decode_events_ex(payload, decoder)
        worker.do_events("win", batch, base)
        assert len(session.store) <= interval
    thawed = StreamingSession.from_bytes(session.to_bytes())
    assert len(thawed.store) == 0  # a snapshot holds names, not columns
    assert session.finish().to_json()["analyses"] == _offline(events)


def _calls(fn, *args):
    profile = cProfile.Profile(builtins=True)
    profile.enable()
    try:
        fn(*args)
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats()
               if "_lsprof.Profiler" not in str(entry.code))


def test_remap_calls_per_batch_stay_flat():
    """After a resume with a fresh encoder the client's indices differ
    from the store's, so the session keeps a map. Extending it costs
    O(new names) per batch: the calls per batch do not grow across a
    stream that names 5,000 variables (rebuilding the whole table per
    batch would)."""
    known = [begin("t0")] + [write("t0", f"v{k:05d}") for k in range(50)]
    known.append(end("t0"))
    session = StreamingSession("remap", ["aerodrome"])
    session.feed(known, base=0)
    encoder, decoder = protocol.DeltaEncoder(), protocol.DeltaDecoder()
    position, calls = len(known), []
    for k in range(100):
        batch = [begin("t1"), write("t1", f"v{49 - k % 50:05d}")]
        batch += [write("t1", f"x{50 * k + j:05d}") for j in range(50)]
        batch.append(end("t1"))
        decoded, base = protocol.decode_events_ex(
            encoder.encode(batch, base=position), decoder
        )
        calls.append(_calls(session.store.absorb, decoded))
        session.feed(decoded, base=base)
        position += len(batch)
    assert session.store._remap[0] is not None  # the map is in use
    assert len(session.store.variable_names) == 5_050
    assert max(calls[-10:]) <= max(calls[1:11])


# -- seams, end to end -------------------------------------------------------


def _send(handle, events, start, size):
    for lo in range(start, len(events), size):
        handle.send(events[lo : lo + size])


def test_fresh_encoder_resume_on_a_live_session(events):
    """A client reconnects and resumes a session still live on its
    shard: its fresh encoder restarts the name-table epoch, and the
    session maps the new indices onto the names it holds."""
    half = len(events) // 2
    with ServiceServer(shards=2).start() as srv:
        with ServiceClient(srv.host, srv.port) as client:
            handle = client.open_session(ANALYSES, session_id="live-resume")
            _send(handle, events[:half], 0, 64)
            assert handle.flush()["position"] == half
        with ServiceClient(srv.host, srv.port) as client:
            handle = client.open_session(
                ANALYSES, session_id="live-resume", resume=True
            )
            assert handle.position == half
            _send(handle, events, half, 64)
            doc = handle.result()
    assert doc["analyses"] == _offline(events)


def test_fresh_encoder_resume_on_a_thawed_session(tmp_path, events):
    spool = tmp_path / "spool"
    cut = 400
    with ServiceServer(shards=2, spool=spool, checkpoint_every=128).start() as a:
        part = submit_trace(a.host, a.port, events, ANALYSES, batch=48,
                            session_id="thawed", stop_after=cut,
                            checkpoint=True)
        assert part["position"] == cut
    with ServiceServer(shards=2, spool=spool).start() as b:
        assert "thawed" in b.recovered
        doc = submit_trace(b.host, b.port, events, ANALYSES, batch=48,
                           session_id="thawed", resume=True)
    assert doc["service"]["resumed"]
    assert doc["analyses"] == _offline(events)


def _last_reply(conn):
    decoder = FrameDecoder()
    for chunk in conn.outbox:
        decoder.feed(chunk)
    frames = list(decoder)
    ftype, payload = frames[-1]
    return ftype, decode_json(payload) if payload else {}


def test_busy_resend_after_the_connection_absorbed_the_names(events):
    """The connection decodes a frame (its decoder absorbs the frame's
    names) before the router refuses it with BUSY; the client resends
    the same bytes, and the session takes the names exactly once."""
    router = Router(shards=1)
    refused = []
    feed = router.feed

    def busy_once(session_id, batch, base=None):
        if len(refused) == 0 and base >= 256:
            refused.append([len(names) for names in conn.delta._names])
            raise BusyError("full")
        return feed(session_id, batch, base=base)

    router.feed = busy_once
    try:
        conn = WireConnection(router, lambda name: None, dict)
        conn.receive_bytes(protocol.encode_json(FrameType.HELLO, {
            "protocol": protocol.PROTOCOL, "analyses": ANALYSES,
            "session": "busy",
        }))
        conn.pump()
        resent = 0
        for _lo, payload in _frames(events, 64):
            frame = protocol.encode_frame(FrameType.EVENTS, payload)
            while True:
                conn.receive_bytes(frame)
                conn.pump()
                if _last_reply(conn)[0] != FrameType.BUSY:
                    break
                resent += 1
        conn.receive_bytes(protocol.encode_frame(FrameType.CLOSE))
        conn.pump()
        ftype, info = _last_reply(conn)
    finally:
        router.shutdown()
    assert resent == 1 and refused
    assert ftype == FrameType.REPORT
    assert info["report"]["analyses"] == _offline(events)


def test_shard_restart_resync_sends_whole_tables(tmp_path, events):
    """A shard dies mid-stream and restarts from the spool, behind the
    names the connection has decoded. The client's resync re-sends from
    the session's position; the connection sends every name with it,
    and the report still equals offline."""
    plan = FaultPlan(seed=3).add(
        "shard.batch", op="crash", after_n=9, times=1, match="restart"
    )
    with ServiceServer(
        shards=1, spool=tmp_path / "spool", checkpoint_every=128
    ).start() as srv:
        with injected(plan):
            doc = submit_trace(srv.host, srv.port, events, ANALYSES,
                               batch=40, session_id="restart")
        assert srv.router.restarts == 1
    assert doc["analyses"] == _offline(events)


def _cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120, **kwargs,
    )


def _serve(tmp_path, tag):
    ready = tmp_path / f"ready-{tag}"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--spool", str(tmp_path / "spool"),
         "--checkpoint-every", "100", "--ready-file", str(ready)],
        cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30.0
    while not (ready.exists() and len(ready.read_text().split()) == 2):
        assert proc.poll() is None, "server exited before it was ready"
        assert time.monotonic() < deadline, "server never became ready"
        time.sleep(0.05)
    return proc, ready.read_text().split()[1]


def test_kill9_spool_drill(tmp_path):
    """Stream part of a trace, checkpoint, kill -9 the server, restart
    it on the spool and resume: the report equals ``repro check``."""
    trace = tmp_path / "t.std"
    assert _cli("generate", "raytracer", "-o", str(trace), "--scale",
                "0.02").returncode == 0
    names = ",".join(ANALYSES)
    proc, port = _serve(tmp_path, "a")
    try:
        part = _cli("submit", str(trace), "--analysis", names, "--port",
                    port, "--session-id", "drill", "--batch", "64",
                    "--stop-after", "700", "--json")
        assert part.returncode == 0, part.stderr
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    proc, port = _serve(tmp_path, "b")
    try:
        done = _cli("submit", str(trace), "--analysis", names, "--port",
                    port, "--session-id", "drill", "--batch", "64",
                    "--resume", "--json")
    finally:
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=20)
    offline = _cli("check", str(trace), "--analysis", names, "--json")
    assert done.stdout and offline.stdout, (done.stderr, offline.stderr)
    assert (json.loads(done.stdout)["analyses"]
            == json.loads(offline.stdout)["analyses"])


# -- spool entries from before the change ------------------------------------


def _string_mode(session, events):
    """Give ``session`` the layout of a service that swept string-mode."""
    old = Session(None, ANALYSES, name=session.session.name)
    old.feed(events)
    session.session = old
    vars(session)["packed"] = False
    session.events_fed = len(events)


def _trace_store(session, events):
    """Give ``session`` the packed layout whose store was a plain
    growing :class:`PackedTrace`."""
    session.feed(events)
    session.session._store = PackedTrace("old")


@pytest.mark.parametrize("layout", [_string_mode, _trace_store],
                         ids=["string-mode", "trace-store"])
def test_old_layout_snapshot_is_salvaged(tmp_path, events, layout):
    session = StreamingSession("old", ANALYSES, name="old")
    layout(session, events[:50])
    with pytest.raises(CheckpointError, match="predates"):
        StreamingSession.from_bytes(session.to_bytes())
    manager = RecoveryManager(tmp_path / "spool")
    manager.save(session)
    with Router(recovery=manager) as router:
        assert router.recover() == []
    assert [Path(s["file"]).suffix for s in router.salvaged] == [".bad"]
    assert manager.session_ids() == []


def test_rsplog1_log_is_cut(tmp_path, events):
    """A log written with the old magic (records that started fresh
    tables at each snapshot) is never replayed: load cuts it and lands
    on the snapshot, and re-sending from there ends with the offline
    report."""
    manager = RecoveryManager(tmp_path)
    session = StreamingSession("v1", ANALYSES, name="raytracer")
    session.feed(events[:64])
    assert isinstance(manager.save(session), SessionCheckpoint)
    session.feed(events[64:96], base=64)
    assert isinstance(manager.save(session), LogAppend)
    log = manager.log_path_for("v1")
    data = log.read_bytes()
    assert data.startswith(b"RSPLOG2\n")
    log.write_bytes(b"RSPLOG1\n" + data[8:])
    loaded = manager.load("v1")
    assert loaded.position == 64 and not log.exists()
    loaded.feed(events[64:], base=64)
    assert loaded.finish().to_json()["analyses"] == _offline(events)
