"""The streaming service end to end: router, server, recovery.

The load-bearing test is the **agreement property**: every trace-zoo
specimen streamed through a live TCP server — in random batch splits,
with either wire encoding, with and without a mid-stream
checkpoint + server restart — produces a ``repro-report/1`` document
whose analyses and verdict are identical to the offline
``Session.run()`` on the full trace. That is the service-level
extension of the checkpoint-equivalence property in
``tests/test_snapshot.py``.
"""

import os
import random
import signal
import socket
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from repro.api import Session, validate_report
from repro.service import (
    BusyError,
    RemoteChecker,
    Router,
    ServiceClient,
    ServiceError,
    ServiceServer,
    StreamingSession,
    SessionNotFound,
    submit_trace,
)
from repro.service.recovery import RecoveryManager
from repro.sim import trace_zoo

ANALYSES = ["aerodrome", "races", "lockset"]


def offline_doc(trace, analyses=ANALYSES, name=None):
    return Session(trace, analyses, name=name or trace.name).run().to_json()


def batches(events, seed):
    rng = random.Random(seed)
    out, i = [], 0
    while i < len(events):
        n = rng.randint(1, 4)
        out.append(events[i : i + n])
        i += n
    return out


# -- StreamingSession (no wire) ---------------------------------------------


class TestStreamingSession:
    def test_feed_finish_matches_offline(self):
        spec = trace_zoo.get("paper-rho2")
        session = StreamingSession("s1", ANALYSES, name=spec.name)
        for batch in batches(list(spec.trace()), seed=1):
            session.feed(batch)
        assert session.position == len(spec.trace())
        doc = session.report()
        base = offline_doc(spec.trace(), name=spec.name)
        assert doc["analyses"] == base["analyses"]
        assert doc["verdict"] == base["verdict"]
        assert doc["trace"]["events"] == base["trace"]["events"]

    def test_violation_log_is_monotonic_and_drains_once(self):
        spec = trace_zoo.get("three-party-cycle")
        session = StreamingSession("s2", ANALYSES, name=spec.name)
        drained = []
        for batch in batches(list(spec.trace()), seed=2):
            session.feed(batch)
            drained.extend(session.drain_findings())
        session.finish()
        drained.extend(session.drain_findings())
        assert drained == session.findings  # each finding exactly once
        assert any(f["analysis"] == "aerodrome" for f in drained)

    def test_checkpoint_round_trip_mid_stream(self):
        spec = trace_zoo.get("lock-cycle")
        events = list(spec.trace())
        half = len(events) // 2
        session = StreamingSession("s3", ANALYSES, name=spec.name)
        session.feed(events[:half])
        restored = StreamingSession.from_bytes(session.to_bytes())
        assert restored.position == half
        restored.feed(events[half:])
        base = offline_doc(spec.trace(), name=spec.name)
        assert restored.report()["analyses"] == base["analyses"]

    def test_feed_after_close_rejected(self):
        session = StreamingSession("s4", ["aerodrome"])
        session.finish()
        with pytest.raises(RuntimeError):
            session.feed([])


# -- Router -----------------------------------------------------------------


class TestRouter:
    def test_sessions_route_stably_and_share_nothing(self):
        with Router(shards=3) as router:
            ids = [f"session-{i}" for i in range(12)]
            for session_id in ids:
                router.open_session(
                    [("aerodrome", {})], session_id=session_id
                )
            stats = router.stats()
            assert stats["sessions_open"] == 12
            per_shard = [s["sessions_open"] for s in stats["shards"]]
            assert sum(per_shard) == 12
            assert all(
                router.shard_of(s) == router.shard_of(s) for s in ids
            )

    def test_full_inbox_raises_busy(self):
        with Router(shards=1, queue_size=2) as router:
            info = router.open_session([("aerodrome", {})])
            sid = info["session"]
            spec = trace_zoo.get("paper-rho1")
            events = list(spec.trace())
            # swamp the queue faster than the shard can drain: big burst
            with pytest.raises(BusyError):
                for _ in range(10_000):
                    router.feed(sid, events)

    def test_unknown_session(self):
        with Router() as router:
            with pytest.raises(SessionNotFound):
                router.flush("nope")

    def test_duplicate_open_rejected(self):
        with Router() as router:
            router.open_session([("aerodrome", {})], session_id="dup")
            with pytest.raises(Exception, match="already open"):
                router.open_session([("aerodrome", {})], session_id="dup")

    def test_close_returns_report_and_frees_session(self):
        with Router(shards=2) as router:
            spec = trace_zoo.get("paper-rho3")
            info = router.open_session(
                [(n, {}) for n in ANALYSES], name=spec.name
            )
            sid = info["session"]
            router.feed(sid, list(spec.trace()))
            router.flush(sid)
            out = router.close(sid)
            validate_report(out["report"])
            base = offline_doc(spec.trace(), name=spec.name)
            assert out["report"]["analyses"] == base["analyses"]
            with pytest.raises(SessionNotFound):
                router.flush(sid)
            assert router.stats()["sessions_closed"] == 1

    def test_bad_analysis_surfaces_not_poisons(self):
        with Router() as router:
            with pytest.raises(Exception, match="unknown analysis"):
                router.open_session([("not-an-analysis", {})])
            # the shard still works
            info = router.open_session([("aerodrome", {})])
            assert router.flush(info["session"])["position"] == 0

    @pytest.mark.parametrize("workers", ["thread", "process"])
    def test_worker_modes_agree(self, workers):
        spec = trace_zoo.get("three-party-cycle")
        base = offline_doc(spec.trace(), name=spec.name)
        with Router(shards=2, workers=workers) as router:
            info = router.open_session(
                [(n, {}) for n in ANALYSES], name=spec.name
            )
            sid = info["session"]
            for batch in batches(list(spec.trace()), seed=3):
                router.feed(sid, batch)
            report = router.close(sid)["report"]
        assert report["analyses"] == base["analyses"]
        assert report["verdict"] == base["verdict"]


# -- live server: the agreement property ------------------------------------


@pytest.fixture(scope="module")
def server():
    """One live server shared by the tests below."""
    with ServiceServer(shards=2).start() as srv:
        yield srv


def test_zoo_agreement_over_live_server(server):
    """Satellite property: every specimen, random batches, both
    encodings, report ≡ offline."""
    for i, spec in enumerate(trace_zoo.all_specimens()):
        trace = spec.trace()
        base = offline_doc(spec.trace(), name=spec.name)
        encoding = "delta" if i % 2 else "text"
        doc = submit_trace(
            server.host,
            server.port,
            list(trace),
            ANALYSES,
            name=spec.name,
            batch=random.Random(i).randint(1, 5),
            encoding=encoding,
        )
        assert doc["analyses"] == base["analyses"], spec.name
        assert doc["verdict"] == base["verdict"], spec.name
        assert doc["trace"]["events"] == base["trace"]["events"], spec.name
        validate_report(doc)


def test_zoo_agreement_with_restart_mid_stream(tmp_path):
    """Satellite property: checkpoint, kill the server, restart from
    the spool, resume, and the report still matches offline."""
    spool = tmp_path / "spool"
    for i, spec in enumerate(trace_zoo.all_specimens()):
        trace = list(spec.trace())
        base = offline_doc(spec.trace(), name=spec.name)
        cut = random.Random(100 + i).randint(1, max(1, len(trace) - 1))
        sid = f"restart-{spec.name}"
        with ServiceServer(shards=2, spool=spool).start() as first:
            part = submit_trace(
                first.host,
                first.port,
                trace,
                ANALYSES,
                name=spec.name,
                batch=2,
                session_id=sid,
                stop_after=cut,
                checkpoint=True,
            )
            assert part["open"] and part["position"] == cut
        # first server is gone (stop() ≈ the crash); a new incarnation
        # recovers the session from the spool.
        with ServiceServer(shards=2, spool=spool).start() as second:
            assert sid in second.recovered
            doc = submit_trace(
                second.host,
                second.port,
                trace,
                ANALYSES,
                name=spec.name,
                batch=3,
                session_id=sid,
                resume=True,
            )
        assert doc["analyses"] == base["analyses"], spec.name
        assert doc["verdict"] == base["verdict"], spec.name
        assert doc["service"]["resumed"], spec.name


def test_concurrent_tenants_do_not_interfere(server):
    import threading

    specs = [trace_zoo.get(n) for n in (
        "paper-rho1", "paper-rho2", "three-party-cycle", "unary-only",
        "lock-cycle", "fork-join-handoff",
    )]
    results = {}
    errors = []

    def stream(spec):
        try:
            results[spec.name] = submit_trace(
                server.host, server.port, list(spec.trace()),
                ANALYSES, name=spec.name, batch=1,
            )
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append((spec.name, exc))

    threads = [threading.Thread(target=stream, args=(s,)) for s in specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for spec in specs:
        base = offline_doc(spec.trace(), name=spec.name)
        assert results[spec.name]["analyses"] == base["analyses"], spec.name


def test_corrupt_bytes_poison_only_their_connection(server):
    """Satellite: wire garbage kills the connection, not the shard or
    its other sessions."""
    spec = trace_zoo.get("paper-rho2")
    # a healthy session, opened first, on the same (only two) shards
    client = ServiceClient(server.host, server.port)
    handle = client.open_session(ANALYSES, name=spec.name)
    events = list(spec.trace())
    handle.send(events[:3])

    # junk connection 1: raw garbage
    sock = socket.create_connection((server.host, server.port), timeout=5)
    sock.sendall(b"\xde\xad\xbe\xef" * 10)
    sock.close()
    # junk connection 2: valid frame, corrupt payload
    with ServiceClient(server.host, server.port) as bad:
        from repro.service import protocol

        with pytest.raises((ServiceError, protocol.WireError)):
            bad.roundtrip(
                protocol.encode_frame(protocol.FrameType.HELLO, b"{broken")
            )

    # the healthy session is unaffected
    handle.send(events[3:])
    doc = handle.result()
    client.close()
    base = offline_doc(spec.trace(), name=spec.name)
    assert doc["analyses"] == base["analyses"]


def test_events_before_hello_is_an_error(server):
    with ServiceClient(server.host, server.port) as client:
        from repro.service import protocol

        with pytest.raises(ServiceError, match="HELLO"):
            client.roundtrip(
                protocol.encode_frame(
                    protocol.FrameType.EVENTS,
                    protocol.encode_events_text([], base=0),
                )
            )


def test_stats_frame(server):
    with ServiceClient(server.host, server.port) as client:
        stats = client.stats()
    assert {"shards", "sessions_open", "events", "violations"} <= set(stats)
    assert len(stats["shards"]) == 2


def _positioned_text_frame(body, base=0):
    from repro.service import protocol

    payload = (
        bytes([protocol.TEXT_EVENTS_POS])
        + struct.pack("<QI", base, zlib.crc32(body))
        + body
    )
    return protocol.encode_frame(protocol.FrameType.EVENTS, payload)


def test_malformed_event_line_parks_error_on_session(server):
    with ServiceClient(server.host, server.port) as client:
        client.open_session(["aerodrome"], name="bad-events")
        with pytest.raises(ServiceError):
            # fork with no target is a payload error at decode time
            client.roundtrip(_positioned_text_frame(b"t1|fork"))


def test_unpositioned_events_frame_is_answered_with_error(server):
    """Legacy tag-0 EVENTS (no base) get a typed ERROR and the
    connection is dropped, like any other bad payload."""
    from repro.service import protocol

    with ServiceClient(server.host, server.port) as client:
        client.open_session(["aerodrome"], name="legacy-events")
        with pytest.raises(ServiceError, match="positioned"):
            client.roundtrip(
                protocol.encode_frame(
                    protocol.FrameType.EVENTS, bytes([0]) + b"t1|w(x)"
                )
            )


def test_remote_checker_live_monitor(server):
    from repro.instrument.monitor import LiveMonitor

    remote = RemoteChecker(
        server.host, server.port, analyses=["aerodrome"], batch=1
    )
    monitor = LiveMonitor(checker=remote)
    x = monitor.shared("x")
    with monitor.atomic("bump"):
        x.set(1)
        x.set(x.get() + 1)
    remote.flush()
    assert monitor.clean
    report = remote.finish()
    assert report["verdict"] == "pass"
    assert remote.result().serializable


def test_remote_checker_reports_violation(server):
    spec = trace_zoo.get("paper-rho2")
    remote = RemoteChecker(
        server.host, server.port, analyses=["aerodrome"], batch=2
    )
    found = None
    for event in spec.trace():
        found = remote.process(event) or found
    found = remote.flush() or found
    assert remote.finish()["verdict"] == "fail"
    assert remote.violation is not None
    base = Session(spec.trace(), ["aerodrome"]).run()
    expected = base.reports["aerodrome"].native.violation
    assert remote.violation.event_idx == expected.event_idx


# -- recovery unit tests ----------------------------------------------------


class TestRecovery:
    def test_spool_round_trip(self, tmp_path):
        manager = RecoveryManager(tmp_path / "spool")
        spec = trace_zoo.get("paper-rho4")
        session = StreamingSession("abc", ANALYSES, name=spec.name)
        session.feed(list(spec.trace())[:4])
        checkpoint = manager.save(session)
        assert checkpoint.position == 4
        assert checkpoint.analyses == ANALYSES
        assert len(checkpoint) > 0
        assert manager.session_ids() == ["abc"]
        restored = manager.load("abc")
        assert restored.position == 4
        manager.delete("abc")
        assert manager.session_ids() == []

    def test_corrupt_spool_entry_skipped(self, tmp_path):
        manager = RecoveryManager(tmp_path / "spool")
        session = StreamingSession("good", ["aerodrome"])
        manager.save(session)
        (tmp_path / "spool" / "bad.ckpt").write_bytes(b"not a checkpoint")
        assert manager.session_ids() == ["good"]
        assert set(manager.load_all()) == {"good"}

    def test_session_ids_are_sanitized(self, tmp_path):
        manager = RecoveryManager(tmp_path / "spool")
        path = manager.path_for("../../etc/passwd")
        assert path.parent == manager.spool
        assert "/" not in path.name


# -- process shards die with their server ------------------------------------


def _proc_stat(pid):
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()  # the name may hold spaces


def _children(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(entry)
            if fields is not None and int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def _gone_or_zombie(pid):
    fields = _proc_stat(pid)
    return fields is None or fields[0] == "Z"


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)
def test_process_shards_exit_when_the_server_is_killed(tmp_path):
    """A SIGKILLed server never sends its shards ``stop``: each process
    shard must notice its parent is gone and exit on its own."""
    ready = tmp_path / "ready.txt"
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--workers", "process", "--shards", "2",
            "--spool", str(tmp_path / "spool"),
            "--ready-file", str(ready),
        ],
        cwd=str(root),
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    shards = []
    try:
        deadline = time.monotonic() + 30.0
        while not ready.exists():
            assert proc.poll() is None, "server exited before it was ready"
            assert time.monotonic() < deadline, "server never became ready"
            time.sleep(0.05)
        shards = _children(proc.pid)
        assert len(shards) >= 2, shards
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while not all(_gone_or_zombie(pid) for pid in shards):
            assert time.monotonic() < deadline, (
                f"shard processes outlived the killed server: {shards}"
            )
            time.sleep(0.1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for pid in shards:
            if not _gone_or_zombie(pid):
                os.kill(pid, signal.SIGKILL)
