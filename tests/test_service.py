"""The streaming service end to end: router, server, recovery.

The load-bearing test is the **agreement property**: every trace-zoo
specimen streamed through a live TCP server — in random batch splits,
with and without a mid-stream
checkpoint + server restart — produces a ``repro-report/1`` document
whose analyses and verdict are identical to the offline
``Session.run()`` on the full trace. That is the service-level
extension of the checkpoint-equivalence property in
``tests/test_snapshot.py``.
"""

import json
import random
import socket
import struct
import zlib
from pathlib import Path

import pytest

from repro.api import Session, validate_report
from repro.core.snapshot import CheckpointError
from repro.service import (
    RemoteChecker,
    Router,
    ServiceClient,
    ServiceError,
    ServiceServer,
    StreamingSession,
    SessionNotFound,
    submit_trace,
)
from repro.service.recovery import RecoveryError, RecoveryManager
from repro.sim import trace_zoo
from repro.sim.workloads.benchmarks import get_case
from repro.trace.events import Event, Op
from repro.trace.trace import Trace

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
            drained.extend(map(json.loads, session.drain_findings()))
        session.finish()
        drained.extend(map(json.loads, session.drain_findings()))
        assert drained == session.findings  # each finding exactly once
        assert any(f["analysis"] == "aerodrome" for f in drained)

    def test_checkpoint_round_trip_mid_stream(self):
        """A thawed session finishes like the offline run, and its drains
        pick up at the frozen cursor: together with the drains before the
        freeze they are exactly an uninterrupted session's drains."""
        raytracer = get_case("raytracer").generate(seed=3, scale=0.01)

        def stream(session, events, seed):
            drains = []
            for k, batch in enumerate(batches(events, seed=seed)):
                session.feed(batch)
                if k % 3 == 0:
                    drains.append(session.drain_findings())
            return drains

        undelivered = 0
        for trace in (trace_zoo.get("lock-cycle").trace(), raytracer):
            events = list(trace)
            half = len(events) // 2
            session = StreamingSession("s3", ANALYSES, name=trace.name)
            uninterrupted = StreamingSession("s3", ANALYSES, name=trace.name)
            drains = stream(session, events[:half], seed=3)
            expected = stream(uninterrupted, events[:half], seed=3)
            restored = StreamingSession.from_bytes(session.to_bytes())
            assert restored.position == half
            undelivered += restored.findings_total - sum(map(len, drains))
            drains += stream(restored, events[half:], seed=4)
            expected += stream(uninterrupted, events[half:], seed=4)
            base = offline_doc(trace)
            assert restored.report()["analyses"] == base["analyses"]
            uninterrupted.finish()
            drains.append(restored.drain_findings())
            expected.append(uninterrupted.drain_findings())
            assert drains == expected, trace.name
        assert undelivered > 0  # the freeze held findings not yet shipped

    def test_findings_are_converted_only_when_drained(self, monkeypatch):
        """Feeding records finding ids only: no finding is converted on
        the ingest path, and a drain converts exactly what it ships."""
        import repro.service.session as session_module

        converted = []
        real = session_module.finding_json

        def counting(finding):
            converted.append(finding)
            return real(finding)

        monkeypatch.setattr(session_module, "finding_json", counting)
        events = list(get_case("raytracer").generate(seed=3, scale=0.01))
        session = StreamingSession("s5", ANALYSES, name="raytracer")
        for k in range(0, len(events), 8):
            session.feed(events[k : k + 8])
        assert converted == []
        shipped = session.drain_findings()
        assert len(shipped) == session.findings_total > 100
        assert len(converted) == len(shipped)

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

    def test_batched_feed_agrees_with_offline(self):
        spec = trace_zoo.get("three-party-cycle")
        base = offline_doc(spec.trace(), name=spec.name)
        with Router(shards=2) as router:
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
    """Satellite property: every specimen, random batches, report ≡
    offline."""
    for i, spec in enumerate(trace_zoo.all_specimens()):
        trace = spec.trace()
        base = offline_doc(spec.trace(), name=spec.name)
        doc = submit_trace(
            server.host,
            server.port,
            list(trace),
            ANALYSES,
            name=spec.name,
            batch=random.Random(i).randint(1, 5),
        )
        assert doc["analyses"] == base["analyses"], spec.name
        assert doc["verdict"] == base["verdict"], spec.name
        assert doc["trace"]["events"] == base["trace"]["events"], spec.name
        validate_report(doc)


def test_flush_findings_equal_offline_violations(server):
    """FLUSH + CLOSE findings, grouped per analysis, are each analysis's
    offline violations in order, for any batching and FLUSH cadence.
    Only checker and races analyses surface findings mid-stream; lockset
    warnings arrive in the CLOSE report alone."""
    traces = [spec.trace() for spec in trace_zoo.all_specimens()]
    traces.append(get_case("raytracer").generate(seed=3, scale=0.01))
    for i, trace in enumerate(traces):
        rng = random.Random(i)
        events = list(trace)
        with ServiceClient(server.host, server.port) as client:
            handle = client.open_session(ANALYSES, name=trace.name)
            sent = 0
            while sent < len(events):
                sent += handle.send(events[sent : sent + rng.randint(1, 40)])
                if rng.random() < 0.5:
                    handle.flush()
            doc = handle.result()
        base = offline_doc(trace)
        assert doc["analyses"] == base["analyses"], trace.name
        groups = {name: [] for name in ANALYSES}
        for entry in handle.findings:
            groups[entry["analysis"]].append(entry["finding"])
        for report in base["analyses"]:
            name = report["analysis"]
            expected = [] if name == "lockset" else report["violations"]
            assert groups[name] == expected, (trace.name, name)
    assert groups["races"]  # the raytracer trace is race-heavy


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
                    protocol.DeltaEncoder().encode([], base=0),
                )
            )


def test_sessions_in_turn_on_one_connection(server):
    """Delta name tables belong to the session: a second HELLO on the
    same connection starts fresh tables on both ends, so a session whose
    names differ from the first one's still decodes correctly."""
    from repro.service import protocol

    first = [
        Event("t1", Op.BEGIN), Event("t1", Op.WRITE, "x"), Event("t1", Op.END),
    ]
    second = [
        Event("t9", Op.BEGIN), Event("t9", Op.READ, "y"),
        Event("t8", Op.WRITE, "y"), Event("t9", Op.READ, "z"),
        Event("t9", Op.END),
    ]
    with ServiceClient(server.host, server.port) as client:
        for name, events in (("first", first), ("second", second)):
            handle = client.open_session(ANALYSES, name=name)
            # One fresh encoder per session, as SessionHandle.send has.
            payload = protocol.DeltaEncoder().encode(events, base=0)
            client.roundtrip(
                protocol.encode_frame(protocol.FrameType.EVENTS, payload)
            )
            doc = handle.result()
            base = offline_doc(Trace(events, name=name))
            assert doc["analyses"] == base["analyses"], name
            assert doc["verdict"] == base["verdict"], name
            assert doc["trace"]["events"] == len(events), name


def test_open_session_accepts_only_delta(server):
    with ServiceClient(server.host, server.port) as client:
        for encoding in ("text", "packed"):
            with pytest.raises(ValueError, match="delta"):
                client.open_session(ANALYSES, encoding=encoding)


def test_stats_frame(server):
    with ServiceClient(server.host, server.port) as client:
        stats = client.stats()
    assert {"shards", "sessions_open", "events", "violations"} <= set(stats)
    assert len(stats["shards"]) == 2


def _positioned_delta_frame(body, base=0):
    from repro.service import protocol

    payload = (
        bytes([protocol.DELTA_EVENTS_POS])
        + struct.pack("<QI", base, zlib.crc32(body))
        + body
    )
    return protocol.encode_frame(protocol.FrameType.EVENTS, payload)


def test_malformed_event_line_parks_error_on_session(server):
    # Name tables (variable, lock, thread, label): only thread "t1";
    # then one (thread 0, FORK, target -1) triple.
    body = (
        struct.pack("<IIII", 0, 0, 0, 0)
        + struct.pack("<III", 0, 1, 2) + b"t1"
        + struct.pack("<II", 0, 0)
        + struct.pack("<I", 1)
        + struct.pack("<IBi", 0, Op.FORK, -1)
    )
    with ServiceClient(server.host, server.port) as client:
        client.open_session(["aerodrome"], name="bad-events")
        with pytest.raises(ServiceError, match="FORK event without a target"):
            # fork with no target is a payload error at decode time
            client.roundtrip(_positioned_delta_frame(body))


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
    def test_old_layout_checkpoint_is_salvaged(self, tmp_path):
        """A session frozen with a stored finding log and no finding-id
        runs fails typed at thaw, so recovery moves its spool entry
        aside instead of resuming a session that breaks at first use."""
        spec = trace_zoo.get("three-party-cycle")
        session = StreamingSession("old", ANALYSES, name=spec.name)
        session.feed(list(spec.trace()))
        state = vars(session)
        state["findings"], state["delivered"] = session.findings, 0
        del state["_segments"], state["_cursor"]
        with pytest.raises(CheckpointError, match="predates"):
            StreamingSession.from_bytes(session.to_bytes())
        manager = RecoveryManager(tmp_path / "spool")
        manager.save(session)
        with Router(recovery=manager) as router:
            assert router.recover() == []
        assert [Path(s["file"]).suffix for s in router.salvaged] == [".bad"]
        assert manager.session_ids() == []

    @pytest.mark.parametrize("analysis", ["races", "lockset"])
    def test_old_layout_detector_is_salvaged(self, tmp_path, analysis):
        """A fresh session whose race detector or lockset analyzer has
        the dict-of-objects layout that predates int clocks and
        per-thread lock sets fails typed at thaw (not with an
        AttributeError at its first feed), and recovery moves the spool
        entry aside."""
        from repro.core.vector_clock import ThreadRegistry

        session = StreamingSession("old", ANALYSES, name="old")
        index = ANALYSES.index(analysis)
        wrapper = session.session.analyses[index]
        if analysis == "races":
            state = vars(wrapper.detector)
            old = {"races": [], "_threads": ThreadRegistry(), "_clock": {},
                   "_locks": {}, "_vars": {}, "events_processed": 0}
        else:
            state = vars(wrapper.analyzer)
            old = {"_held": {}, "_vars": {}, "warnings": [],
                   "events_processed": 0}
        state.clear()
        state.update(old)
        with pytest.raises(CheckpointError, match="predates"):
            StreamingSession.from_bytes(session.to_bytes())
        manager = RecoveryManager(tmp_path / "spool")
        manager.save(session)
        with Router(recovery=manager) as router:
            assert router.recover() == []
        assert [Path(s["file"]).suffix for s in router.salvaged] == [".bad"]
        assert manager.session_ids() == []

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

    def test_session_ids_never_share_a_spool_entry(self, tmp_path):
        manager = RecoveryManager(tmp_path / "spool")
        ids = ["a/b", "a_b", "a%2Fb", "a b", "abc-1.x_Y"]
        assert len({manager.path_for(sid) for sid in ids}) == len(ids)
        assert manager.path_for("abc-1.x_Y").name == "abc-1.x_Y.ckpt"
        spec = trace_zoo.get("paper-rho4")
        session = StreamingSession("a/b", ANALYSES, name=spec.name)
        session.feed(list(spec.trace())[:3])
        manager.save(session)
        with pytest.raises(RecoveryError):
            manager.load("a_b")
        assert manager.load("a/b").position == 3
        # An entry found under another id's file name is never adopted.
        manager.path_for("a/b").rename(manager.path_for("a_b"))
        with pytest.raises(RecoveryError, match="belongs to session 'a/b'"):
            manager.load("a_b")
