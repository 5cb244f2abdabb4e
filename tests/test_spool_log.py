"""The spool's snapshot + log layout: what replays, what never does,
and what it costs.

A checkpoint appends the events fed since the last one to the session's
log and rewrites the snapshot only when the log would outgrow it. These
tests pin the three things that layout has to get right:

* a log is only ever replayed onto the snapshot it extends — not after
  a crash between a snapshot's rename and the log reset, not after a
  handoff import, and not across restarts, where the recovered session
  starts a fresh segment (a snapshot, then records);
* every path ends with the offline report once the client re-sends
  from the position the spool reports;
* bytes written stay linear in the stream: after every save the log is
  no larger than its snapshot, and the amortized bytes per event do not
  grow from the first half of a long stream to the second.
"""

import pytest

from repro.api import Session
from repro.core.snapshot import freeze
from repro.service.recovery import (
    RecoveryManager,
    SessionCheckpoint,
    checkpoint_session,
)
from repro.service.router import Router, ShardWorker
from repro.service.session import StreamingSession
from repro.sim.workloads.benchmarks import get_case

ANALYSES = ["aerodrome", "races", "lockset"]
SID = "s"


class _Recording(RecoveryManager):
    """A spool that records every save: ``(position, bytes written,
    is-snapshot)``, and checks the log never outgrows its snapshot."""

    def __init__(self, spool) -> None:
        super().__init__(spool)
        self.writes = []

    def save(self, session):
        result = super().save(session)
        snapshot = self.path_for(session.session_id).stat().st_size
        log = self.log_path_for(session.session_id)
        log_bytes = log.stat().st_size if log.exists() else 0
        assert log_bytes <= snapshot, (session.position, log_bytes, snapshot)
        is_snapshot = isinstance(result, SessionCheckpoint)
        written = snapshot if is_snapshot else len(result)
        self.writes.append((session.position, written, is_snapshot))
        return result


def _events(scale):
    return list(get_case("raytracer").generate(seed=7, scale=scale))


def _offline(events, analyses=ANALYSES):
    return Session(events, analyses).run().to_json()["analyses"]


def _stream(worker, events, lo, hi, batch=32):
    for start in range(lo, hi, batch):
        worker.do_events(SID, events[start : min(start + batch, hi)], start)


def _finish_from(session, events):
    """Re-send from the session's position and finish."""
    session.feed(events[session.position :], base=session.position)
    return session.finish().to_json()["analyses"]


@pytest.fixture(scope="module")
def events():
    return _events(0.02)  # ~1k events, race-heavy


class TestStaleLogs:
    def test_crash_between_snapshot_and_log_reset(self, tmp_path, events):
        """The old log survives next to a newer snapshot: it is deleted
        unread, and the session recovers at the snapshot."""
        manager = RecoveryManager(tmp_path)
        worker = ShardWorker(0, manager, 64)
        worker.do_open(SID, ANALYSES, "raytracer", False)
        _stream(worker, events, 0, 256)
        old_log = manager.log_path_for(SID).read_bytes()
        assert len(old_log) > 0
        # A new snapshot (a fresh spool writer has no log to extend),
        # then the log reset "never happened".
        newer = RecoveryManager(tmp_path)
        assert isinstance(newer.save(worker.sessions[SID]), SessionCheckpoint)
        manager.log_path_for(SID).write_bytes(old_log)
        loaded = newer.load(SID)
        assert loaded.position == 256
        assert not newer.log_path_for(SID).exists()
        assert _finish_from(loaded, events) == _offline(events)

    def test_stale_log_at_the_same_position_is_not_replayed(
        self, tmp_path, events
    ):
        """A session restarted from zero under the same id gets a new
        snapshot at position 0; the previous incarnation's log, also
        anchored at 0, must not replay onto it (the anchor includes the
        snapshot's CRC32)."""
        manager = _Recording(tmp_path)
        worker = ShardWorker(0, manager, 16)
        worker.do_open(SID, ["aerodrome"], "raytracer", False)
        _stream(worker, events, 0, 48, batch=16)
        assert [s for _, _, s in manager.writes] == [True, False, False, False]
        old_log = manager.log_path_for(SID).read_bytes()
        restarted = StreamingSession(SID, ["races"], name="raytracer")
        manager.save(restarted)
        manager.log_path_for(SID).write_bytes(old_log)
        loaded = manager.load(SID)
        assert loaded.position == 0 and loaded.analysis_names == ["races"]
        assert _finish_from(loaded, events) == _offline(events, ["races"])

    def test_handoff_import_over_a_session_with_a_log(self, tmp_path, events):
        manager = RecoveryManager(tmp_path)
        worker = ShardWorker(0, manager, 64)
        worker.do_open(SID, ANALYSES, "raytracer", False)
        _stream(worker, events, 0, 200)
        assert manager.log_path_for(SID).exists()
        ahead = StreamingSession(SID, ANALYSES, name="raytracer")
        ahead.feed(events[:300])
        blob = freeze(checkpoint_session(ahead), what="handoff")
        assert worker.do_import(blob)["imported"]
        assert not manager.log_path_for(SID).exists()
        assert manager.load(SID).position == 300
        # The adopted session snapshots first, then logs again.
        _stream(worker, events, 300, 600)
        assert manager.log_path_for(SID).exists()
        loaded = manager.load(SID)
        assert loaded.position == 556  # the last checkpoint
        assert _finish_from(loaded, events) == _offline(events)

    def test_restart_appends_restart(self, tmp_path, events):
        """Each recovered session starts a fresh segment: its first save
        is a snapshot, later ones append records, and a second restart
        replays them."""
        first = _Recording(tmp_path)
        worker = ShardWorker(0, first, 64)
        worker.do_open(SID, ANALYSES, "raytracer", False)
        _stream(worker, events, 0, 300)
        last, _, snapshot = first.writes[-1]
        assert not snapshot  # so the restart replays a log

        second = _Recording(tmp_path)
        worker = ShardWorker(0, second, 64)
        position = worker.do_open(SID, [], "stream", True)["position"]
        assert position == last
        _stream(worker, events, position, 700)
        kinds = [s for _, _, s in second.writes]
        assert kinds[0] and not any(kinds[1:])

        loaded = RecoveryManager(tmp_path).load(SID)
        assert loaded.position == second.writes[-1][0]
        assert _finish_from(loaded, events) == _offline(events)

    def test_delete_quarantine_and_scan_handle_the_log(self, tmp_path, events):
        manager = RecoveryManager(tmp_path)
        worker = ShardWorker(0, manager, 64)
        for sid in ("a", "b", "c"):
            worker.do_open(sid, ANALYSES, "raytracer", False)
            worker.do_events(sid, events[:48], 0)
            assert worker.do_checkpoint(sid)["position"] == 48  # appends
            assert manager.log_path_for(sid).exists()
        assert manager.scan() == (["a", "b", "c"], [])
        manager.delete("a")
        assert not manager.log_path_for("a").exists()
        bad = manager.quarantine("b")
        assert bad.exists() and not manager.log_path_for("b").exists()
        # A snapshot whose header is damaged is salvaged with its log.
        manager.path_for("c").write_bytes(b"RSPOOL2\n\xff")
        with Router(recovery=manager) as router:
            assert router.recover() == []
        assert len(router.salvaged) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "b.bad", "b.log.bad", "c.bad", "c.log.bad"
        ]


def _amortized_halves(writes, total):
    """Bytes written per event in each half of the stream.

    An append is charged to the events it records; a snapshot to the
    events since the previous snapshot, whose log it replaces — the
    amortization the geometric schedule promises. (A raw split would
    land each whole snapshot in one half: snapshots grow with the
    stream, so the raw ratio swings with where the last one falls.)
    """
    mid = total / 2
    halves = [0.0, 0.0]
    last_save = last_snapshot = 0
    for position, written, snapshot in writes:
        lo = last_snapshot if snapshot else last_save
        if position == lo:  # the snapshot at open
            halves[0] += written
        for k, (a, b) in enumerate(((0, mid), (mid, total))):
            overlap = max(0.0, min(position, b) - max(lo, a))
            if position > lo:
                halves[k] += written * overlap / (position - lo)
        last_save = position
        if snapshot:
            last_snapshot = position
    return halves[0] / mid, halves[1] / (total - mid)


@pytest.mark.parametrize(
    "analyses", [ANALYSES, ["aerodrome"]], ids=["race-heavy", "aerodrome"]
)
def test_bytes_written_stay_linear(tmp_path, analyses):
    """Over a 20k-event stream at the server's checkpoint cadence (512-
    event frames, a checkpoint every 1000 events): the log never
    outgrows its snapshot, most checkpoints append, and bytes per event
    do not grow from the first half to the second. A full snapshot at
    every checkpoint reads ~3x here: the snapshot grows with the
    stream (race findings, distinct variables)."""
    events = _events(0.4)
    assert len(events) >= 20_000
    manager = _Recording(tmp_path)
    worker = ShardWorker(0, manager, 1000)
    worker.do_open(SID, analyses, "raytracer", False)
    for lo in range(0, len(events), 512):
        worker.do_events(SID, events[lo : lo + 512], lo)
    assert worker.sessions[SID].position == len(events)
    snapshots = sum(1 for _, _, s in manager.writes if s)
    assert snapshots <= len(manager.writes) // 3
    first, second = _amortized_halves(manager.writes, len(events))
    assert second <= 1.15 * first, (first, second)
