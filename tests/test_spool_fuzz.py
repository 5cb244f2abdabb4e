"""Spool-file robustness: damaged checkpoints must fail *typed*.

The spool's contract mirrors the binary loader's
(``tests/test_binary_fuzz.py``): a valid entry round-trips; anything
else — truncation, bit flips, duplicate entries, stray garbage —
either still loads (the damage hit a don't-care byte) or raises the
typed :class:`RecoveryError`. Never a raw ``struct.error``, never an
``UnpicklingError`` escaping, and ``scan``/``load_all`` (the restart
path) never raise at all: a corrupt spool can degrade one session,
not the server.

A session's log (the records appended since its snapshot) has a
stronger contract: damage anywhere in it loses only the records from
the damaged one on. The session still loads, at a record boundary no
later than the true position, the bad tail is cut off, and re-sending
from the reported position finishes with the offline report.
"""

import shutil
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core.snapshot import CheckpointError
from repro.service import protocol
from repro.service.recovery import (
    LogAppend,
    RecoveryError,
    RecoveryManager,
    SessionCheckpoint,
)
from repro.service.router import Router
from repro.service.session import StreamingSession
from repro.sim import trace_zoo
from repro.sim.workloads.benchmarks import get_case
from repro.trace.events import Event, Op


def _spooled(tmp_path, sid="fuzz", n=6):
    """A spool with one good entry; returns (manager, entry path)."""
    manager = RecoveryManager(tmp_path)
    spec = trace_zoo.get("paper-rho1")
    session = StreamingSession(sid, ["aerodrome"], name=spec.name)
    session.feed(list(spec.trace())[:n])
    manager.save(session)
    return manager, manager.path_for(sid)


def _assert_typed(manager, sid="fuzz"):
    """Loading may succeed or fail — but only with the typed error."""
    try:
        session = manager.load(sid)
    except CheckpointError:
        return None  # RecoveryError or a thaw failure: both typed
    assert isinstance(session, StreamingSession)
    return session


class TestSpoolFuzz:
    @settings(max_examples=40, deadline=None)
    @given(cut=st.integers(0, 10**6))
    def test_truncation_at_any_point_is_typed(self, tmp_path_factory, cut):
        tmp_path = tmp_path_factory.mktemp("spool")
        manager, path = _spooled(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: cut % len(data)])
        with pytest.raises(RecoveryError):
            manager.load("fuzz")
        manager.load_all()  # the restart path never raises

    @settings(max_examples=60, deadline=None)
    @given(position=st.integers(0, 10**6), bit=st.integers(0, 7))
    def test_single_bit_flip_is_typed_or_harmless(
        self, tmp_path_factory, position, bit
    ):
        tmp_path = tmp_path_factory.mktemp("spool")
        manager, path = _spooled(tmp_path)
        data = bytearray(path.read_bytes())
        data[position % len(data)] ^= 1 << bit
        path.write_bytes(bytes(data))
        loaded = _assert_typed(manager)
        if loaded is not None:
            # a flip that still loads must have hit a don't-care byte
            # (e.g. inside the id padding): the state is still sane
            assert loaded.position >= 0
        manager.load_all()

    @settings(max_examples=30, deadline=None)
    @given(junk=st.binary(min_size=0, max_size=200))
    def test_arbitrary_junk_file_is_typed_and_salvaged(
        self, tmp_path_factory, junk
    ):
        tmp_path = tmp_path_factory.mktemp("spool")
        manager, path = _spooled(tmp_path)
        bad = path.with_name("junk.ckpt")
        bad.write_bytes(junk)
        ids, salvage = manager.scan()
        assert "fuzz" in ids
        # junk either parses as a (non-duplicate) header or is salvaged
        if salvage:
            assert salvage[0][0] == bad
        manager.load_all()

    def test_duplicate_entries_keep_one_and_salvage_rest(self, tmp_path):
        manager, path = _spooled(tmp_path)
        shutil.copy(path, path.with_name("copy-of" + path.name))
        ids, salvage = manager.scan()
        assert ids == ["fuzz"]
        assert len(salvage) == 1 and "duplicate" in salvage[0][1]
        assert len(manager.load_all()) == 1

    def test_salvage_quarantines_without_blocking_siblings(self, tmp_path):
        manager, path = _spooled(tmp_path, sid="good")
        bad = tmp_path / "rotten.ckpt"
        bad.write_bytes(b"RSPOOL2\n\xff\xff\xff\xff")
        ids, salvage = manager.scan()
        assert ids == ["good"]
        assert [p for p, _ in salvage] == [bad]
        quarantined = manager.quarantine_path(bad)
        assert not bad.exists() and quarantined.exists()
        assert manager.scan() == (["good"], [])


# -- the log -----------------------------------------------------------------

LOG_ANALYSES = ["aerodrome", "races", "lockset"]
#: Events in the snapshot, then per appended record.
SNAPSHOT_AT, RECORD = 64, 16


@pytest.fixture(scope="module")
def logged(tmp_path_factory):
    """A spool holding a snapshot plus a log of several records, the
    stream, its offline report, and the positions a load may land on."""
    events = list(get_case("raytracer").generate(seed=7, scale=0.005))
    offline = Session(events, LOG_ANALYSES).run().to_json()["analyses"]
    manager = RecoveryManager(tmp_path_factory.mktemp("logged"))
    session = StreamingSession("log", LOG_ANALYSES, name="raytracer")
    session.feed(events[:SNAPSHOT_AT])
    assert isinstance(manager.save(session), SessionCheckpoint)
    boundaries = [SNAPSHOT_AT]
    for lo in range(SNAPSHOT_AT, SNAPSHOT_AT + 4 * RECORD, RECORD):
        session.feed(events[lo : lo + RECORD], base=lo)
        assert isinstance(manager.save(session), LogAppend)
        boundaries.append(session.position)
    snapshot = manager.path_for("log").read_bytes()
    log = manager.log_path_for("log").read_bytes()
    return events, offline, snapshot, log, boundaries


def _respool(tmp_path_factory, logged, log):
    """A fresh spool with the fixture's snapshot and ``log`` bytes."""
    manager = RecoveryManager(tmp_path_factory.mktemp("spool"))
    manager.path_for("log").write_bytes(logged[2])
    manager.log_path_for("log").write_bytes(log)
    return manager


def _assert_recovers(manager, logged):
    """Load lands on a record boundary, leaves a log that is a prefix of
    the original ending there, and re-sending from the reported position
    finishes with the offline report."""
    events, offline, _, log, boundaries = logged
    loaded = manager.load("log")
    assert loaded.position in boundaries
    path = manager.log_path_for("log")
    if path.exists():
        kept = path.read_bytes()
        assert log.startswith(kept)
        assert manager.load("log").position == loaded.position
    loaded.feed(events[loaded.position :], base=loaded.position)
    assert loaded.finish().to_json()["analyses"] == offline


class TestSpoolLogFuzz:
    def test_intact_log_replays_to_the_true_position(
        self, tmp_path_factory, logged
    ):
        manager = _respool(tmp_path_factory, logged, logged[3])
        assert manager.load("log").position == logged[4][-1]
        _assert_recovers(manager, logged)

    def test_truncation_at_every_offset_loses_only_the_tail(
        self, tmp_path_factory, logged
    ):
        log = logged[3]
        manager = _respool(tmp_path_factory, logged, log)
        for cut in range(len(log)):
            manager.log_path_for("log").write_bytes(log[:cut])
            _assert_recovers(manager, logged)

    def test_single_bit_flip_anywhere_loses_only_the_tail(
        self, tmp_path_factory, logged
    ):
        log = logged[3]
        manager = _respool(tmp_path_factory, logged, log)
        for offset in range(len(log)):
            damaged = bytearray(log)
            damaged[offset] ^= 1 << (offset % 8)
            manager.log_path_for("log").write_bytes(bytes(damaged))
            _assert_recovers(manager, logged)
            manager.load_all()  # the restart path never raises

    @staticmethod
    def _framed(record):
        return (
            len(record).to_bytes(4, "little")
            + zlib.crc32(record).to_bytes(4, "little")
            + record
        )

    @pytest.mark.parametrize("kind", ["undecodable", "feed-raises", "gap"])
    def test_crc_valid_record_that_will_not_replay_is_typed(
        self, tmp_path_factory, logged, kind
    ):
        """Damage the CRC cannot see surfaces as RecoveryError — never a
        PayloadError or an analysis exception — and the restart path
        salvages the entry instead of resuming it."""
        events, end = logged[0], logged[4][-1]
        if kind == "undecodable":
            record = bytes([protocol.DELTA_EVENTS_POS]) + b"junk" * 4
        else:
            # An encoder in the log's state: its name tables continue
            # the session's table epoch, which began with the stream.
            encoder = protocol.DeltaEncoder()
            encoder.encode(events[:end], base=0)
            base = end if kind == "feed-raises" else end + 1
            record = encoder.encode([Event("t-new", Op.END, None)], base=base)
        manager = _respool(
            tmp_path_factory, logged, logged[3] + self._framed(record)
        )
        cause = {"undecodable": "PayloadError", "feed-raises": "ValueError",
                 "gap": "past position"}[kind]
        with pytest.raises(RecoveryError, match=f"record at byte .*{cause}"):
            manager.load("log")
        assert manager.load_all() == {}
        with Router(recovery=manager) as router:
            assert router.recover() == []
        assert len(router.salvaged) == 1
        assert not manager.path_for("log").exists()
        assert not manager.log_path_for("log").exists()
