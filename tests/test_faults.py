"""The fault-injection layer itself: plans, the injector switchboard,
the injection sites, and the hardening each site forces.

The load-bearing properties:

* **determinism** — the same plan seed fires the same faults at the
  same arrivals (the chaos drills' reproducibility story);
* **zero overhead by default** — with no plan installed, every site is
  a no-op and the service runs its untouched code paths;
* **typed failure surfacing** — every injected fault lands as a typed
  error (``RecoveryError``, ``SessionQuarantined``, a ``PayloadError``
  CRC mismatch), never as silent corruption.
"""

import json

import pytest

from repro.api import Session
from repro.faults import (
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    PLAN_VERSION,
    SITES,
    current,
    fire,
    injected,
    install,
    load_plan,
    mutate_frame,
    save_plan,
    uninstall,
)
from repro.service import protocol
from repro.service.recovery import RecoveryError, RecoveryManager
from repro.service.session import StreamingSession
from repro.sim import trace_zoo


@pytest.fixture(autouse=True)
def no_leftover_plan():
    uninstall()
    yield
    uninstall()


# -- FaultPlan / FaultRule ---------------------------------------------------


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultRule(site="nope", op="crash")

    def test_unsupported_op_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultRule(site="wire.send", op="crash")

    def test_every_catalog_entry_constructs(self):
        for site, ops in SITES.items():
            for op in ops:
                FaultRule(site=site, op=op)

    def test_after_n_skips_then_fires(self):
        plan = FaultPlan(seed=1)
        plan.add("shard.batch", op="crash", after_n=2, times=1)
        assert plan.fire("shard.batch") is None
        assert plan.fire("shard.batch") is None
        action = plan.fire("shard.batch")
        assert action is not None and action.op == "crash"
        assert plan.fire("shard.batch") is None  # times=1 exhausted

    def test_times_none_fires_forever(self):
        plan = FaultPlan(seed=1).add("shard.inbox", op="stall", times=None)
        assert all(
            plan.fire("shard.inbox") is not None for _ in range(10)
        )

    def test_match_filters_on_context_key(self):
        plan = FaultPlan(seed=1).add(
            "spool.write", op="enospc", times=None, match="victim"
        )
        assert plan.fire("spool.write", key="bystander") is None
        assert plan.fire("spool.write", key=None) is None
        assert plan.fire("spool.write", key="the-victim-session") is not None

    def test_seeded_prob_replays_identically(self):
        def draws(seed):
            plan = FaultPlan(seed=seed).add(
                "wire.send", op="corrupt", prob=0.5, times=None
            )
            return [plan.fire("wire.send") is not None for _ in range(40)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)  # astronomically unlikely to collide
        assert any(draws(7)) and not all(draws(7))

    def test_log_records_fired_faults(self):
        plan = FaultPlan(seed=1).add("analysis.step", op="raise")
        plan.fire("analysis.step", key="tr")
        assert plan.log == [("analysis.step", "raise", "tr")]

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(seed=42)
        plan.add("wire.send", op="truncate", after_n=3)
        plan.add("spool.write", op="torn", times=None, match="s1", prob=0.5)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.seed == 42
        assert loaded.to_json() == plan.to_json()
        assert loaded.to_json()["version"] == PLAN_VERSION

    def test_bad_documents_rejected(self, tmp_path):
        for doc in (
            [],  # not an object
            {"version": "repro-faults/9"},
            {"seed": "x"},
            {"rules": {}},
            {"rules": [{"site": "wire.send", "op": "corrupt", "bogus": 1}]},
            {"rules": [{"op": "corrupt"}]},
        ):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(FaultPlanError):
                load_plan(path)
        path.write_text("{not json")
        with pytest.raises(FaultPlanError):
            load_plan(path)
        with pytest.raises(FaultPlanError):
            load_plan(tmp_path / "missing.json")


# -- the injector switchboard ------------------------------------------------


class TestInjector:
    def test_no_plan_is_a_noop(self):
        assert current() is None
        assert fire("wire.send", key="anything") is None

    def test_install_uninstall(self):
        plan = FaultPlan(seed=1).add("shard.inbox", op="stall")
        install(plan)
        assert current() is plan
        assert fire("shard.inbox") is not None
        uninstall()
        assert fire("shard.inbox") is None

    def test_injected_scope_restores_on_error(self):
        plan = FaultPlan(seed=1)
        with pytest.raises(RuntimeError):
            with injected(plan):
                assert current() is plan
                raise RuntimeError("drill abort")
        assert current() is None

    def test_mutate_frame_truncates_deterministically(self):
        plan = FaultPlan(seed=9).add("wire.send", op="truncate", times=None)
        frame = bytes(range(64))
        action = plan.fire("wire.send")
        cut = mutate_frame(frame, action)
        assert 1 <= len(cut) < len(frame)
        assert frame.startswith(cut)
        replay = FaultPlan(seed=9).add("wire.send", op="truncate", times=None)
        assert mutate_frame(frame, replay.fire("wire.send")) == cut

    def test_mutate_frame_corrupts_past_length_field(self):
        plan = FaultPlan(seed=9).add("wire.reply", op="corrupt", times=None)
        frame = bytes(64)
        bad = mutate_frame(frame, plan.fire("wire.reply"))
        assert len(bad) == len(frame)
        assert bad[:4] == frame[:4]  # framing length is left intact
        assert bad != frame


# -- the analysis.step site --------------------------------------------------


class TestAnalysisSite:
    def test_injected_step_raises_fault_injected(self):
        spec = trace_zoo.get("paper-rho1")
        plan = FaultPlan(seed=1).add(
            "analysis.step", op="raise", match=spec.name
        )
        with injected(plan):
            session = Session(None, ["aerodrome"], name=spec.name)
            with pytest.raises(FaultInjected):
                session.feed(list(spec.trace()))

    def test_no_plan_leaves_feed_untouched(self):
        spec = trace_zoo.get("paper-rho1")
        session = Session(None, ["aerodrome"], name=spec.name)
        session.feed(list(spec.trace()))
        session.finish()


# -- positioned EVENTS frames ------------------------------------------------


class TestPositionedEvents:
    def events(self):
        return list(trace_zoo.get("paper-rho1").trace())

    @pytest.mark.parametrize("encoding", ["text", "delta"])
    def test_positioned_round_trip(self, encoding):
        events = self.events()
        if encoding == "text":
            payload = protocol.encode_events_text(events, base=17)
            decoded, base = protocol.decode_events_ex(payload)
        else:
            payload = protocol.DeltaEncoder().encode(events, base=17)
            decoded, base = protocol.decode_events_ex(
                payload, protocol.DeltaDecoder()
            )
        assert base == 17
        assert [str(e) for e in decoded] == [str(e) for e in events]

    @pytest.mark.parametrize("encoding", ["text", "delta"])
    def test_unpositioned_tags_are_rejected(self, encoding):
        """Tags 0/1 carry the same bodies with no base, so a redelivered
        batch would double-feed the session: they are a payload error."""
        events = self.events()
        if encoding == "text":
            payload = protocol.encode_events_text(events, base=0)
        else:
            payload = protocol.DeltaEncoder().encode(events, base=0)
        # Drop the 12-byte position header: tag 2/3 becomes tag 0/1.
        legacy = bytes([payload[0] - 2]) + payload[13:]
        with pytest.raises(protocol.PayloadError, match="positioned"):
            protocol.decode_events_ex(legacy, protocol.DeltaDecoder())

    def test_corrupt_body_raises_typed_crc_error(self):
        payload = bytearray(
            protocol.encode_events_text(self.events(), base=0)
        )
        payload[-1] ^= 0x20  # flip a bit inside the body
        with pytest.raises(protocol.PayloadError, match="CRC"):
            protocol.decode_events_ex(bytes(payload))

    def test_duplicate_positioned_batch_is_idempotent(self):
        events = self.events()
        session = StreamingSession("dup", ["aerodrome"], name="dup")
        session.feed(events[:4], base=0)
        session.feed(events[:4], base=0)  # exact redelivery
        session.feed(events[2:], base=2)  # overlapping redelivery
        assert session.position == len(events)
        assert not session.out_of_sync

    def test_gap_marks_out_of_sync_until_resent(self):
        events = self.events()
        session = StreamingSession("gap", ["aerodrome"], name="gap")
        session.feed(events[:2], base=0)
        session.feed(events[5:], base=5)  # events 2..4 lost
        assert session.out_of_sync
        assert session.position == 2  # the gapped batch was dropped whole
        session.feed(events[2:], base=2)
        assert not session.out_of_sync
        assert session.position == len(events)


# -- the spool.write site ----------------------------------------------------


def _session(sid="s1", n=6):
    spec = trace_zoo.get("paper-rho1")
    session = StreamingSession(sid, ["aerodrome"], name=spec.name)
    session.feed(list(spec.trace())[:n])
    return session


class TestSpoolFaults:
    def test_enospc_is_typed_and_leaves_previous_entry(self, tmp_path):
        manager = RecoveryManager(tmp_path)
        session = _session()
        manager.save(session)
        plan = FaultPlan(seed=1).add("spool.write", op="enospc")
        with injected(plan):
            with pytest.raises(RecoveryError, match="No space left"):
                manager.save(session)
        # the earlier good entry still loads
        assert manager.load(session.session_id).position == session.position

    def test_torn_write_detected_at_load(self, tmp_path):
        manager = RecoveryManager(tmp_path)
        plan = FaultPlan(seed=1).add("spool.write", op="torn")
        with injected(plan):
            manager.save(_session())
        with pytest.raises(RecoveryError, match="truncated or torn"):
            manager.load("s1")
        # header is intact, so scan still lists it; load-time salvage
        ids, salvage = manager.scan()
        assert ids == ["s1"] and salvage == []

    def test_corrupt_write_detected_by_crc(self, tmp_path):
        manager = RecoveryManager(tmp_path)
        plan = FaultPlan(seed=3).add("spool.write", op="corrupt")
        with injected(plan):
            manager.save(_session())
        with pytest.raises(RecoveryError):
            manager.load("s1")

    def test_quarantine_moves_entry_aside(self, tmp_path):
        manager = RecoveryManager(tmp_path)
        plan = FaultPlan(seed=3).add("spool.write", op="corrupt")
        with injected(plan):
            manager.save(_session())
        bad = manager.quarantine("s1")
        assert bad.suffix == ".bad" and bad.exists()
        assert manager.session_ids() == []
        with pytest.raises(RecoveryError, match="no spooled checkpoint"):
            manager.load("s1")
