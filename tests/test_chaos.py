"""Chaos drills and the hardening they pin down.

Every scenario in :mod:`repro.faults.scenarios` must terminate in
either *recovered* (report equals the offline run) or a *documented
typed degradation* — never a hang, a corrupt report, or a dead shard
taking its tenants down. These tests run the full seeded matrix (the
same entry point as CI's ``chaos-smoke`` job and ``repro chaos``),
plus targeted checks on the hardening pieces: client deadlines,
typed unreachable/deadline exit codes, quarantine isolation, stats
counters, and ``session=... shard=...`` log attribution.
"""

import logging

import pytest

from repro.faults import FaultPlan, injected, uninstall
from repro.faults.scenarios import (
    DEFAULT_SEED,
    SCENARIOS,
    run_plan_drill,
    run_scenario,
)
from repro.service import (
    DeadlineExceeded,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ServiceUnreachable,
    submit_trace,
)
from repro.cli import main
from repro.sim import trace_zoo

ANALYSES = ["aerodrome", "races", "lockset"]


@pytest.fixture(autouse=True)
def no_leftover_plan():
    uninstall()
    yield
    uninstall()


# -- the seeded scenario matrix ---------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_terminates_in_pinned_outcome(name):
    result = run_scenario(name, seed=DEFAULT_SEED)
    assert result.ok, "\n".join(result.checks)
    assert result.outcome in ("recovered", "degraded")
    assert result.injected, "the drill must actually inject something"


def test_plan_drill_runs_arbitrary_plans():
    plan = FaultPlan(seed=5).add(
        "wire.send", op="corrupt", after_n=2, times=1, match="drill-plan"
    )
    result = run_plan_drill(plan)
    assert result.ok, "\n".join(result.checks)
    assert result.outcome == "recovered"  # corrupt frame healed by retry


# -- client deadlines and typed failures ------------------------------------


def test_unreachable_server_is_typed():
    with pytest.raises(ServiceUnreachable) as info:
        ServiceClient("127.0.0.1", 1, connect_timeout=0.5)
    assert info.value.code == "unreachable"


def test_deadline_bounds_a_stalled_submission():
    events = list(trace_zoo.get("paper-rho2").trace())
    plan = FaultPlan(seed=2).add(
        "shard.inbox", op="stall", times=None, match="stall-forever"
    )
    with ServiceServer(port=0).start() as server:
        with injected(plan):
            with pytest.raises(DeadlineExceeded) as info:
                submit_trace(
                    server.host, server.port, events, ANALYSES,
                    session_id="stall-forever", deadline=0.4, jitter_seed=2,
                )
        assert info.value.code == "deadline"
        # the server survives and still answers a healthy client
        spec = trace_zoo.get("paper-rho1")
        doc = submit_trace(
            server.host, server.port, list(spec.trace()), ANALYSES,
            name=spec.name, deadline=30.0,
        )
        assert doc["verdict"] in ("pass", "fail", "undecided")


def test_deadline_bounds_the_connect():
    # a spent budget fails before any network I/O happens
    with pytest.raises(DeadlineExceeded):
        ServiceClient("127.0.0.1", 9, deadline=0.0, connect_timeout=5.0)


# -- quarantine isolation ----------------------------------------------------


def test_quarantine_isolates_one_tenant(caplog):
    spec = trace_zoo.get("paper-rho2")
    events = list(spec.trace())
    plan = FaultPlan(seed=3).add(
        "analysis.step", op="raise", after_n=1, times=None, match="toxic"
    )
    with ServiceServer(port=0, shards=2).start() as server:
        with injected(plan):
            with caplog.at_level(logging.ERROR, logger="repro.service"):
                with pytest.raises(ServiceError) as info:
                    submit_trace(
                        server.host, server.port, events, ANALYSES,
                        name="toxic", session_id="q-victim",
                        batch=3, deadline=30.0,
                    )
        assert info.value.code == "analysis"
        assert "FaultInjected" in str(info.value)
        # satellite guarantee: server-side logs carry attribution
        attributed = [
            r.getMessage() for r in caplog.records
            if "session=q-victim" in r.getMessage()
        ]
        assert attributed and all("shard=" in m for m in attributed)
        # the shard survives: a sibling on the same server still works
        doc = submit_trace(
            server.host, server.port, events, ANALYSES,
            name=spec.name, deadline=30.0,
        )
        assert doc["trace"]["events"] == len(events)
        with ServiceClient(server.host, server.port) as client:
            stats = client.stats()
        assert stats["sessions_quarantined"] == 1
        assert stats["events_dropped"] > 0


# -- stats round trip --------------------------------------------------------


def test_service_stats_round_trip_includes_hardening_counters():
    spec = trace_zoo.get("paper-rho1")
    plan = FaultPlan(seed=4).add(
        "shard.inbox", op="stall", times=2, match="busy-one"
    )
    with ServiceServer(port=0, shards=2).start() as server:
        with injected(plan):
            submit_trace(
                server.host, server.port, list(spec.trace()), ANALYSES,
                name=spec.name, session_id="busy-one",
                deadline=30.0, jitter_seed=4,
            )
        with ServiceClient(server.host, server.port) as client:
            stats = client.stats()
    # router aggregates
    for key in (
        "sessions_quarantined", "events_dropped",
        "checkpoint_failures", "shard_restarts",
    ):
        assert key in stats, key
    for row in stats["shards"]:
        assert "sessions_quarantined" in row
        assert "checkpoint_failures" in row
    # server-level counters ride the same STATS reply
    assert stats["server"]["busy_replies"] >= 2
    assert stats["server"]["read_timeouts"] == 0
    assert stats["server"]["wire_errors"] == 0


# -- CLI surface -------------------------------------------------------------


class TestChaosCli:
    def test_list(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_single_scenario_json(self, capsys):
        import json

        assert main(
            ["chaos", "--scenario", "inbox-stall", "--json"]
        ) == 0
        docs = json.loads(capsys.readouterr().out)
        assert docs[0]["scenario"] == "inbox-stall"
        assert docs[0]["ok"] is True
        assert docs[0]["injected"]

    def test_plan_file(self, tmp_path, capsys):
        import json

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "version": "repro-faults/1",
            "seed": 6,
            "rules": [{
                "site": "server.events", "op": "duplicate",
                "times": None, "match": "drill-plan",
            }],
        }))
        assert main(["chaos", "--plan", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "plan-drill" in out and "recovered" in out

    def test_bad_usage(self, capsys):
        assert main(["chaos"]) == 2
        assert main(["chaos", "--scenario", "nope"]) == 2
        capsys.readouterr()

    def test_only_the_event_loop_front_end_parses(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--backend", "async"])
        assert args.backend == "async"
        for argv in (
            ["serve", "--backend", "thread"],
            ["chaos", "--backend", "async"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        capsys.readouterr()

    def test_submit_unreachable_exit_code(self, tmp_path, capsys):
        trace = tmp_path / "t.std"
        trace.write_text("t1|begin\nt1|w(x)\nt1|end\n")
        assert main(
            ["submit", str(trace), "--port", "59998"]
        ) == 3
        err = capsys.readouterr().err
        assert "no service at" in err
        assert "Traceback" not in err
