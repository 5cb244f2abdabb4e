"""The deterministic netsim harness and the cluster drill matrix.

The harness takes time and tick order away from the OS (a shared
:class:`SimClock`, ``manual_ticks``), so the seeded fault plan is the
only source of nondeterminism — same seed, same fault trace. These
tests pin that contract, the suspicion score's silence and RTT terms,
``BUSY`` pacing, the lenient-restart durability warning, and the
gossip heal probe that un-sticks a mutually-dead split.
"""

import pytest

from repro.cluster import ClusterCoordinator
from repro.cluster.coordinator import SUSPICION_THRESHOLD
from repro.faults import CLUSTER_SCENARIOS, NetSim, SimClock, run_cluster_scenario
from repro.service import ServiceServer
from repro.service.backoff import Backoff
from repro.service.client import ServiceClient, ServiceError
from repro.service.client import submit_trace as node_submit
from repro.service.router import Router
from repro.sim import trace_zoo

ANALYSES = ["aerodrome", "races", "lockset"]


# -- SimClock ----------------------------------------------------------------


class TestSimClock:
    def test_advances_only_when_told(self):
        clock = SimClock()
        assert clock.time() == 0.0
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.time() == 2.0

    def test_time_never_goes_backward(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)


def test_netsim_needs_at_least_two_nodes():
    with pytest.raises(ValueError):
        NetSim(nodes=1)


# -- the suspicion score (silence + RTT terms) -------------------------------


class TestSuspicion:
    def _coordinator(self, tmp_path, clock):
        router = Router(shards=1)
        coord = ClusterCoordinator(
            "n1", "127.0.0.1", 7001, router,
            gossip_interval=0.05, suspect_after=2.0,
            manual_ticks=True, replica_spool=str(tmp_path),
        )
        coord.clock = clock.time
        return router, coord

    def test_pure_silence_crosses_exactly_at_suspect_after(self, tmp_path):
        """The silence term is normalized so a totally quiet peer is
        condemned exactly when the old fixed deadline would have fired
        — same failover timing, by construction."""
        clock = SimClock()
        router, coord = self._coordinator(tmp_path, clock)
        try:
            assert coord.suspicion("peer") == 0.0  # first sight, fresh
            clock.advance(1.99)
            assert coord.suspicion("peer") < SUSPICION_THRESHOLD
            clock.advance(0.01)
            assert coord.suspicion("peer") >= SUSPICION_THRESHOLD
        finally:
            router.shutdown()

    def test_gray_rtt_condemns_a_peer_that_keeps_answering(self, tmp_path):
        """Gray failure: every reply resets the silence term, yet the
        RTT term alone pushes the score over the threshold."""
        clock = SimClock()
        router, coord = self._coordinator(tmp_path, clock)
        try:
            for _ in range(10):
                with coord._lock:  # the peer just answered...
                    coord._last_seen["peer"] = clock.time()
                coord.note_rtt("peer", 1.0)  # ...a full second late
            assert coord.suspicion("peer") >= SUSPICION_THRESHOLD
        finally:
            router.shutdown()

    def test_healthy_rtt_earns_no_penalty(self, tmp_path):
        clock = SimClock()
        router, coord = self._coordinator(tmp_path, clock)
        try:
            for _ in range(10):
                with coord._lock:
                    coord._last_seen["peer"] = clock.time()
                coord.note_rtt("peer", 0.001)
            assert coord.suspicion("peer") < 1.0
        finally:
            router.shutdown()

    def test_first_sample_seeds_the_estimator(self, tmp_path):
        clock = SimClock()
        router, coord = self._coordinator(tmp_path, clock)
        try:
            coord.note_rtt("peer", 0.8)
            assert coord._rtt_ewma["peer"] == pytest.approx(0.8)
            assert coord._rtt_var["peer"] == pytest.approx(0.4)
        finally:
            router.shutdown()


# -- BUSY pacing -------------------------------------------------------------


class TestShedding:
    """A client paces its retries after ``BUSY`` by the reply's
    ``retry_ms`` hint."""

    def test_paced_backoff_honors_the_server_hint(self):
        backoff = Backoff(initial=0.01, seed=1)
        delay = backoff.paced(400)
        assert 0.2 <= delay <= 0.4  # the hint jittered over (hint/2, hint]
        assert backoff.delay > 0.01  # and the schedule still advanced

    def test_paced_without_hint_is_the_plain_schedule(self):
        a = Backoff(initial=0.05, seed=9)
        b = Backoff(initial=0.05, seed=9)
        assert a.paced(None) == b.next()

    def test_schedule_wins_over_a_smaller_hint(self):
        a = Backoff(initial=10.0, cap=10.0, seed=3)
        b = Backoff(initial=10.0, cap=10.0, seed=3)
        assert a.paced(1) == b.next()


# -- lenient restart-from-zero ----------------------------------------------


class TestLenientRestart:
    @pytest.fixture
    def server(self, tmp_path):
        server = ServiceServer(
            shards=1, spool=str(tmp_path / "spool"),
        ).start()
        yield server
        server.stop()

    def test_strict_resume_of_unknown_session_fails(self, server):
        events = list(trace_zoo.get("paper-rho1").trace())
        with pytest.raises(ServiceError):
            node_submit(
                server.host, server.port, events, ANALYSES,
                session_id="ghost-strict", resume=True, attempts=1,
            )

    def test_lenient_resume_restarts_and_is_counted(self, server):
        """No recoverable checkpoint: the session restarts from zero,
        the reply says so, and the stats counter records it."""
        spec = trace_zoo.get("paper-rho1")
        with ServiceClient(server.host, server.port) as client:
            handle = client.open_session(
                ANALYSES, session_id="ghost-1", resume=True, lenient=True,
            )
            assert handle.restarted is True
            assert handle.position == 0
            handle.send(list(spec.trace()))
            doc = handle.result()
        assert doc["verdict"] in ("pass", "fail", "undecided")
        with ServiceClient(server.host, server.port) as client:
            assert client.stats()["lenient_restarts"] >= 1

    def test_submit_trace_surfaces_restarted_from_zero(self, server):
        events = list(trace_zoo.get("paper-rho1").trace())
        doc = node_submit(
            server.host, server.port, events, ANALYSES,
            session_id="ghost-2", resume=True, lenient=True,
        )
        assert doc["service"]["restarted_from_zero"] is True

    def test_cli_submit_exits_5_on_restart_from_zero(
        self, server, tmp_path, capsys
    ):
        """The durability loss is never silent: warning on stderr and a
        distinct exit code."""
        from repro.cli import main

        spec = trace_zoo.get("paper-rho1")
        trace_path = tmp_path / "ghost.std"
        trace_path.write_text(
            "\n".join(str(event) for event in spec.trace()) + "\n"
        )
        code = main([
            "submit", str(trace_path),
            "--host", server.host, "--port", str(server.port),
            "--analysis", "races",
            "--session-id", "ghost-3", "--resume", "--lenient",
        ])
        captured = capsys.readouterr()
        assert code == 5
        assert "restarted from zero" in captured.err


# -- the gossip heal probe ---------------------------------------------------


def test_heal_probe_unsticks_a_mutually_dead_split(tmp_path):
    """After a full partition both sides hold the other dead — and
    gossip only contacts live peers, so without the rotating dead-peer
    probe the split would be *permanent*. The probe carries the doc
    across the healed link; the probed node re-asserts and both views
    converge."""
    first = ServiceServer(
        shards=1, spool=str(tmp_path / "a"),
        cluster=True, node_id="a",
        gossip_interval=0.05, suspect_after=60.0,
    )
    first.cluster.manual_ticks = True
    first.start()
    second = None
    try:
        second = ServiceServer(
            shards=1, spool=str(tmp_path / "b"),
            cluster=True, node_id="b", join=[first.address],
            gossip_interval=0.05, suspect_after=60.0,
        )
        second.cluster.manual_ticks = True
        second.start()
        # The JOIN reply told "b" about "a"; one tick tells "a" back.
        second.cluster.tick()
        assert first.cluster.membership.get("b") is not None
        # Simulate the partition's verdicts: each side buried the other.
        for server, peer in ((first, "b"), (second, "a")):
            with server.cluster._lock:
                server.cluster.membership.mark_dead(peer)
                server.cluster._rebuild_ring_locked()
        assert first.cluster.membership.alive_ids() == ["a"]
        assert second.cluster.membership.alive_ids() == ["b"]

        def converged():
            return (
                first.cluster.membership.alive_ids() == ["a", "b"]
                and second.cluster.membership.alive_ids() == ["a", "b"]
                and first.cluster.epoch == second.cluster.epoch
            )

        for _ in range(40):
            first.cluster.tick()
            second.cluster.tick()
            if converged():
                break
        assert converged(), "the heal probe never crossed the split"
    finally:
        if second is not None:
            second.stop()
        first.stop()


# -- the harness and the drill matrix ----------------------------------------


def test_netsim_boots_and_converges():
    with NetSim(nodes=3, suspect_after=2.0) as sim:
        assert sim.converge() >= 0
        assert len(sim.addresses()) == 3
        assert sim.peer_view("n1", "n2") == "alive"
        assert sim.peer_view("n3", "n1") == "alive"
        sim.run_rounds(3)
        assert sim.violations == []
        assert sim.tick_errors == []


@pytest.mark.parametrize("name", sorted(CLUSTER_SCENARIOS))
def test_cluster_scenario_recovers(name):
    result = run_cluster_scenario(name)
    assert result.ok, [c for c in result.checks if not c["ok"]]
    assert result.outcome == "recovered"


def test_same_seed_replays_the_same_fault_trace():
    first = run_cluster_scenario("partition-one-way", seed=1234)
    second = run_cluster_scenario("partition-one-way", seed=1234)
    assert first.ok and second.ok
    assert first.injected == second.injected


def test_different_seeds_draw_different_gossip_weather():
    """Probabilistic rules are where the seed matters: the same rule
    set over the same keys fires differently under a different seed."""
    from repro.faults.plan import FaultPlan

    def weather(seed):
        plan = FaultPlan(seed=seed)
        plan.add("cluster.gossip", op="delay", times=None, prob=0.25)
        fired = []
        for i in range(200):
            action = plan.fire("cluster.gossip", key=f"n1->n{i % 3}")
            fired.append(action is not None)
        return fired

    assert weather(1234) == weather(1234)
    assert weather(1234) != weather(4321)

