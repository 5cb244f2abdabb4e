"""Deterministic cluster network simulation — the jepsen-lite harness.

:class:`NetSim` boots an N-node ``repro`` ring *in process* (real TCP
servers, real shard routers, real checkpoint spools) but takes the two
nondeterministic inputs away from the operating system:

* **time** — every coordinator's suspicion clock is a shared
  :class:`SimClock` that only advances when the harness says so;
* **scheduling** — coordinators run with ``manual_ticks=True`` and the
  harness steps them one at a time, in node-id order, one *round* per
  :meth:`NetSim.tick_round`.

A seeded :class:`~repro.faults.plan.FaultPlan` then carves the network:
``net.partition`` rules (keyed ``"src->dst"``) cut directed links,
``cluster.gossip`` rules delay/duplicate/reorder/drop gossip contacts,
``cluster.handoff`` rules lose checkpoint shipments. Because every
fault decision flows through the one seeded plan and every tick runs in
a fixed order under simulated time, **the same seed replays the same
fault trace** — ``plan.log`` is bit-for-bit reproducible, which is what
the CI ``partition-smoke`` job diffs.

While the chaos runs, the harness drives *live tenant streams* through
the ordinary :class:`~repro.cluster.client.ClusterClient` and checks
the invariants the cluster promises:

* **single ownership** — after every round, at most one node whose
  membership epoch is the cluster maximum both ring-owns and hosts any
  tracked session (:attr:`NetSim.violations` collects breaches);
* **durability** — a stream resumed after the fault window produces a
  report equal to the offline run (no acknowledged events lost);
* **convergence** — membership epochs and alive-sets agree on every
  node after the partition heals (:meth:`NetSim.converge`).

:data:`CLUSTER_SCENARIOS` is the drill matrix behind
``repro chaos --cluster``: two-way and one-way partitions, gossip
chaos, and gray failure (a slow-but-alive node handed off early by the
RTT suspicion score).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from .injector import injected
from .plan import FaultPlan
from .scenarios import (
    DEFAULT_SEED,
    DRILL_DEADLINE,
    ScenarioResult,
    _ANALYSES,
    _Checks,
    _agrees,
    _offline_doc,
    _result,
    _zoo,
)

#: Simulated seconds one gossip round advances the shared clock.
SIM_GOSSIP_INTERVAL = 0.05

#: Default ring size a simulation boots.
SIM_NODES = 3


class SimClock:
    """Simulated monotonic time: advances only when told to.

    Installed as every coordinator's ``clock`` attribute, so silence
    and RTT bookkeeping — the whole suspicion machinery — runs on
    harness-controlled time instead of the wall clock.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def time(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._now += seconds


class NetSim:
    """An N-node in-process cluster under simulated time.

    Args:
        nodes: Ring size; node ids are ``n1..nN`` (also the
            ``net.partition`` link-key components).
        seed: Seed for the cluster client's retry jitter (the fault
            plan carries its own).
        gossip_interval: Simulated seconds per round.
        suspect_after: Simulated seconds of silence before a death
            verdict (default: the coordinator's 4-interval rule).
        shards: Shards per node.
    """

    def __init__(
        self,
        nodes: int = SIM_NODES,
        seed: int = DEFAULT_SEED,
        gossip_interval: float = SIM_GOSSIP_INTERVAL,
        suspect_after: Optional[float] = None,
        shards: int = 1,
    ) -> None:
        if nodes < 2:
            raise ValueError("a network simulation needs at least 2 nodes")
        self.order: List[str] = [f"n{i + 1}" for i in range(nodes)]
        self.seed = seed
        self.gossip_interval = gossip_interval
        self.suspect_after = (
            suspect_after if suspect_after is not None
            else 4 * gossip_interval
        )
        #: Rounds of pure silence before a death verdict — scenarios
        #: compare detection latencies against this.
        self.suspect_rounds = max(
            1, int(round(self.suspect_after / gossip_interval))
        )
        self.shards = shards
        self.clock = SimClock()
        self.servers: Dict[str, Any] = {}
        self.rounds = 0
        self.tracked: Set[str] = set()
        #: Single-ownership breaches, one dict per (round, session).
        self.violations: List[Dict[str, Any]] = []
        #: Errors a tick raised (a tick must never kill the harness).
        self.tick_errors: List[str] = []
        self._root: Optional[str] = None

    # -- lifecycle -----------------------------------------------------------

    def boot(self) -> "NetSim":
        """Start every node (the first seeds the rest) under sim time."""
        from ..obs import tracing
        from ..service import ServiceServer

        # A tracer activated around a netsim run records spans on sim
        # time: same seed + same scenario => byte-identical trace.jsonl.
        tracer = tracing.active()
        if tracer is not None:
            tracer.clock = self.clock.time
        self._root = tempfile.mkdtemp(prefix="repro-netsim-")
        join: List[str] = []
        for node_id in self.order:
            server = ServiceServer(
                port=0,
                shards=self.shards,
                spool=str(Path(self._root) / node_id),
                checkpoint_every=4,
                cluster=True,
                join=list(join),
                node_id=node_id,
                gossip_interval=self.gossip_interval,
                suspect_after=self.suspect_after,
            )
            # Take the coordinator off the wall clock *before* it
            # starts: the harness owns both time and tick order.
            server.cluster.manual_ticks = True
            server.cluster.clock = self.clock.time
            server.start()
            self.servers[node_id] = server
            join = [server.address]
        return self

    def stop(self) -> None:
        for node_id in reversed(self.order):
            server = self.servers.pop(node_id, None)
            if server is not None:
                server.stop()
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None

    def __enter__(self) -> "NetSim":
        return self.boot()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- the simulation loop -------------------------------------------------

    def tick_round(self) -> None:
        """One simulated round: every coordinator ticks once, in node-id
        order, then the shared clock advances one gossip interval and
        the ownership invariant is checked."""
        for node_id in self.order:
            try:
                self.servers[node_id].cluster.tick()
            except Exception as exc:  # a sim tick must never die either
                self.tick_errors.append(f"{node_id} round {self.rounds}: {exc}")
        self.clock.advance(self.gossip_interval)
        self.rounds += 1
        self.check_invariants()

    def run_rounds(self, count: int) -> None:
        for _ in range(count):
            self.tick_round()

    # -- invariants ----------------------------------------------------------

    def track(self, session_id: str) -> None:
        """Watch a session in the per-round single-ownership check."""
        self.tracked.add(session_id)

    def _census(self) -> Dict[str, Tuple[int, Set[str], Any]]:
        rows: Dict[str, Tuple[int, Set[str], Any]] = {}
        for node_id in self.order:
            server = self.servers[node_id]
            try:
                local = {r["session"] for r in server.router.list_sessions()}
            except Exception:
                local = set()
            rows[node_id] = (server.cluster.epoch, local, server.cluster)
        return rows

    def check_invariants(self) -> None:
        """At most one *epoch-fenced* owner per tracked session: among
        the nodes at the cluster-maximum membership epoch, no more than
        one may both ring-own and host the session. (Nodes behind the
        maximum epoch are the fenced side of a partition — their writes
        are rejected, so they cannot constitute a second owner.)"""
        if not self.tracked:
            return
        rows = self._census()
        max_epoch = max(epoch for epoch, _local, _coord in rows.values())
        for session_id in sorted(self.tracked):
            owners = [
                node_id
                for node_id, (epoch, local, coord) in rows.items()
                if epoch == max_epoch
                and session_id in local
                and coord.owns(session_id)
            ]
            if len(owners) > 1:
                self.violations.append({
                    "round": self.rounds,
                    "session": session_id,
                    "epoch": max_epoch,
                    "owners": owners,
                })

    def converged(self) -> bool:
        """Every node agrees: same epoch, same alive-set, nobody dead."""
        epochs = set()
        alive_views = set()
        for node_id in self.order:
            coord = self.servers[node_id].cluster
            epochs.add(coord.epoch)
            alive_views.add(tuple(coord.membership.alive_ids()))
        want = tuple(sorted(self.order))
        return len(epochs) == 1 and alive_views == {want}

    def converge(self, max_rounds: int = 80) -> int:
        """Tick until membership converges; rounds taken, or ``-1``."""
        for used in range(max_rounds + 1):
            if self.converged():
                return used
            self.tick_round()
        return -1

    # -- views the scenarios use --------------------------------------------

    def addresses(self) -> List[str]:
        return [self.servers[node_id].address for node_id in self.order]

    def client(self):
        from ..cluster import ClusterClient

        return ClusterClient(self.addresses(), jitter_seed=self.seed)

    def find_host(self, session_id: str) -> Optional[str]:
        """The node currently hosting the session live (or ``None``)."""
        for node_id, (_epoch, local, _coord) in self._census().items():
            if session_id in local:
                return node_id
        return None

    def peer_view(self, node_id: str, peer_id: str) -> Optional[str]:
        """``node_id``'s current status for ``peer_id`` (alive/dead)."""
        info = self.servers[node_id].cluster.membership.get(peer_id)
        return None if info is None else info.status


# -- the cluster drill matrix ------------------------------------------------


def cluster_scenario_partition_two_way(seed: int) -> ScenarioResult:
    """A session's owner is fully partitioned mid-stream. The survivors
    declare it dead within the suspicion window and the replica
    successor adopts its checkpoint; the victim (its own epoch stuck)
    cannot accept fenced writes. After the heal, membership converges,
    the resumed stream lands on the ring owner, and the report equals
    the offline run — with zero double-owner windows along the way."""
    spec = _zoo("paper-rho2")
    base = _offline_doc(spec)
    events = list(spec.trace())
    checks = _Checks()
    plan = FaultPlan(seed=seed)
    with NetSim(nodes=3, seed=seed) as sim:
        checks.expect(sim.converge() >= 0, "ring converged after boot")
        session_id = "drill-net-two-way"
        sim.track(session_id)
        client = sim.client()
        half = max(4, len(events) // 2)
        info = client.submit_trace(
            events, _ANALYSES, name=spec.name, batch=4,
            session_id=session_id, stop_after=half, checkpoint=True,
            deadline=DRILL_DEADLINE,
        )
        checks.expect(bool(info.get("open")),
                      "first half streamed and checkpointed")
        sim.run_rounds(3)  # let replication ship the checkpoint
        victim = sim.find_host(session_id)
        checks.expect(victim is not None, "the session has a live host")
        plan.add("net.partition", op="drop", times=None, match=f"{victim}->")
        plan.add("net.partition", op="drop", times=None, match=f"->{victim}")
        with injected(plan):
            sim.run_rounds(sim.suspect_rounds + 6)
        checks.expect(len(plan.log) >= 1,
                      "the partition actually dropped link traffic")
        survivors = [n for n in sim.order if n != victim]
        checks.expect(
            any(sim.peer_view(s, victim) == "dead" for s in survivors),
            "survivors declared the partitioned owner dead",
        )
        healed = sim.converge(max_rounds=120)
        checks.expect(healed >= 0, "membership re-converged after the heal")
        doc = client.submit_trace(
            events, _ANALYSES, name=spec.name, batch=4,
            session_id=session_id, resume=True, deadline=DRILL_DEADLINE,
        )
        _agrees(checks, doc, base, "report resumed across the partition")
        checks.expect(sim.violations == [],
                      "zero double-owner windows at the max epoch")
        checks.expect(sim.tick_errors == [], "no tick ever raised")
    return _result(
        "partition-two-way", seed, plan, "recovered", checks,
        "owner partitioned mid-stream; failover + heal kept one fenced "
        "owner and the offline report",
    )


def cluster_scenario_partition_one_way(seed: int) -> ScenarioResult:
    """An asymmetric cut: ``n1``'s messages to ``n3`` vanish while the
    reverse direction flows. Push-pull gossip absorbs it — ``n3``'s own
    contacts keep both views fresh — so nobody is declared dead, the
    epoch never moves, and a stream runs to the offline report."""
    spec = _zoo("paper-rho1")
    base = _offline_doc(spec)
    events = list(spec.trace())
    checks = _Checks()
    plan = FaultPlan(seed=seed)
    plan.add("net.partition", op="drop", times=None, match="n1->n3")
    with NetSim(nodes=3, seed=seed, suspect_after=2.0) as sim:
        checks.expect(sim.converge() >= 0, "ring converged after boot")
        epoch_before = sim.servers["n1"].cluster.epoch
        session_id = "drill-net-one-way"
        sim.track(session_id)
        client = sim.client()
        with injected(plan):
            sim.run_rounds(8)
            doc = client.submit_trace(
                events, _ANALYSES, name=spec.name, batch=4,
                session_id=session_id, deadline=DRILL_DEADLINE,
            )
            sim.run_rounds(8)
        checks.expect(len(plan.log) >= 8, "the one-way cut kept firing")
        checks.expect(sim.converged(), "membership stayed converged")
        checks.expect(
            sim.servers["n1"].cluster.epoch == epoch_before,
            "no false death: the epoch never moved",
        )
        _agrees(checks, doc, base, "report under the asymmetric cut")
        checks.expect(sim.violations == [], "zero double-owner windows")
        checks.expect(sim.tick_errors == [], "no tick ever raised")
    return _result(
        "partition-one-way", seed, plan, "recovered", checks,
        "asymmetric link cut absorbed by push-pull gossip; no false "
        "death, offline-equal report",
    )


def cluster_scenario_gossip_chaos(seed: int) -> ScenarioResult:
    """Seeded gossip weather: contacts are randomly delayed one round,
    reordered to the end of the round, or duplicated. Membership must
    ride it out without a single false death while a stream completes
    to the offline report."""
    spec = _zoo("lock-cycle")
    base = _offline_doc(spec)
    events = list(spec.trace())
    checks = _Checks()
    plan = FaultPlan(seed=seed)
    plan.add("cluster.gossip", op="delay", times=None, prob=0.25)
    plan.add("cluster.gossip", op="reorder", times=None, prob=0.25)
    plan.add("cluster.gossip", op="duplicate", times=None, prob=0.25)
    with NetSim(nodes=3, seed=seed, suspect_after=2.0) as sim:
        checks.expect(sim.converge() >= 0, "ring converged after boot")
        epoch_before = sim.servers["n1"].cluster.epoch
        session_id = "drill-net-gossip"
        sim.track(session_id)
        client = sim.client()
        with injected(plan):
            sim.run_rounds(10)
            doc = client.submit_trace(
                events, _ANALYSES, name=spec.name, batch=4,
                session_id=session_id, deadline=DRILL_DEADLINE,
            )
            sim.run_rounds(10)
        checks.expect(len(plan.log) >= 1, "the gossip chaos actually fired")
        checks.expect(sim.converged(), "membership stayed converged")
        checks.expect(
            sim.servers["n1"].cluster.epoch == epoch_before,
            "no false death under delay/reorder/duplicate",
        )
        _agrees(checks, doc, base, "report under gossip chaos")
        checks.expect(sim.violations == [], "zero double-owner windows")
        checks.expect(sim.tick_errors == [], "no tick ever raised")
    return _result(
        "gossip-chaos", seed, plan, "recovered", checks,
        "delayed/reordered/duplicated gossip absorbed; no false death",
    )


def cluster_scenario_gray_failure(seed: int) -> ScenarioResult:
    """A gray-failing node: alive and gossiping, but its measured RTTs
    are pathological. The suspicion score's RTT term hands it off well
    before the pure-silence deadline would; after the weather clears,
    it re-asserts itself and the cluster re-converges."""
    spec = _zoo("paper-rho2")
    base = _offline_doc(spec)
    events = list(spec.trace())
    checks = _Checks()
    victim = "n3"
    survivors = ["n1", "n2"]
    plan = FaultPlan(seed=seed)
    # Suppress the survivors' *outbound* contacts to the victim: under
    # sim time those would measure rtt=0 and mask the gray signal. The
    # victim's own inbound gossip still refreshes the survivors' view
    # of it — it is alive and talking, just (as modeled below) slow.
    plan.add("cluster.gossip", op="drop", times=None, match=victim)
    with NetSim(nodes=3, seed=seed, suspect_after=2.0) as sim:
        checks.expect(sim.converge() >= 0, "ring converged after boot")
        rounds_to_death = None
        with injected(plan):
            for attempt in range(sim.suspect_rounds):
                sim.tick_round()
                for node_id in survivors:
                    # The gray signal: every observed round trip to the
                    # victim takes a full simulated second.
                    sim.servers[node_id].cluster.note_rtt(victim, 1.0)
                if any(sim.peer_view(s, victim) == "dead"
                       for s in survivors):
                    rounds_to_death = attempt + 1
                    break
        checks.expect(rounds_to_death is not None,
                      "the slow-but-alive node was declared dead")
        checks.expect(
            rounds_to_death is not None
            and rounds_to_death < sim.suspect_rounds // 2,
            f"RTT suspicion fired early (round {rounds_to_death}, "
            f"silence alone needs {sim.suspect_rounds})",
        )
        suspect = next(
            (
                row
                for row in sim.servers["n1"].cluster.stats()["peers"]
                if row["node"] == victim
            ),
            None,
        )
        checks.expect(
            suspect is not None and suspect["rtt_ms"] > 500.0,
            "stats expose the pathological RTT EWMA",
        )
        healed = sim.converge(max_rounds=160)
        checks.expect(healed >= 0,
                      "the gray node re-asserted and the ring re-converged")
        doc = sim.client().submit_trace(
            events, _ANALYSES, name=spec.name, batch=4,
            session_id="drill-net-gray", deadline=DRILL_DEADLINE,
        )
        _agrees(checks, doc, base, "report after the gray weather cleared")
        checks.expect(sim.tick_errors == [], "no tick ever raised")
    return _result(
        "gray-failure", seed, plan, "recovered", checks,
        "slow-but-alive node handed off by RTT suspicion before the "
        "silence deadline; re-converged after",
    )


CLUSTER_SCENARIOS = {
    "partition-two-way": cluster_scenario_partition_two_way,
    "partition-one-way": cluster_scenario_partition_one_way,
    "gossip-chaos": cluster_scenario_gossip_chaos,
    "gray-failure": cluster_scenario_gray_failure,
}


def run_cluster_scenario(name: str, seed: int = DEFAULT_SEED) -> ScenarioResult:
    """Run one named cluster drill (``KeyError`` on an unknown name)."""
    return CLUSTER_SCENARIOS[name](seed)


def run_cluster_all(seed: int = DEFAULT_SEED) -> List[ScenarioResult]:
    """Run the whole cluster matrix, in a stable order."""
    return [CLUSTER_SCENARIOS[name](seed) for name in CLUSTER_SCENARIOS]
