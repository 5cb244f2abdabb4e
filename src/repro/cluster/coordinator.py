"""The per-node cluster brain: gossip, failure detection, rebalancing.

One :class:`ClusterCoordinator` rides inside each clustered
``repro serve`` process. It owns the node's membership view and ring,
and runs one background thread that, every ``gossip_interval`` seconds:

1. **gossips** — pushes its membership document to every live peer in
   a ``RING`` frame and merges the reply (push-pull, full mesh; the
   epoch rule in :mod:`repro.cluster.membership` makes merges
   commutative and convergent);
2. **suspects** — every peer gets a *suspicion score* built from its
   silence and its RTT EWMA (see :meth:`ClusterCoordinator.suspicion`);
   a score past ``SUSPICION_THRESHOLD`` marks the peer dead, which
   bumps the epoch and shrinks the ring. A gray-failing peer — alive
   but pathologically slow — accumulates RTT penalty and is handed off
   *before* a pure silence deadline would notice it;
3. **rebalances** — sessions whose ring owner is another node are
   live-migrated there (checkpoint + HANDOFF + drop);
4. **replicates** — sessions owned here whose position advanced since
   the last pass ship a checkpoint *copy* to their ring successor's
   replica spool;
5. **adopts** — replica checkpoints whose ring owner is now *this*
   node (their original owner died) are imported and resume serving.

Every HANDOFF and OWNED notice leaving this node is stamped with the
membership ``epoch`` it was decided under; a receiver with a newer
epoch answers ``FENCED`` and the state stays put until gossip catches
this node up (see :mod:`repro.cluster.migration`).

All peer traffic happens on the coordinator's own thread — inbound
frames (JOIN/RING/HANDOFF/OWNED) are handled by the ordinary
connection state machine, which calls the thread-safe ``handle_*``
methods here. The server's event loop never blocks on a peer.

Failure model: a ``kill -9`` of a node loses its live sessions and
un-replicated tail, but every session checkpoint already shipped to a
successor is adopted within one suspicion window, and the client's
lenient resume + positioned-frame resync re-sends whatever the replica
had not seen — recovered reports equal the offline run (the CI
``cluster-smoke`` drill).

Determinism hooks (used by :mod:`repro.faults.netsim`): ``clock`` is
an attribute (default :func:`time.monotonic`) so simulated time can
drive suspicion, and ``manual_ticks=True`` keeps the tick thread off
so a harness can interleave :meth:`tick` calls across nodes in a
seeded order.

Fault sites (see :mod:`repro.faults`): ``cluster.gossip`` — ``drop``
one outbound gossip contact (ages the peer toward suspicion),
``delay`` it one full round, ``duplicate`` it, or ``reorder`` it to
the end of the current round; ``cluster.handoff`` and
``net.partition`` — see :mod:`repro.cluster.migration`.
"""

from __future__ import annotations

import logging
import tempfile
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults.injector import fire
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..service.backoff import Backoff
from ..service.protocol import FrameType
from ..service.recovery import RecoveryError, RecoveryManager
from ..service.router import Router, RouterError
from .membership import ALIVE, Membership, MembershipError, NodeInfo
from .migration import (
    DEFAULT_CALL_TIMEOUT,
    HandoffError,
    StaleEpochError,
    json_call,
    migrate_session,
    replicate_session,
)
from .ring import DEFAULT_VNODES, HashRing

log = logging.getLogger("repro.cluster")

#: Seconds between gossip/rebalance ticks.
DEFAULT_GOSSIP_INTERVAL = 0.5

#: Suspicion multiple: a peer silent for this many gossip intervals is
#: declared dead (the failover trigger).
SUSPECT_INTERVALS = 4

#: A peer whose suspicion score reaches this is declared dead. The
#: score is normalized so that pure silence crosses the threshold
#: exactly at ``suspect_after`` — the RTT penalty only ever moves the
#: verdict *earlier* (gray failure), never later.
SUSPICION_THRESHOLD = 4.0

#: EWMA gain for peer round-trip times (RFC-6298 flavored: one eighth
#: of each new sample, one quarter for the deviation estimate).
RTT_ALPHA = 0.125
RTT_BETA = 0.25

#: Floor for the per-peer RTT budget, so sub-millisecond loopback
#: clusters do not flag ordinary scheduler jitter as gray failure.
MIN_RTT_BUDGET = 0.05


class ClusterCoordinator:
    """One node's membership, ring, and migration engine.

    Args:
        node_id: This node's unique id (stable across the cluster).
        host/port: The address *peers and clients* reach this node at
            (the advertise address, not the bind address).
        router: The node's shard router (sessions live there).
        vnodes: Virtual points per node on the ring.
        gossip_interval: Seconds between background ticks.
        suspect_after: Seconds of peer silence before a death verdict
            (default ``SUSPECT_INTERVALS * gossip_interval``); the RTT
            suspicion score is normalized against this.
        seeds: ``host:port`` addresses to JOIN through at start.
        replica_spool: Directory for checkpoint replicas shipped here
            by peers (defaults to ``<spool>/replicas`` next to the
            router's spool, or a temp directory on spool-less nodes).
        call_timeout: Seconds one peer round trip may take.
        manual_ticks: Skip the background tick thread; the owner calls
            :meth:`tick` itself (the netsim harness does this to step
            all nodes in a deterministic order).
    """

    def __init__(
        self,
        node_id: str,
        host: str,
        port: int,
        router: Router,
        vnodes: int = DEFAULT_VNODES,
        gossip_interval: float = DEFAULT_GOSSIP_INTERVAL,
        suspect_after: Optional[float] = None,
        seeds: Sequence[str] = (),
        replica_spool: Optional[str] = None,
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
        manual_ticks: bool = False,
    ) -> None:
        self.node_id = node_id
        self.info = NodeInfo(node_id, host, port, ALIVE)
        self.router = router
        self.vnodes = vnodes
        self.gossip_interval = gossip_interval
        self.suspect_after = (
            suspect_after
            if suspect_after is not None
            else SUSPECT_INTERVALS * gossip_interval
        )
        self.seeds = list(seeds)
        self.call_timeout = call_timeout
        self.manual_ticks = manual_ticks
        #: Time source for silence/suspicion bookkeeping. An attribute
        #: so the netsim harness can substitute simulated time.
        self.clock = time.monotonic
        if replica_spool is None:
            if router.recovery is not None:
                replica_spool = str(router.recovery.spool / "replicas")
            else:
                replica_spool = tempfile.mkdtemp(prefix="repro-replicas-")
        self.replicas = RecoveryManager(Path(replica_spool))

        self._lock = threading.RLock()
        self.membership = Membership()
        self.membership.add(self.info)  # epoch 1: a cluster of one
        self.ring = HashRing([node_id], vnodes)
        self._last_seen: Dict[str, float] = {}
        #: Per-peer smoothed round-trip time and mean deviation.
        self._rtt_ewma: Dict[str, float] = {}
        self._rtt_var: Dict[str, float] = {}
        #: Gossip contacts an injected ``delay`` pushed to next round.
        self._deferred_gossip: List[NodeInfo] = []
        #: Stream position last replicated, per owned session.
        self._replicated: Dict[str, int] = {}
        #: Closed sessions whose replicas still need a drop notice.
        self._closed: List[str] = []
        #: Owned-session rows cached by the last tick (stats source).
        self._owned_cache: List[Dict[str, Any]] = []
        self._replica_cache = 0

        # Typed counters (repro.obs.metrics), mutated under self._lock.
        self.metrics = MetricsRegistry()
        self.migrations_total = self.metrics.counter(
            "repro_cluster_migrations_total", "Sessions migrated away live")
        self.handoffs_in = self.metrics.counter(
            "repro_cluster_handoffs_in_total", "Checkpoint blobs received")
        self.handoffs_out = self.metrics.counter(
            "repro_cluster_handoffs_out_total", "Checkpoint blobs shipped")
        self.handoff_bytes = self.metrics.counter(
            "repro_cluster_handoff_bytes_total",
            "Bytes of checkpoint blobs shipped")
        self.redirects = self.metrics.counter(
            "repro_cluster_redirects_total", "Ownership redirects issued")
        self.gossip_ticks = self.metrics.counter(
            "repro_cluster_gossip_ticks_total", "Coordinator ticks completed")
        #: Outbound calls a fresher peer rejected (StaleEpochError).
        self.fenced_out = self.metrics.counter(
            "repro_cluster_fenced_out_total", "Stale-epoch requests fenced")

        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """JOIN through the seeds (if any), then start the tick thread."""
        if self.seeds:
            self._join_seeds()
        if self.manual_ticks:
            return
        self._thread = threading.Thread(
            target=self._run, name=f"repro-cluster-{self.node_id}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _join_seeds(self) -> None:
        """Announce this node to the cluster through any live seed.

        One reachable seed is enough — its membership document arrives
        in the RING reply and gossip spreads our presence from there.
        """
        backoff = Backoff(initial=0.05, seed=0)
        last_error: Optional[Exception] = None
        for _attempt in range(20):
            for seed in self.seeds:
                host, _, port = seed.rpartition(":")
                try:
                    reply = json_call(
                        host, int(port), FrameType.JOIN,
                        {
                            "from": self.node_id,
                            "node": self.info.to_json(),
                            "membership": self.membership_doc(),
                        },
                        timeout=self.call_timeout,
                    )
                except (HandoffError, ValueError) as exc:
                    last_error = exc
                    continue
                with self._lock:
                    doc = reply.get("membership")
                    if isinstance(doc, dict):
                        self._merge_locked(doc)
                return
            time.sleep(backoff.next())
        raise RuntimeError(
            f"node {self.node_id!r} could not join through any seed "
            f"({', '.join(self.seeds)}): {last_error}"
        )

    def _run(self) -> None:
        while not self._stop.wait(self.gossip_interval):
            try:
                self.tick()
            except Exception:  # the tick must never die
                log.exception("cluster tick failed node=%s", self.node_id)

    # -- view helpers --------------------------------------------------------

    def _rebuild_ring_locked(self) -> None:
        alive = self.membership.alive_ids()
        if self.node_id not in alive:
            alive.append(self.node_id)  # never drop ourselves
        self.ring = HashRing(alive, self.vnodes)

    def _merge_locked(self, doc: Dict[str, Any]) -> bool:
        try:
            changed = self.membership.merge(doc)
        except MembershipError as exc:
            log.warning(
                "ignoring malformed membership from peer node=%s: %s",
                self.node_id, exc,
            )
            return False
        me = self.membership.get(self.node_id)
        if me is None or not me.alive:
            # A slow or partitioned view declared us dead: re-assert.
            # add() bumps the epoch, so our revival wins the next round.
            self.membership.add(self.info)
            changed = True
        if changed:
            self._rebuild_ring_locked()
        return changed

    def membership_doc(self) -> Dict[str, Any]:
        with self._lock:
            return self.membership.to_json()

    @property
    def epoch(self) -> int:
        with self._lock:
            return self.membership.epoch

    def owns(self, session_id: str) -> bool:
        with self._lock:
            return self.ring.owner(session_id) == self.node_id

    def owner_info(self, session_id: str) -> NodeInfo:
        with self._lock:
            owner = self.ring.owner(session_id)
            info = self.membership.get(owner)
        if info is None:  # the ring never outruns membership, but be safe
            return self.info
        return info

    def redirect_doc(self, session_id: str) -> Dict[str, Any]:
        """The REDIRECT payload pointing a client at the owner."""
        info = self.owner_info(session_id)
        with self._lock:
            self.redirects.inc()
            epoch = self.membership.epoch
        return {
            "session": session_id,
            "node": info.node_id,
            "host": info.host,
            "port": info.port,
            "epoch": epoch,
        }

    def local_session_id(self) -> str:
        """A fresh session id this node owns (for un-pinned HELLOs)."""
        for _ in range(4096):
            session_id = uuid.uuid4().hex
            if self.owns(session_id):
                return session_id
        raise RuntimeError("could not draw a locally-owned session id")

    # -- suspicion -----------------------------------------------------------

    def note_rtt(self, peer_id: str, rtt: float) -> None:
        """Fold one peer round-trip sample into its EWMA/deviation.

        Called by the gossip loop after every successful contact; the
        netsim harness also calls it directly to model a gray-failing
        (slow-but-alive) peer under simulated time.
        """
        with self._lock:
            ewma = self._rtt_ewma.get(peer_id)
            if ewma is None:
                self._rtt_ewma[peer_id] = rtt
                self._rtt_var[peer_id] = rtt / 2.0
            else:
                var = self._rtt_var.get(peer_id, 0.0)
                self._rtt_var[peer_id] = (
                    (1.0 - RTT_BETA) * var + RTT_BETA * abs(rtt - ewma)
                )
                self._rtt_ewma[peer_id] = (
                    (1.0 - RTT_ALPHA) * ewma + RTT_ALPHA * rtt
                )

    def _suspicion_locked(self, peer_id: str, now: float) -> float:
        # Silence term: normalized so a completely silent peer crosses
        # SUSPICION_THRESHOLD exactly when suspect_after elapses —
        # identical failover timing to the old fixed deadline.
        base = self.suspect_after / SUSPICION_THRESHOLD
        silence = now - self._last_seen.setdefault(peer_id, now)
        score = silence / base if base > 0 else float("inf")
        # RTT term: a peer *answering*, but slower than its budget plus
        # four deviations, earns penalty in budget multiples. Gray
        # failure — the node that is up but useless — shows here long
        # before silence alone would, because every reply resets the
        # silence term.
        budget = max(self.gossip_interval, MIN_RTT_BUDGET)
        ewma = self._rtt_ewma.get(peer_id)
        if ewma is not None:
            slack = budget + 4.0 * self._rtt_var.get(peer_id, 0.0)
            if ewma > slack:
                score += (ewma - slack) / budget
        return score

    def suspicion(self, peer_id: str) -> float:
        """This node's current suspicion score for ``peer_id``.

        ``0`` is a freshly-heard healthy peer; the peer is declared
        dead at :data:`SUSPICION_THRESHOLD`.
        """
        with self._lock:
            return self._suspicion_locked(peer_id, self.clock())

    # -- inbound control frames (called from connection handlers) -----------

    def handle_join(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """A node announced itself: admit it, return our membership."""
        info = NodeInfo.from_json(obj.get("node") or {})
        with self._lock:
            self.membership.add(info)
            doc = obj.get("membership")
            if isinstance(doc, dict):
                self._merge_locked(doc)
            self._last_seen[info.node_id] = self.clock()
            self._rebuild_ring_locked()
            log.info(
                "node joined cluster node=%s peer=%s epoch=%d",
                self.node_id, info.node_id, self.membership.epoch,
            )
            return self.membership.to_json()

    def handle_ring(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """A gossip (or client ring-fetch): merge theirs, return ours."""
        with self._lock:
            doc = obj.get("membership")
            if isinstance(doc, dict):
                self._merge_locked(doc)
            peer = obj.get("from")
            if isinstance(peer, str) and peer in self.membership.nodes:
                self._last_seen[peer] = self.clock()
            return self.membership.to_json()

    def handle_owned(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """An ownership notice. ``closed=true`` means the session ended
        cleanly at its owner — drop any replica so a later failover
        cannot resurrect a finished session."""
        session_id = obj.get("session")
        if isinstance(session_id, str) and obj.get("closed"):
            self.replicas.delete(session_id)
            return {"session": session_id, "dropped": True}
        return {"session": session_id}

    def store_replica(self, session_id: str, blob: bytes) -> Dict[str, Any]:
        """Store a peer's checkpoint copy in the replica spool."""
        self.replicas.save_payload(session_id, blob)
        with self._lock:
            self.handoffs_in.inc()
            self.handoff_bytes.inc(len(blob))
        return {"session": session_id, "stored": True}

    def note_import(self, nbytes: int) -> None:
        """Count one inbound *live* handoff (import done by the router)."""
        with self._lock:
            self.handoffs_in.inc()
            self.handoff_bytes.inc(nbytes)
            self.migrations_total.inc()

    def session_closed(self, session_id: str) -> None:
        """A session closed cleanly here: forget its replication state
        and queue a drop notice for its successor's replica."""
        self.replicas.delete(session_id)
        with self._lock:
            self._replicated.pop(session_id, None)
            self._closed.append(session_id)

    # -- the background tick -------------------------------------------------

    def tick(self) -> None:
        """One gossip + failure-detection + migration pass (also called
        directly by tests to step the cluster deterministically)."""
        with tracing.span("cluster.tick", node=self.node_id):
            self._gossip()
            ring = self._detect_failures()
            self._drain_closed(ring)
            self._rebalance(ring)
            self._replicate(ring)
            self._adopt(ring)
            with self._lock:
                self.gossip_ticks.inc()
                self._replica_cache = len(self.replicas.session_ids())

    def _peers(self) -> List[NodeInfo]:
        with self._lock:
            return [
                n for n in self.membership.alive()
                if n.node_id != self.node_id
            ]

    def _net_key(self, peer_id: str) -> str:
        """The directed-link key this node's messages to a peer carry."""
        return f"{self.node_id}->{peer_id}"

    def _gossip(self) -> None:
        doc = self.membership_doc()
        with self._lock:
            deferred, self._deferred_gossip = self._deferred_gossip, []
        deferred_ids = {peer.node_id for peer in deferred}
        # Contacts an injected delay pushed out of the previous round go
        # first, and do not consult the plan again — the delay already
        # fired for them; "lands one round late" must mean exactly that.
        queue: List[Tuple[NodeInfo, bool]] = [(p, True) for p in deferred]
        queue.extend(
            (p, False) for p in self._peers()
            if p.node_id not in deferred_ids
        )
        # Heal probe: one known-dead peer per round, rotating. Without
        # it a partition that ends with both sides marking each other
        # dead is *permanent* — nobody gossips to a dead peer, so no
        # document ever crosses the healed link. The probe carries our
        # doc; a live "dead" peer re-asserts itself (epoch bump) and
        # convergence follows. A genuinely dead peer just refuses the
        # connect.
        with self._lock:
            dead = sorted(
                (
                    n for n in self.membership.nodes.values()
                    if not n.alive and n.node_id != self.node_id
                ),
                key=lambda n: n.node_id,
            )
            rotation = self.gossip_ticks.value
        if dead:
            probe = dead[rotation % len(dead)]
            if probe.node_id not in deferred_ids:
                queue.append((probe, False))
        index = 0
        while index < len(queue):
            peer, exempt = queue[index]
            index += 1
            action = None if exempt else fire("cluster.gossip", key=peer.node_id)
            if action is not None:
                if action.op == "drop":
                    continue  # this contact never happens; the peer ages
                if action.op == "delay":
                    with self._lock:
                        self._deferred_gossip.append(peer)
                    continue
                if action.op == "reorder":
                    # Move to the end of this round, exempt from a
                    # second draw so the rule cannot starve the peer.
                    queue.append((peer, True))
                    continue
            self._contact(peer, doc)
            if action is not None and action.op == "duplicate":
                self._contact(peer, doc)

    def _contact(self, peer: NodeInfo, doc: Dict[str, Any]) -> None:
        started = self.clock()
        try:
            reply = json_call(
                peer.host, peer.port, FrameType.RING,
                {"from": self.node_id, "membership": doc},
                timeout=self.call_timeout,
                net_key=self._net_key(peer.node_id),
            )
        except HandoffError:
            return  # unreachable: suspicion only grows by silence
        rtt = self.clock() - started
        self.note_rtt(peer.node_id, rtt)
        with self._lock:
            self._last_seen[peer.node_id] = self.clock()
            incoming = reply.get("membership")
            if isinstance(incoming, dict):
                self._merge_locked(incoming)

    def _detect_failures(self) -> HashRing:
        now = self.clock()
        with self._lock:
            for peer in list(self.membership.alive()):
                if peer.node_id == self.node_id:
                    continue
                score = self._suspicion_locked(peer.node_id, now)
                if score >= SUSPICION_THRESHOLD:
                    if self.membership.mark_dead(peer.node_id):
                        log.warning(
                            "peer declared dead node=%s peer=%s "
                            "suspicion=%.2f silent=%.1fs rtt_ewma=%.3fs "
                            "epoch=%d",
                            self.node_id, peer.node_id, score,
                            now - self._last_seen.get(peer.node_id, now),
                            self._rtt_ewma.get(peer.node_id, 0.0),
                            self.membership.epoch,
                        )
            self._rebuild_ring_locked()
            return self.ring

    def _drain_closed(self, ring: HashRing) -> None:
        with self._lock:
            closed, self._closed = self._closed, []
            epoch = self.membership.epoch
        for session_id in closed:
            successor = ring.successor(session_id)
            if successor == self.node_id:
                continue
            with self._lock:
                info = self.membership.get(successor)
            if info is None:
                continue
            try:
                json_call(
                    info.host, info.port, FrameType.OWNED,
                    {
                        "from": self.node_id,
                        "session": session_id,
                        "closed": True,
                        "epoch": epoch,
                    },
                    timeout=self.call_timeout,
                    net_key=self._net_key(successor),
                )
            except HandoffError:
                pass  # best-effort; a stale replica loses import conflicts

    def _list_local(self) -> List[Dict[str, Any]]:
        try:
            return self.router.list_sessions()
        except RouterError as exc:
            log.warning(
                "cannot list sessions for cluster pass node=%s: %s",
                self.node_id, exc,
            )
            return []

    def _rebalance(self, ring: HashRing) -> None:
        """Live-migrate every healthy session the ring assigns away."""
        for row in self._list_local():
            if row.get("quarantined"):
                continue  # a poisoned session stays put for its autopsy
            session_id = row["session"]
            owner = ring.owner(session_id)
            if owner == self.node_id:
                continue
            with self._lock:
                info = self.membership.get(owner)
                epoch = self.membership.epoch
            if info is None or not info.alive:
                continue
            try:
                with tracing.span(
                    "cluster.migrate",
                    session=session_id,
                    source=self.node_id,
                    target=owner,
                ):
                    ack = migrate_session(
                        self.router, session_id, info.host, info.port,
                        timeout=self.call_timeout,
                        epoch=epoch, origin=self.node_id,
                        net_key=self._net_key(owner),
                    )
            except StaleEpochError as exc:
                # The target's view is ahead of ours; the session was
                # re-imported locally and will move after gossip
                # catches us up — next tick, usually.
                with self._lock:
                    self.fenced_out.inc()
                log.warning(
                    "migration fenced session=%s node=%s epoch=%d: %s",
                    session_id, self.node_id, epoch, exc,
                )
                continue
            except RouterError as exc:
                log.warning(
                    "migration export failed session=%s node=%s: %s",
                    session_id, self.node_id, exc,
                )
                continue
            with self._lock:
                self._replicated.pop(session_id, None)
                if ack is not None:
                    self.migrations_total.inc()
                    self.handoffs_out.inc()
            if ack is not None:
                log.info(
                    "session migrated session=%s %s -> %s position=%s",
                    session_id, self.node_id, owner, ack.get("position"),
                )

    def _replicate(self, ring: HashRing) -> None:
        """Ship checkpoint copies of advanced sessions to successors."""
        owned = []
        for row in self._list_local():
            session_id = row["session"]
            if ring.owner(session_id) != self.node_id:
                continue
            owned.append(row)
            if row.get("quarantined"):
                continue
            successor = ring.successor(session_id)
            if successor == self.node_id:
                continue  # a 1-node ring has nowhere to replicate
            with self._lock:
                done = self._replicated.get(session_id, -1)
            if row["position"] <= done:
                continue
            with self._lock:
                info = self.membership.get(successor)
                epoch = self.membership.epoch
            if info is None or not info.alive:
                continue
            try:
                shipped = replicate_session(
                    self.router, session_id, info.host, info.port,
                    timeout=self.call_timeout,
                    epoch=epoch, origin=self.node_id,
                    net_key=self._net_key(successor),
                )
            except StaleEpochError:
                with self._lock:
                    self.fenced_out.inc()
                continue  # gossip will catch us up; retry next tick
            except RouterError as exc:
                log.warning(
                    "replication export failed session=%s node=%s: %s",
                    session_id, self.node_id, exc,
                )
                continue
            if shipped:
                with self._lock:
                    self._replicated[session_id] = row["position"]
                    self.handoffs_out.inc()
                    self.handoff_bytes.inc(shipped)
        with self._lock:
            self._owned_cache = owned

    def _adopt(self, ring: HashRing) -> None:
        """Import replica checkpoints the ring now assigns to us —
        their owner died and we are the failover target."""
        local = {row["session"] for row in self._list_local()}
        for session_id in self.replicas.session_ids():
            if ring.owner(session_id) != self.node_id:
                continue
            if session_id in local:
                self.replicas.delete(session_id)  # superseded by live state
                continue
            try:
                blob = self.replicas.load_payload(session_id)
                info = self.router.import_session(session_id, blob)
            except (RecoveryError, RouterError) as exc:
                log.error(
                    "replica adoption failed session=%s node=%s: %s",
                    session_id, self.node_id, exc,
                )
                self.replicas.quarantine(session_id)
                continue
            self.replicas.delete(session_id)
            with self._lock:
                self.migrations_total.inc()
            log.warning(
                "replica adopted after failover session=%s node=%s "
                "position=%s",
                session_id, self.node_id, info.get("position"),
            )

    # -- stats ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``cluster`` block of a STATS reply (cheap: no shard or
        peer calls — session counts come from the last tick's cache)."""
        now = self.clock()
        with self._lock:
            peers = [
                {
                    "node": info.node_id,
                    "address": info.address,
                    "status": info.status,
                    "silent_seconds": round(
                        now - self._last_seen.get(info.node_id, now), 3
                    ),
                    "suspicion": round(
                        self._suspicion_locked(info.node_id, now), 3
                    ),
                    "rtt_ms": round(
                        self._rtt_ewma.get(info.node_id, 0.0) * 1000.0, 3
                    ),
                }
                for info in sorted(
                    self.membership.nodes.values(), key=lambda n: n.node_id
                )
                if info.node_id != self.node_id
            ]
            return {
                "node": self.node_id,
                "epoch": self.membership.epoch,
                "ring": {
                    "nodes": list(self.ring.nodes),
                    "vnodes": self.vnodes,
                },
                "peers": peers,
                "sessions_owned": len(self._owned_cache),
                "replicas_held": self._replica_cache,
                "migrations_total": self.migrations_total.value,
                "handoffs_in": self.handoffs_in.value,
                "handoffs_out": self.handoffs_out.value,
                "handoff_bytes": self.handoff_bytes.value,
                "redirects": self.redirects.value,
                "gossip_ticks": self.gossip_ticks.value,
                "fenced_out": self.fenced_out.value,
            }
