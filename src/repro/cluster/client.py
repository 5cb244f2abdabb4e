"""Ring-aware client: route each session to its owning node.

:class:`ClusterClient` holds a list of seed addresses and keeps a
local copy of the cluster's membership + ring (fetched with a ``RING``
frame from any reachable node — the reply carries the membership
document and the ring's vnode count, so the client computes the same
owner every server does). :meth:`ClusterClient.submit_trace` then
drives the ordinary single-node :func:`repro.service.client.submit_trace`
against the owner, healing every cluster seam:

* **REDIRECT** — ownership moved mid-epoch (a node joined and the
  session migrated): follow the redirect target and resume.
* **FENCED** — the routed-to node's membership view is behind the
  epoch this client stamped on its HELLO (it is the stale side of a
  healing partition): nothing was written; back off a beat, re-fetch
  the ring, resume at whatever the healed ring says.
* **unreachable / reset / shard crash** — the owner died: back off,
  re-fetch the ring from the survivors (who declare the death within
  one suspicion window), and resume against the new owner. The
  ``lenient`` HELLO means a session whose checkpoint never reached a
  replica simply restarts from position 0 — the client re-sends and
  positioned frames keep the replay idempotent either way. A restart
  from zero is never silent: the report carries
  ``service.restarted_from_zero`` and ``repro submit`` maps it to a
  distinct exit code.

Every retry is paced by the shared :class:`~repro.service.backoff.Backoff`
policy and bounded by ``attempts`` and the wall-clock ``deadline``.
"""

from __future__ import annotations

import uuid
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..service import protocol
from ..service.backoff import Backoff
from ..service.client import (
    DEFAULT_BATCH,
    ServiceClient,
    ServiceError,
    ServiceUnreachable,
    SessionFenced,
    SessionRedirect,
    _Deadline,
    _retryable,
    submit_trace as _submit_to_node,
)
from ..service.protocol import FrameType
from ..trace.events import Event
from .membership import NodeInfo, parse_membership
from .migration import DEFAULT_CALL_TIMEOUT, HandoffError, json_call
from .ring import DEFAULT_VNODES, HashRing

#: Outer routing attempts (each may spend a couple of inner reconnects).
DEFAULT_CLUSTER_ATTEMPTS = 10


class ClusterError(ServiceError):
    """No cluster node could be reached or the routing gave out."""

    def __init__(self, message: str) -> None:
        super().__init__("cluster", message)


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` -> ``(host, port)`` (the CLI ``--nodes`` format)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"bad node address {address!r} (want host:port)")
    return host, int(port)


class ClusterClient:
    """A routing front end over a set of ``repro serve`` cluster nodes.

    Args:
        nodes: Seed addresses (``host:port``); one live node is enough,
            the membership fetch finds the rest.
        call_timeout: Seconds a ring fetch may take per node.
        jitter_seed: Seed for deterministic retry pacing.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
        jitter_seed: Optional[int] = None,
    ) -> None:
        if not nodes:
            raise ValueError("a cluster client needs at least one seed node")
        self.seeds: List[Tuple[str, int]] = [parse_address(a) for a in nodes]
        self.call_timeout = call_timeout
        self.jitter_seed = jitter_seed
        self.epoch = -1
        self.vnodes = DEFAULT_VNODES
        self.members: Dict[str, NodeInfo] = {}
        self.ring: Optional[HashRing] = None

    # -- the membership/ring view -------------------------------------------

    def _candidates(self) -> List[Tuple[str, int]]:
        """Known member addresses first (fresher), then the seeds."""
        out: List[Tuple[str, int]] = [
            (info.host, info.port)
            for info in sorted(self.members.values(), key=lambda n: n.node_id)
            if info.alive
        ]
        for seed in self.seeds:
            if seed not in out:
                out.append(seed)
        return out

    def refresh(self) -> int:
        """Fetch the membership from any reachable node; returns the
        epoch. Raises :class:`ClusterError` when no node answers."""
        last: Optional[Exception] = None
        for host, port in self._candidates():
            try:
                reply = json_call(
                    host, port, FrameType.RING, {},
                    timeout=self.call_timeout,
                )
            except (HandoffError, OSError) as exc:
                last = exc
                continue
            doc = reply.get("membership")
            if not isinstance(doc, dict):
                last = ClusterError(
                    f"node {host}:{port} is not clustered "
                    f"(RING reply carries no membership)"
                )
                continue
            epoch, nodes = parse_membership(doc)
            self.epoch = epoch
            self.vnodes = int(reply.get("vnodes", self.vnodes))
            self.members = nodes
            alive = [n.node_id for n in nodes.values() if n.alive]
            self.ring = HashRing(alive, self.vnodes) if alive else None
            return epoch
        raise ClusterError(
            f"no cluster node reachable "
            f"(tried {len(self._candidates())}): {last}"
        )

    def owner_of(self, session_id: str) -> Tuple[str, int]:
        """The owning node's address (refreshing the ring if needed)."""
        if self.ring is None:
            self.refresh()
        assert self.ring is not None
        info = self.members.get(self.ring.owner(session_id))
        if info is None:
            raise ClusterError(f"no address for owner of {session_id!r}")
        return info.host, info.port

    # -- the streaming surface ----------------------------------------------

    def submit_trace(
        self,
        events: Iterable[Event],
        analyses: Sequence[Union[str, Dict[str, Any]]],
        name: str = "stream",
        batch: int = DEFAULT_BATCH,
        session_id: Optional[str] = None,
        resume: bool = False,
        stop_after: Optional[int] = None,
        checkpoint: bool = False,
        deadline: Optional[float] = None,
        attempts: int = DEFAULT_CLUSTER_ATTEMPTS,
    ) -> Dict[str, Any]:
        """Stream a trace to whichever node owns its session.

        Same contract as the single-node
        :func:`~repro.service.client.submit_trace`, plus routing: the
        session id (generated here when not given, so routing is
        stable) picks the owner via the ring; redirects are followed;
        a dead owner is survived by re-fetching the ring and resuming
        against the failover target with a lenient HELLO.
        """
        all_events = list(events)
        session_id = session_id or uuid.uuid4().hex
        budget = _Deadline(deadline)
        backoff = Backoff(seed=self.jitter_seed)
        pinned: Optional[Tuple[str, int]] = None  # a REDIRECT target
        resume_flag = resume
        last: Optional[Exception] = None
        for _attempt in range(attempts):
            budget.remaining(f"routing session {session_id}")
            if pinned is not None:
                host, port = pinned
                pinned = None
            else:
                try:
                    self.refresh()
                    host, port = self.owner_of(session_id)
                except ClusterError as exc:
                    last = exc
                    budget.sleep(backoff.next(), "waiting for a live node")
                    continue
            try:
                return _submit_to_node(
                    host, port, all_events, analyses,
                    name=name, batch=batch,
                    session_id=session_id,
                    resume=resume_flag, lenient=True,
                    stop_after=stop_after, checkpoint=checkpoint,
                    deadline=budget.remaining("streaming"),
                    attempts=2, jitter_seed=self.jitter_seed,
                    epoch=self.epoch if self.epoch >= 0 else None,
                )
            except SessionFenced as exc:
                # The node we routed to is behind the epoch we routed
                # by (a healing partition). Nothing was written; give
                # gossip a beat, re-fetch, resume wherever the healed
                # ring points.
                last = exc
                resume_flag = True
                budget.sleep(
                    backoff.next(), "waiting for the owner's view to heal"
                )
                continue
            except SessionRedirect as redirect:
                # Ownership moved mid-epoch: follow without a backoff —
                # the target is authoritative and already has the
                # migrated checkpoint.
                pinned = (redirect.host, redirect.port)
                resume_flag = True
                last = redirect
                continue
            except ServiceUnreachable as exc:
                # The owner is gone. The survivors declare it dead
                # within one suspicion window and adopt its replicas;
                # back off, re-fetch the ring, resume at the new owner.
                last = exc
                resume_flag = True
                budget.sleep(backoff.next(), "waiting for ring heal")
                continue
            except ServiceError as exc:
                if not _retryable(exc):
                    raise
                last = exc
                resume_flag = True
                budget.sleep(backoff.next(), "retrying after service error")
                continue
        raise ClusterError(
            f"session {session_id!r} failed after {attempts} routing "
            f"attempts: {last}"
        )

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """STATS from every reachable member, keyed by node id."""
        if self.ring is None:
            self.refresh()
        out: Dict[str, Dict[str, Any]] = {}
        for node_id, info in sorted(self.members.items()):
            if not info.alive:
                continue
            try:
                with ServiceClient(
                    info.host, info.port, connect_timeout=self.call_timeout
                ) as client:
                    out[node_id] = client.stats()
            except (ServiceError, protocol.WireError, OSError):
                continue
        return out
