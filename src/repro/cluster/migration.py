"""Shipping sessions between nodes: the HANDOFF path.

A migration is *checkpoint + move*: the source shard freezes the
session into the exact blob its spool stores (``Router.export_session``
— checkpoint, then drop), the blob travels in one ``HANDOFF`` frame,
and the target shard adopts it (``Router.import_session`` — thaw,
higher-position-wins on conflict, re-spool). Replication is the same
frame with ``live=false``: the source keeps running and the target only
stores the blob in its replica spool, to be adopted if the owner dies.

Every HANDOFF meta carries the sender's membership ``epoch`` and
``origin`` node id. A receiver whose own epoch is ahead answers
``FENCED`` instead of importing — a partitioned old owner cannot push
stale state into the healed ring; it re-imports locally and retries
after its next gossip merge catches it up
(:class:`StaleEpochError`).

Everything here is a *client* of a peer node: each call opens a fresh
connection, speaks one frame, reads one reply, and hangs up — no
connection pooling, no partial state to clean up after a peer dies
mid-call. At-least-once semantics are free: a duplicated HANDOFF is
absorbed by the import conflict rule, a dropped one is retried by the
next gossip tick (replication) or undone locally (live migration).

Fault sites (see :mod:`repro.faults`): ``cluster.handoff`` — ``drop``
(the frame never leaves the node) or ``duplicate`` (it is sent twice);
``net.partition`` — ``drop`` one directed node-to-node message, keyed
``"src->dst"`` so match rules carve one-way and two-way partitions.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Optional, Tuple

from ..faults.injector import fire
from ..service import protocol
from ..service.protocol import FrameType

#: Seconds one peer call (connect + one round trip) may take.
DEFAULT_CALL_TIMEOUT = 5.0


class HandoffError(RuntimeError):
    """A peer call failed (unreachable, protocol error, ERROR reply)."""


class StaleEpochError(HandoffError):
    """The peer fenced the call: our membership epoch is behind its.

    Carries the peer's epoch in :attr:`peer_epoch` so the caller can
    log how far behind it is; recovery is always the same — gossip
    catches the local view up, then the next tick retries.
    """

    def __init__(self, message: str, peer_epoch: int = 0) -> None:
        super().__init__(message)
        self.peer_epoch = peer_epoch


def _fire_partition(net_key: Optional[str], what: str) -> None:
    """The ``net.partition`` site: one directed message may vanish."""
    if net_key is None:
        return
    action = fire("net.partition", key=net_key)
    if action is not None and action.op == "drop":
        raise HandoffError(
            f"[injected] partition dropped {what} on link {net_key}"
        )


def node_call(
    host: str,
    port: int,
    frame: bytes,
    timeout: float = DEFAULT_CALL_TIMEOUT,
    net_key: Optional[str] = None,
) -> Tuple[int, bytes]:
    """One fresh-connection round trip to a peer node.

    Sends ``frame``, reads exactly one reply frame, closes. Returns
    ``(type, payload)``; an ``ERROR`` reply or any transport/framing
    failure raises :class:`HandoffError` — callers treat every failure
    the same way (retry next tick, or undo). A ``FENCED`` reply raises
    :class:`StaleEpochError` (a :class:`HandoffError` subtype): the
    peer's membership epoch is ahead of the one the frame carried.

    ``net_key`` (``"src->dst"``) arms the ``net.partition`` fault site
    for this one directed message.
    """
    _fire_partition(net_key, "a peer call")
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(frame)
            with sock.makefile("rb") as rfile:
                reply = protocol.FrameStream(rfile).read_frame()
    except (OSError, protocol.WireError) as exc:
        raise HandoffError(f"peer {host}:{port}: {exc}") from exc
    if reply is None:
        raise HandoffError(f"peer {host}:{port} closed without replying")
    ftype, payload = reply
    if ftype == FrameType.FENCED:
        obj = protocol.decode_json(payload) if payload else {}
        raise StaleEpochError(
            f"peer {host}:{port} fenced the call at epoch "
            f"{obj.get('epoch')}: {obj.get('message', 'stale epoch')}",
            peer_epoch=int(obj.get("epoch", 0) or 0),
        )
    if ftype == FrameType.ERROR:
        obj = protocol.decode_json(payload)
        raise HandoffError(
            f"peer {host}:{port} answered ERROR "
            f"[{obj.get('code', 'unknown')}] {obj.get('message', '')}"
        )
    return ftype, payload


def json_call(
    host: str,
    port: int,
    ftype: int,
    obj: Dict[str, Any],
    timeout: float = DEFAULT_CALL_TIMEOUT,
    net_key: Optional[str] = None,
) -> Dict[str, Any]:
    """A JSON request/reply round trip (JOIN, RING and OWNED frames)."""
    _rtype, payload = node_call(
        host, port, protocol.encode_json(ftype, obj), timeout=timeout,
        net_key=net_key,
    )
    return protocol.decode_json(payload) if payload else {}


def ship_handoff(
    host: str,
    port: int,
    meta: Dict[str, Any],
    blob: bytes,
    timeout: float = DEFAULT_CALL_TIMEOUT,
    net_key: Optional[str] = None,
) -> Dict[str, Any]:
    """Ship one frozen session checkpoint to a peer in a HANDOFF frame.

    Returns the peer's OWNED acknowledgment (``{"session", "position",
    "imported"}`` for a live move, ``{"session", "stored"}`` for a
    replica). Raises :class:`HandoffError` on any failure — including
    an injected ``cluster.handoff drop``, which callers must treat
    exactly like a vanished frame — and :class:`StaleEpochError` when
    the peer fenced the shipment (its epoch is ahead of ``meta``'s).
    """
    frame = protocol.encode_frame(
        FrameType.HANDOFF, protocol.encode_handoff(meta, blob)
    )
    action = fire("cluster.handoff", key=meta.get("session"))
    if action is not None and action.op == "drop":
        raise HandoffError(
            f"[injected] handoff of session {meta.get('session')!r} "
            f"to {host}:{port} dropped"
        )
    ftype, payload = node_call(
        host, port, frame, timeout=timeout, net_key=net_key
    )
    if ftype != FrameType.OWNED:
        raise HandoffError(
            f"peer {host}:{port} answered frame type {ftype} "
            f"to a HANDOFF (want OWNED)"
        )
    if action is not None and action.op == "duplicate":
        # At-least-once delivery: the same blob lands twice; the
        # import conflict rule (higher position wins, equal is a no-op)
        # makes the duplicate harmless. Best-effort — if the second
        # send fails the first already succeeded.
        try:
            node_call(host, port, frame, timeout=timeout, net_key=net_key)
        except HandoffError:
            pass
    return protocol.decode_json(payload) if payload else {}


def migrate_session(
    router,
    session_id: str,
    host: str,
    port: int,
    timeout: float = DEFAULT_CALL_TIMEOUT,
    epoch: Optional[int] = None,
    origin: Optional[str] = None,
    net_key: Optional[str] = None,
) -> Optional[Dict[str, Any]]:
    """Live-migrate one session: export (checkpoint + drop) then ship.

    ``epoch``/``origin`` stamp the HANDOFF meta with the sender's
    membership view so the receiver can fence a stale shipment. If
    shipping fails — unreachable peer, injected drop, or an epoch
    fence — the exported blob is **re-imported locally**: the session
    must never be lost to a dead (or fresher) target; it simply stays
    here until the next rebalance pass, after gossip has caught the
    local view up. Returns the peer's OWNED ack, or ``None`` when the
    move was undone. A fence re-raises :class:`StaleEpochError` *after*
    the local undo so the caller can count it.
    """
    out = router.export_session(session_id)
    meta = dict(out["meta"])
    meta["live"] = True
    if epoch is not None:
        meta["epoch"] = epoch
    if origin is not None:
        meta["origin"] = origin
    try:
        return ship_handoff(
            host, port, meta, out["blob"], timeout=timeout, net_key=net_key
        )
    except StaleEpochError:
        router.import_session(session_id, out["blob"])
        raise
    except HandoffError:
        router.import_session(session_id, out["blob"])
        return None


def replicate_session(
    router,
    session_id: str,
    host: str,
    port: int,
    timeout: float = DEFAULT_CALL_TIMEOUT,
    epoch: Optional[int] = None,
    origin: Optional[str] = None,
    net_key: Optional[str] = None,
) -> int:
    """Ship a *copy* of one session's checkpoint to its ring successor.

    The original keeps running; the peer stores the blob in its replica
    spool for failover adoption. Returns the bytes shipped (0 when the
    handoff failed — the next tick retries); an epoch fence re-raises
    :class:`StaleEpochError` so the caller can count it.
    """
    out = router.export_checkpoint(session_id)
    meta = dict(out["meta"])
    meta["live"] = False
    if epoch is not None:
        meta["epoch"] = epoch
    if origin is not None:
        meta["origin"] = origin
    try:
        ship_handoff(
            host, port, meta, out["blob"], timeout=timeout, net_key=net_key
        )
    except StaleEpochError:
        raise
    except HandoffError:
        return 0
    return len(out["blob"])
