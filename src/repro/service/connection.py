"""The sans-IO per-connection protocol state machine.

:class:`WireConnection` is the one copy of ``repro-wire/1`` server
semantics — HELLO/EVENTS/FLUSH/CHECKPOINT/CLOSE/STATS dispatch, the
typed error-to-``ERROR``-frame mapping, and the ``wire.reply`` /
``server.events`` fault sites. It never touches a socket: bytes go in
through :meth:`WireConnection.receive_bytes`, encoded reply frames
come out through :attr:`WireConnection.outbox`, and shard replies are
:class:`~repro.service.router._Future`\\ s the transport waits on. That
inversion is what lets the ``selectors`` event loop in
:mod:`repro.service.server` hold thousands of connections on one
thread, and lets tests drive the protocol without a socket.

The driving contract::

    wire.receive_bytes(chunk)          # as bytes arrive
    futures = wire.pump()              # advance the state machine
    # futures is None  -> idle: write wire.outbox, read more bytes
    # futures is [...] -> a shard owes replies: subscribe a wakeup,
    #                     keep serving other sockets, then pump() again
    # wire.reset             -> drop the socket, sending nothing
    # wire.close_after_send  -> close once outbox is flushed

A connection is *strict request/response* (every client frame earns
exactly one reply), so at most one shard command is ever in flight per
connection; pipelined frames queue inside the decoder until the
pending reply lands.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Dict, List, Optional

from ..faults.injector import fire, mutate_frame
from ..obs.metrics import STATS_SCHEMA
from . import protocol
from .protocol import FrameType
from .router import (
    BusyError,
    Router,
    RouterError,
    ShardCrashed,
    SessionNotFound,
    SessionQuarantined,
)

log = logging.getLogger("repro.service")


class WireConnection:
    """One client connection's protocol state, free of I/O.

    Args:
        router: The shard router commands are submitted to (always via
            the non-blocking ``submit_*`` surface — a full shard inbox
            is an immediate ``BUSY`` frame).
        count: ``count(name)`` server-counter hook (busy_replies,
            read_timeouts, wire_errors).
        counters: Zero-arg callable returning the server-level counter
            dict merged into ``STATS`` replies.
        cluster: The node's
            :class:`~repro.cluster.coordinator.ClusterCoordinator`, or
            ``None`` on a standalone server. With a cluster attached,
            HELLO/EVENTS/FLUSH/CHECKPOINT/CLOSE for sessions the ring
            assigns elsewhere answer ``REDIRECT``, and the
            JOIN/RING/HANDOFF/OWNED control frames are served.
    """

    def __init__(
        self,
        router: Router,
        count: Callable[[str], None],
        counters: Callable[[], Dict[str, Any]],
        cluster: Optional[Any] = None,
    ) -> None:
        self.router = router
        self._count = count
        self._counters = counters
        self.cluster = cluster
        self.session_id: Optional[str] = None
        #: Membership epoch the client's HELLO routed by. Every later
        #: shard-bound frame on this connection is checked against it:
        #: if this node's own epoch falls behind, the node may have
        #: been partitioned away from a newer ring and must answer
        #: FENCED rather than silently double-serve the session.
        self.pinned_epoch: Optional[int] = None
        #: Inbound incremental frame decoder (the ring buffer lives here).
        self.frames = protocol.FrameDecoder()
        #: Per-connection delta-events decoder state.
        self.delta = protocol.DeltaDecoder()
        #: Outbound frame encoder (reply accounting).
        self.encoder = protocol.FrameEncoder()
        #: Encoded reply frames awaiting transport write.
        self.outbox: List[bytes] = []
        #: Close the transport once :attr:`outbox` is flushed.
        self.close_after_send = False
        #: Drop the transport NOW, without writing (injected reset).
        self.reset = False
        self._pending = None  # (futures, finish) of the in-flight command

    # -- transport-facing ---------------------------------------------------

    @property
    def closing(self) -> bool:
        return self.reset or self.close_after_send

    def receive_bytes(self, data) -> None:
        """Feed one received chunk (any bytes-like, any split)."""
        self.frames.feed(data)

    def pump(self) -> Optional[List[Any]]:
        """Advance: decode and dispatch every buffered frame.

        Returns ``None`` when idle (flush :attr:`outbox`, read more
        bytes) or the list of unresolved shard futures the in-flight
        command is waiting on (wait for them, then ``pump()`` again).
        Never raises: every failure becomes a reply frame and/or a
        close flag.
        """
        while not self.closing:
            if self._pending is not None:
                futures, finish = self._pending
                waiting = [f for f in futures if not f.done()]
                if waiting:
                    return waiting
                self._pending = None
                self._guard(finish)
                continue
            try:
                frame = self.frames.next_frame()
            except protocol.WireError as error:
                self.on_wire_error(error)
                return None
            if frame is None:
                return None
            ftype, payload = frame
            self._guard(lambda: self._dispatch(ftype, payload))
        return None

    def on_wire_error(self, error: Exception) -> None:
        """Framing broke: answer once, then drop the connection — the
        byte stream can no longer be trusted. The session and every
        other tenant on its shard are untouched."""
        self._count("wire_errors")
        log.warning("wire error %s: %s", self._where(), error)
        self._error("wire", str(error))
        self.close_after_send = True

    def on_read_timeout(self) -> None:
        """The peer went quiet past its deadline: answer and drop."""
        self._count("read_timeouts")
        log.warning(
            "connection read timed out %s; dropping it", self._where()
        )
        self._error("timeout", "read timed out; reconnect to resume")
        self.close_after_send = True

    def on_eof(self) -> None:
        """Peer EOF: clean at a frame boundary, a wire error inside one."""
        if self.frames.buffered:
            self.on_wire_error(
                protocol.FrameError(
                    "truncated frame: EOF after "
                    f"{self.frames.buffered} buffered byte(s)"
                )
            )
        else:
            self.close_after_send = True

    # -- protocol internals -------------------------------------------------

    def _where(self) -> str:
        """``session=<id> shard=<n>`` attribution for log lines."""
        if self.session_id is None:
            return "session=- shard=-"
        return (
            f"session={self.session_id} "
            f"shard={self.router.shard_of(self.session_id)}"
        )

    def _send(self, ftype: int, obj: Dict[str, Any]) -> None:
        frame = self.encoder.encode_json(ftype, obj)
        action = fire("wire.reply", key=self.session_id)
        if action is not None:
            if action.op == "reset":
                # Drop the connection without answering — the client
                # sees a reset mid-request and must reconnect/resume.
                self.reset = True
                return
            frame = mutate_frame(frame, action)
        self.outbox.append(frame)

    def _error(self, code: str, message: str) -> None:
        self._send(FrameType.ERROR, {"code": code, "message": message})

    def _guard(self, step: Callable[[], None]) -> None:
        """Run one dispatch/finish step under the shared typed-error
        mapping — the single place wire semantics assign blame."""
        try:
            step()
        except protocol.WireError as error:
            self.on_wire_error(error)
        except BusyError as error:
            self._count("busy_replies")
            payload: Dict[str, Any] = {
                "retry_ms": getattr(error, "retry_ms", None) or 50
            }
            if getattr(error, "shed", False):
                # Per-tenant overload shedding, not a full shard inbox:
                # counted separately so operators can tell a hot tenant
                # from a saturated shard.
                self._count("shed")
                payload["shed"] = True
            self._send(FrameType.BUSY, payload)
        except SessionNotFound as error:
            self._error("unknown-session", str(error))
        except SessionQuarantined as error:
            log.error(
                "quarantined session reported %s code=%s: %s",
                self._where(), error.code, error,
            )
            self._error(error.code, str(error))
        except ShardCrashed as error:
            log.error("shard crash reported %s: %s", self._where(), error)
            self._error("shard-crashed", str(error))
        except RouterError as error:
            log.error("router error %s: %s", self._where(), error)
            self._error("session", str(error))
        except Exception as error:  # isolate: never kill the transport
            log.exception(
                "internal error %s: %s: %s",
                self._where(), type(error).__name__, error,
            )
            self._error("internal", f"{type(error).__name__}: {error}")

    def _redirect(self, session_id: str) -> None:
        """Answer REDIRECT: the ring assigns this session elsewhere."""
        self._count("redirects")
        self._send(FrameType.REDIRECT, self.cluster.redirect_doc(session_id))

    def _behind(self, epoch: Optional[int]) -> bool:
        """Is this node's membership view behind ``epoch``?"""
        return (
            self.cluster is not None
            and epoch is not None
            and self.cluster.epoch < epoch
        )

    def _fenced(self, session_id: Optional[str], message: str) -> None:
        """Answer FENCED: an epoch mismatch makes this write unsafe."""
        self._count("fenced")
        log.warning("fenced %s: %s", self._where(), message)
        self._send(
            FrameType.FENCED,
            {
                "code": "fenced",
                "session": session_id,
                "epoch": self.cluster.epoch if self.cluster else 0,
                "message": message,
            },
        )

    def _dispatch_cluster(self, ftype: int, payload: bytes) -> bool:
        """Serve the cluster control frames; True when ``ftype`` was one.

        JOIN/RING/OWNED are quick in-memory merges answered inline;
        HANDOFF with a live session goes through the router's
        non-blocking import (a thaw can be heavy — never stall the
        event loop on it), a replica HANDOFF is one spool write.
        """
        if ftype not in (
            FrameType.JOIN, FrameType.RING,
            FrameType.HANDOFF, FrameType.OWNED,
        ):
            return False
        if self.cluster is None:
            self._error(
                "not-clustered",
                "this server is not part of a cluster (start with "
                "--cluster or --join)",
            )
            return True
        cluster = self.cluster
        if ftype == FrameType.HANDOFF:
            meta, blob = protocol.decode_handoff(payload)
            session_id = meta.get("session")
            if not isinstance(session_id, str) or not session_id:
                raise protocol.PayloadError("HANDOFF meta lacks a session id")
            meta_epoch = meta.get("epoch")
            if isinstance(meta_epoch, int) and meta_epoch < cluster.epoch:
                # A partitioned old owner is pushing state decided under
                # a superseded ring: refuse, or a healed cluster would
                # import a stale fork of a session it already reassigned.
                self._fenced(
                    session_id,
                    f"handoff from {meta.get('origin')!r} carries stale "
                    f"epoch {meta_epoch} (ours is {cluster.epoch})",
                )
                return True
            if meta.get("live"):
                future = self.router.submit_import(session_id, blob)

                def finish() -> None:
                    info = future.result()
                    cluster.note_import(len(blob))
                    self._send(FrameType.OWNED, info)

                self._pending = ([future], finish)
            else:
                self._send(
                    FrameType.OWNED, cluster.store_replica(session_id, blob)
                )
            return True
        obj = protocol.decode_json(payload) if payload else {}
        if ftype == FrameType.JOIN:
            doc = cluster.handle_join(obj)
            self._send(
                FrameType.RING,
                {"membership": doc, "vnodes": cluster.vnodes},
            )
        elif ftype == FrameType.RING:
            doc = cluster.handle_ring(obj)
            self._send(
                FrameType.RING,
                {"membership": doc, "vnodes": cluster.vnodes},
            )
        else:  # OWNED notice (e.g. "session closed, drop the replica")
            notice_epoch = obj.get("epoch")
            if isinstance(notice_epoch, int) and notice_epoch < cluster.epoch:
                # A stale peer's drop notice must not destroy a replica
                # the current ring may still need for failover.
                self._fenced(
                    obj.get("session"),
                    f"OWNED notice from {obj.get('from')!r} carries stale "
                    f"epoch {notice_epoch} (ours is {cluster.epoch})",
                )
                return True
            self._send(FrameType.OK, cluster.handle_owned(obj))
        return True

    def _dispatch(self, ftype: int, payload: bytes) -> None:
        router = self.router
        if self._dispatch_cluster(ftype, payload):
            return
        if ftype == FrameType.HELLO:
            hello = protocol.parse_hello(protocol.decode_json(payload))
            if self.cluster is not None:
                if self._behind(hello["epoch"]):
                    # The client routed by a membership newer than ours:
                    # this node is the stale side of a partition and
                    # cannot even trust its ring to redirect correctly.
                    self._fenced(
                        hello["session"],
                        f"node epoch {self.cluster.epoch} is behind the "
                        f"client's routing epoch {hello['epoch']}",
                    )
                    return
                self.pinned_epoch = hello["epoch"]
                if hello["session"] is None:
                    # Un-pinned session: mint an id this node owns so
                    # the client never bounces on its very first HELLO.
                    hello["session"] = self.cluster.local_session_id()
                elif not self.cluster.owns(hello["session"]):
                    self._redirect(hello["session"])
                    return
            future = router.submit_open(
                hello["analyses"],
                name=hello["name"],
                packed=hello["packed"],
                session_id=hello["session"],
                resume=hello["resume"],
                lenient=hello["lenient"],
            )

            def finish() -> None:
                info = future.result()
                self.session_id = info["session"]
                info["protocol"] = protocol.PROTOCOL
                self._send(FrameType.OK, info)

            self._pending = ([future], finish)
            return
        if ftype == FrameType.STATS:
            pairs = router.submit_stats()

            def finish() -> None:
                stats = router.finish_stats(pairs)
                # The router stamps the version; keep the guarantee
                # even for router doubles that predate repro-stats/1.
                stats.setdefault("schema", STATS_SCHEMA)
                stats["server"] = self._counters()
                if self.cluster is not None:
                    stats["cluster"] = self.cluster.stats()
                self._send(FrameType.OK, {"stats": stats})

            self._pending = ([future for _shard, future in pairs], finish)
            return
        if self.session_id is None:
            self._error("no-session", "send HELLO first")
            return
        if self._behind(self.pinned_epoch):
            # Defense in depth: epochs are monotone, so after an
            # accepted HELLO this node should never test behind its
            # pin — but the pin is the wire contract (no shard-bound
            # frame may be served under an epoch older than the one
            # the client routed by), so enforce it on every frame.
            self._fenced(
                self.session_id,
                f"node epoch {self.cluster.epoch} fell behind the "
                f"connection's pinned epoch {self.pinned_epoch}",
            )
            return
        if self.cluster is not None and not self.cluster.owns(self.session_id):
            # Ownership moved mid-stream (a node joined and the session
            # migrated away): bounce the client to the new owner, which
            # resumes from the migrated checkpoint.
            self._redirect(self.session_id)
            return
        if ftype == FrameType.EVENTS:
            events, base = protocol.decode_events_ex(payload, self.delta)
            queued = router.feed(self.session_id, events, base=base)
            action = fire("server.events", key=self.session_id)
            if action is not None and action.op == "duplicate":
                # At-least-once delivery: the same decoded batch lands
                # twice, and the session drops the positioned overlap.
                router.feed(self.session_id, events, base=base)
            self._send(FrameType.OK, {"queued": queued})
        elif ftype == FrameType.FLUSH:
            future = router.submit_flush(self.session_id)

            def finish() -> None:
                info = future.result()
                if info["error"] is not None:
                    log.error(
                        "flush surfaced session error %s code=%s: %s",
                        self._where(), info.get("error_code"), info["error"],
                    )
                    self._error(
                        info.get("error_code") or "session", info["error"]
                    )
                elif info["findings"]:
                    self._send(FrameType.VIOLATION, info)
                else:
                    self._send(FrameType.OK, info)

            self._pending = ([future], finish)
        elif ftype == FrameType.CHECKPOINT:
            future = router.submit_checkpoint(self.session_id)
            self._pending = (
                [future],
                lambda: self._send(FrameType.OK, future.result()),
            )
        elif ftype == FrameType.CLOSE:
            future = router.submit_close(self.session_id)
            closing_id = self.session_id

            def finish() -> None:
                info = future.result()
                self.session_id = None
                if self.cluster is not None:
                    # Queue the successor's replica-drop notice so a
                    # finished session can never be resurrected by a
                    # later failover adoption.
                    self.cluster.session_closed(closing_id)
                self._send(FrameType.REPORT, info)

            self._pending = ([future], finish)
        else:
            self._error("bad-frame", f"unexpected frame type {ftype}")
