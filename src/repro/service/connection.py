"""The sans-IO per-connection protocol state machine.

:class:`WireConnection` is the one copy of ``repro-wire/1`` server
semantics — HELLO/EVENTS/FLUSH/CHECKPOINT/CLOSE/STATS dispatch, the
typed error-to-``ERROR``-frame mapping, and the ``wire.reply`` /
``server.events`` fault sites. It never touches a socket: bytes go in
through :meth:`WireConnection.receive_bytes`, encoded reply frames
come out through :attr:`WireConnection.outbox`, and every shard
command is a direct router call answered before :meth:`pump` moves
on. That inversion is what lets the ``selectors`` event loop in
:mod:`repro.service.server` hold thousands of connections on one
thread, and lets tests drive the protocol without a socket.

The driving contract::

    wire.receive_bytes(chunk)          # as bytes arrive
    wire.pump()                        # advance the state machine
    # then write wire.outbox and read more bytes; if wire.more is
    # set, frames are still buffered: pump() again after serving
    # other sockets
    # wire.reset             -> drop the socket, sending nothing
    # wire.close_after_send  -> close once outbox is flushed

A connection is *strict request/response* (every client frame earns
exactly one reply); pipelined frames queue inside the decoder until
the loop pumps them.
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

#: The pacing hint a ``BUSY`` reply carries (milliseconds).
BUSY_RETRY_MS = 50


class WireConnection:
    """One client connection's protocol state, free of I/O.

    Args:
        router: The shard router every command is called on.
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
        #: Delta-events name tables of the bound session; every accepted
        #: HELLO replaces them, matching the client's per-session encoder.
        self.delta = protocol.DeltaDecoder()
        #: Stream position past the last batch handed to the router.
        self._next_base = 0
        #: Outbound frame encoder (reply accounting).
        self.encoder = protocol.FrameEncoder()
        #: Encoded reply frames awaiting transport write.
        self.outbox: List[bytes] = []
        #: Close the transport once :attr:`outbox` is flushed.
        self.close_after_send = False
        #: Drop the transport NOW, without writing (injected reset).
        self.reset = False
        #: The last :meth:`pump` stopped after an EVENTS frame with more
        #: bytes buffered: pump again without waiting for a read.
        self.more = False

    # -- transport-facing ---------------------------------------------------

    @property
    def closing(self) -> bool:
        return self.reset or self.close_after_send

    def receive_bytes(self, data) -> None:
        """Feed one received chunk (any bytes-like, any split)."""
        self.frames.feed(data)

    def pump(self) -> None:
        """Advance: decode and dispatch buffered frames, stopping after
        the first EVENTS frame.

        Afterwards flush :attr:`outbox` and read more bytes; if
        :attr:`more` is set, pump again first. Never raises: every
        failure becomes a reply frame and/or a close flag.
        """
        self.more = False
        while not self.closing:
            try:
                frame = self.frames.next_frame()
            except protocol.WireError as error:
                self.on_wire_error(error)
                return
            if frame is None:
                return
            ftype, payload = frame
            self._guard(ftype, payload)
            if ftype == FrameType.EVENTS and self.frames.buffered:
                # The shard has just fed the batch on the loop thread:
                # let other connections in before the next frame a
                # pipelining client has buffered here, so one turn of
                # the loop feeds at most one frame of it.
                self.more = True
                return

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

    def _guard(self, ftype: int, payload: bytes) -> None:
        """Dispatch one frame under the shared typed-error mapping —
        the single place wire semantics assign blame."""
        try:
            self._dispatch(ftype, payload)
        except protocol.WireError as error:
            self.on_wire_error(error)
        except BusyError:
            self._count("busy_replies")
            self._send(FrameType.BUSY, {"retry_ms": BUSY_RETRY_MS})
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
        HANDOFF with a live session is a router import (one thaw), a
        replica HANDOFF is one spool write.
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
                info = self.router.import_session(session_id, blob)
                cluster.note_import(len(blob))
                self._send(FrameType.OWNED, info)
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
            info = router.open_session(
                hello["analyses"],
                name=hello["name"],
                session_id=hello["session"],
                resume=hello["resume"],
                lenient=hello["lenient"],
            )
            self.session_id = info["session"]
            self.delta = protocol.DeltaDecoder()
            self._next_base = 0
            info["protocol"] = protocol.PROTOCOL
            self._send(FrameType.OK, info)
            return
        if ftype == FrameType.STATS:
            stats = router.stats()
            # The router stamps the version; keep the guarantee even
            # for router doubles that predate repro-stats/1.
            stats.setdefault("schema", STATS_SCHEMA)
            stats["server"] = self._counters()
            if self.cluster is not None:
                stats["cluster"] = self.cluster.stats()
            self._send(FrameType.OK, {"stats": stats})
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
            batch, base = protocol.decode_events_ex(payload, self.delta)
            if base < self._next_base:
                # The client re-sends from an earlier position: a resync
                # after the session fell behind, say restored from its
                # spool across a shard restart, and lost the names of the
                # batches it lost. Send every name, from 0.
                batch = self.delta.whole(batch)
            queued = router.feed(self.session_id, batch, base=base)
            self._next_base = max(self._next_base, base + len(batch))
            action = fire("server.events", key=self.session_id)
            if action is not None and action.op == "duplicate":
                # At-least-once delivery: the same decoded batch lands
                # twice, and the session drops the positioned overlap.
                router.feed(self.session_id, batch, base=base)
            self._send(FrameType.OK, {"queued": queued})
        elif ftype == FrameType.FLUSH:
            info = router.flush(self.session_id)
            if info["error"] is not None:
                log.error(
                    "flush surfaced session error %s code=%s: %s",
                    self._where(), info.get("error_code"), info["error"],
                )
                self._error(info.get("error_code") or "session", info["error"])
            elif info["findings"]:
                self._send(FrameType.VIOLATION, info)
            else:
                self._send(FrameType.OK, info)
        elif ftype == FrameType.CHECKPOINT:
            self._send(FrameType.OK, router.checkpoint(self.session_id))
        elif ftype == FrameType.CLOSE:
            info = router.close(self.session_id)
            closing_id, self.session_id = self.session_id, None
            if self.cluster is not None:
                # Queue the successor's replica-drop notice so a
                # finished session can never be resurrected by a later
                # failover adoption.
                self.cluster.session_closed(closing_id)
            self._send(FrameType.REPORT, info)
        else:
            self._error("bad-frame", f"unexpected frame type {ftype}")
