"""Sharded session routing — the multi-tenant core of the service.

The sharding discipline follows the "Is Parallel Programming Hard"
survey's data-ownership pattern: **partition by session, share nothing
across shards, serialize only at the ingest frame boundary.** Every
session hashes (stable CRC32 of its id) to exactly one shard; a shard
owns its sessions' entire analysis state and is driven by exactly one
owner at a time, so checker state is never shared.

A shard runs **on the calling thread** — in ``repro serve`` that is
the event loop — under one lock per shard: every command is a direct
call that returns its reply or raises its typed error, and ``feed``
applies the batch before it returns. Under the GIL a shard thread or
process would add a hand-off per command, not parallelism; scale-out
is cluster mode, one loop per node. Other threads (cluster gossip,
``/metrics``, recovery) serialize on the shard's lock.

A batch's processing error is parked on the session (an injected
shard crash on the shard) and surfaced at the next synchronous command
(flush, close).
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.snapshot import CheckpointError, freeze, thaw
from ..obs import tracing
from ..obs.metrics import STATS_SCHEMA, MetricsRegistry
from ..faults.injector import fire
from ..faults.plan import ShardCrash
from ..trace.packed import DeltaBatch
from .recovery import (
    RecoveryError,
    RecoveryManager,
    SessionCheckpoint,
    checkpoint_session,
    restore_session,
)
from .session import StreamingSession

#: Service-wide logger. Every message that concerns a tenant carries
#: ``session=<id> shard=<n>`` so partial failures keep attribution.
log = logging.getLogger("repro.service")


class RouterError(RuntimeError):
    """A shard command failed (the message carries the worker error)."""


class BusyError(RouterError):
    """Backpressure: the router refused a batch for now (the
    ``shard.inbox`` stall fault); retry after a pause. The server
    answers it with a ``BUSY`` frame."""


class SessionNotFound(RouterError):
    """The session id is not open on its shard."""


class SessionQuarantined(RouterError):
    """The session was poisoned (an analysis raised, a gap was
    detected, …) and isolated; its shard and sibling tenants are fine.
    ``code`` is the machine-readable failure class."""

    def __init__(self, message: str, code: str = "quarantined") -> None:
        super().__init__(message)
        self.code = code


class ShardCrashed(RouterError):
    """The session's shard worker died mid-command. Its state is gone;
    the router restarts the shard (recovering spooled sessions at their
    checkpoints) on the next command routed to it. Clients should
    resume and re-send from the server's reported position."""


class ShardWorker:
    """The per-shard state machine: sessions, stats, checkpoints.

    Driven by exactly one owner at a time: its shard's lock, held by
    whichever thread calls the shard. Nothing in here synchronizes; the
    owner does.
    """

    def __init__(
        self,
        shard_id: int,
        recovery: Optional[RecoveryManager] = None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        self.shard_id = shard_id
        self.recovery = recovery
        self.checkpoint_every = checkpoint_every
        self.sessions: Dict[str, StreamingSession] = {}
        self._last_checkpoint: Dict[str, int] = {}
        self.started = time.monotonic()
        # Typed instruments (repro.obs.metrics). The registry carries
        # no locks because one owner drives the worker.
        self.metrics = MetricsRegistry()
        self.events_total = self.metrics.counter(
            "repro_shard_events_total", "Events ingested by this shard")
        self.findings_total = self.metrics.counter(
            "repro_shard_violations_total", "Findings raised on this shard")
        self.sessions_closed = self.metrics.counter(
            "repro_shard_sessions_closed_total", "Sessions closed cleanly")
        self.errors_total = self.metrics.counter(
            "repro_shard_errors_total", "Analysis/feed errors")
        self.sessions_quarantined = self.metrics.counter(
            "repro_shard_sessions_quarantined_total",
            "Sessions poison-isolated")
        self.events_dropped = self.metrics.counter(
            "repro_shard_events_dropped_total",
            "Events discarded after quarantine")
        self.checkpoint_failures = self.metrics.counter(
            "repro_shard_checkpoint_failures_total",
            "Checkpoint writes that failed")
        self.lenient_restarts = self.metrics.counter(
            "repro_shard_lenient_restarts_total",
            "Sessions restarted from zero under lenient recovery")
        self.checkpoint_lag = self.metrics.histogram(
            "repro_shard_checkpoint_lag",
            "Events between consecutive checkpoints")
        #: Findings per tenant session — the per-tenant violation counts
        #: surfaced on the stats doc and the prom exposition.
        self.tenant_violations: Dict[str, int] = {}

    # -- command handlers (dispatched by name) -----------------------------

    def _session(self, session_id: str) -> StreamingSession:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise SessionNotFound(
                f"session {session_id!r} is not open on shard {self.shard_id}"
            ) from None

    def do_open(
        self,
        session_id: str,
        analyses: Sequence[Tuple[str, Dict[str, Any]]],
        name: str,
        resume: bool,
        lenient: bool = False,
    ) -> Dict[str, Any]:
        if session_id in self.sessions:
            if resume:  # live on this shard — nothing to restore
                session = self.sessions[session_id]
                return {
                    "session": session_id,
                    "position": session.position,
                    "resumed": True,
                }
            raise RouterError(f"session {session_id!r} already open")
        resumed = False
        restarted = False
        if resume:
            if self.recovery is None and not lenient:
                raise RouterError("cannot resume: server has no spool")
            try:
                if self.recovery is None:
                    raise RecoveryError("server has no spool")
                session = self.recovery.load(session_id)
                resumed = True
            except RecoveryError:
                # Lenient resume (the cluster failover path): nothing
                # resumable here — no live session, no spool entry, no
                # shipped replica — so open fresh at position 0 and let
                # the client rewind and re-send; positioned frames make
                # the replay idempotent. Never silent: counted, logged,
                # and flagged in the reply so clients can surface it.
                if not lenient:
                    raise
                restarted = True
                self.lenient_restarts.inc()
                log.warning(
                    "lenient resume restarted from zero session=%s "
                    "shard=%d: nothing recoverable here",
                    session_id, self.shard_id,
                )
                session = StreamingSession(session_id, analyses, name=name)
        else:
            session = StreamingSession(session_id, analyses, name=name)
        self.sessions[session_id] = session
        self._last_checkpoint[session_id] = session.position
        if self.recovery is not None and not resumed:
            # Spool at position 0 so a crash before the first periodic
            # checkpoint still leaves the session recoverable.
            self.recovery.save(session)
        return {
            "session": session_id,
            "position": session.position,
            "resumed": resumed,
            "restarted": restarted,
        }

    def do_events(
        self,
        session_id: str,
        events: DeltaBatch,
        base: Optional[int] = None,
    ) -> None:
        session = self._session(session_id)
        if session.quarantined:
            # Poisoned: count and drop until the client sees the error.
            session.dropped += len(events)
            self.events_dropped.inc(len(events))
            return
        action = fire("shard.batch", key=session_id)
        if action is not None and action.op == "crash":
            raise ShardCrash(
                f"[injected] shard {self.shard_id} crashed processing a "
                f"batch of session {session_id!r}"
            )
        try:
            with tracing.span(
                "shard.dispatch",
                shard=self.shard_id,
                session=session_id,
                events=len(events),
            ):
                found = session.feed(events, base=base)
            if found:
                self.findings_total.inc(found)
                self.tenant_violations[session_id] = (
                    self.tenant_violations.get(session_id, 0) + found
                )
            self.events_total.inc(len(events))
        except Exception as exc:
            # Quarantine the one tenant; the shard and its sibling
            # sessions keep running.
            session.quarantine("analysis", f"{type(exc).__name__}: {exc}")
            self.sessions_quarantined.inc()
            self.errors_total.inc()
            log.error(
                "analysis failure quarantined session=%s shard=%d "
                "position=%d: %s",
                session_id, self.shard_id, session.position, exc,
            )
            return
        interval = self.checkpoint_every
        if (
            self.recovery is not None
            and interval
            and session.position - self._last_checkpoint[session_id] >= interval
        ):
            lag = session.position - self._last_checkpoint[session_id]
            try:
                with tracing.span(
                    "shard.checkpoint",
                    shard=self.shard_id,
                    session=session_id,
                    position=session.position,
                ):
                    self.recovery.save(session)
            except (RecoveryError, CheckpointError) as exc:
                # A failed periodic checkpoint degrades durability, not
                # the live session — log it, count it, keep analyzing.
                self.checkpoint_failures.inc()
                log.warning(
                    "checkpoint failed session=%s shard=%d position=%d: %s",
                    session_id, self.shard_id, session.position, exc,
                )
            else:
                self.checkpoint_lag.observe(lag)
                self._last_checkpoint[session_id] = session.position

    def do_flush(self, session_id: str) -> Dict[str, Any]:
        session = self._session(session_id)
        return {
            "position": session.position,
            "findings": session.drain_findings(),
            "findings_total": session.findings_total,
            "error": session.error,
            "error_code": session.error_code,
            "out_of_sync": session.out_of_sync,
        }

    def do_checkpoint(self, session_id: str) -> Dict[str, Any]:
        session = self._session(session_id)
        if self.recovery is None:
            raise RouterError("server has no checkpoint spool (--spool)")
        checkpoint = self.recovery.save(session)
        self._last_checkpoint[session_id] = session.position
        return {"position": checkpoint.position, "bytes": len(checkpoint)}

    def do_close(self, session_id: str) -> Dict[str, Any]:
        session = self._session(session_id)
        if session.quarantined:
            code = session.error_code or "quarantined"
            error = session.error
            position = session.quarantined_at
            dropped = session.dropped
            self._drop(session_id)
            log.error(
                "closing quarantined session=%s shard=%d code=%s "
                "quarantined_at=%s dropped=%d: %s",
                session_id, self.shard_id, code, position, dropped, error,
            )
            raise SessionQuarantined(
                f"session quarantined at position {position} "
                f"({dropped} later events dropped): {error}",
                code=code,
            )
        if session.out_of_sync:
            # Events were lost (e.g. across a shard restart) and the
            # client never re-sent them: refuse to emit a report that
            # silently covers a shorter stream.
            raise RouterError(
                f"session {session_id!r} is out of sync at position "
                f"{session.position}; re-send from there before CLOSE"
            )
        session.finish()
        # Drain first: the report reuses the text of every finding the
        # drains rendered.
        findings = session.drain_findings()
        report = session.report()
        self._drop(session_id)
        self.sessions_closed.inc()
        return {"report": report, "findings": findings}

    def _drop(self, session_id: str) -> None:
        self.sessions.pop(session_id, None)
        self._last_checkpoint.pop(session_id, None)
        if self.recovery is not None:
            self.recovery.delete(session_id)

    # -- cluster migration commands ----------------------------------------

    def do_list(self) -> List[Dict[str, Any]]:
        """Open sessions on this shard: id, position, health."""
        return [
            {
                "session": session_id,
                "position": session.position,
                "quarantined": session.quarantined,
            }
            for session_id, session in sorted(self.sessions.items())
        ]

    def _freeze_session(self, session_id: str) -> Dict[str, Any]:
        session = self._session(session_id)
        if session.quarantined:
            raise RouterError(
                f"cannot export quarantined session {session_id!r}"
            )
        checkpoint = checkpoint_session(session)
        blob = freeze(checkpoint, what=f"handoff of {session_id}")
        return {
            "meta": {
                "session": session_id,
                "name": checkpoint.name,
                "analyses": list(checkpoint.analyses),
                "position": checkpoint.position,
            },
            "blob": blob,
        }

    def do_export(self, session_id: str) -> Dict[str, Any]:
        """Freeze a session for handoff and drop it locally.

        The returned blob is the exact frozen :class:`SessionCheckpoint`
        a spool entry stores; the receiving shard's :meth:`do_import`
        (or its spool, via ``save_payload``) adopts it verbatim. The
        local copy — live session and spool entry — is released, so
        ownership moves, never forks.
        """
        out = self._freeze_session(session_id)
        self._drop(session_id)
        return out

    def do_export_copy(self, session_id: str) -> Dict[str, Any]:
        """Freeze a session for replication; the original keeps running."""
        return self._freeze_session(session_id)

    def do_import(self, blob: bytes) -> Dict[str, Any]:
        """Adopt a handed-off session from its frozen checkpoint.

        Conflict rule: if the session is already open here, the copy
        with the **higher position** wins (an at-least-once handoff can
        deliver a stale duplicate; never move a session backwards).
        """
        checkpoint = thaw(blob, what="handoff payload")
        if not isinstance(checkpoint, SessionCheckpoint):
            raise RouterError("handoff payload is not a session checkpoint")
        session_id = checkpoint.session_id
        current = self.sessions.get(session_id)
        if current is not None and current.position >= checkpoint.position:
            return {
                "session": session_id,
                "position": current.position,
                "imported": False,
            }
        session = restore_session(checkpoint)
        self.sessions[session_id] = session
        self._last_checkpoint[session_id] = session.position
        if self.recovery is not None:
            self.recovery.save_payload(session_id, blob)
        return {
            "session": session_id,
            "position": session.position,
            "imported": True,
        }

    def do_stats(self) -> Dict[str, Any]:
        elapsed = max(time.monotonic() - self.started, 1e-9)
        checkpoint_lag = 0
        for session_id, session in self.sessions.items():
            behind = session.position - self._last_checkpoint.get(
                session_id, 0
            )
            if behind > checkpoint_lag:
                checkpoint_lag = behind
        return {
            "shard": self.shard_id,
            "sessions_open": len(self.sessions),
            "sessions_closed": self.sessions_closed.value,
            "sessions_quarantined": self.sessions_quarantined.value,
            "events": self.events_total.value,
            "events_dropped": self.events_dropped.value,
            "events_per_second": self.events_total.value / elapsed,
            "violations": self.findings_total.value,
            "errors": self.errors_total.value,
            "checkpoint_failures": self.checkpoint_failures.value,
            "lenient_restarts": self.lenient_restarts.value,
            "uptime_seconds": elapsed,
            "checkpoint_lag": checkpoint_lag,
            "checkpoint_lag_histogram": self.checkpoint_lag.to_json(),
            "tenant_violations": dict(self.tenant_violations),
            # repro-stats/1 keeps its shape: every shard runs on the
            # calling thread and nothing queues in front of it.
            "queue_depth": 0,
            "workers": "thread",
        }


class _LoopShard:
    """A shard run inline on the calling thread.

    The server's event loop owns it: :meth:`call` runs the command at
    once under the shard's lock, so an EVENTS batch is applied before
    its ``OK`` and a FLUSH is answered in the same loop turn. Blocking
    callers on other threads (cluster gossip, ``/metrics``, recovery)
    serialize on the lock. Nothing ever queues here: backpressure is the
    connection's TCP window.
    """

    def __init__(
        self,
        shard_id: int,
        recovery: Optional[RecoveryManager],
        checkpoint_every: Optional[int],
    ) -> None:
        self.shard_id = shard_id
        self._worker = ShardWorker(shard_id, recovery, checkpoint_every)
        self._lock = threading.Lock()
        self._dead: Optional[str] = None

    def alive(self) -> bool:
        return self._dead is None

    def call(self, command: Callable[..., Any], *args: Any) -> Any:
        """Run ``command(worker, *args)`` now and return its reply.

        Raises the worker's :class:`RouterError` family as is; any
        other failure becomes a :class:`RouterError` carrying its
        message. Both count in ``errors_total``. An injected
        :class:`ShardCrash` kills the shard: :class:`ShardCrashed`.
        """
        with self._lock:
            if self._dead is not None:
                raise ShardCrashed(
                    f"shard {self.shard_id} is down ({self._dead})"
                )
            try:
                return command(self._worker, *args)
            except ShardCrash as exc:
                # The worker died mid-command: its state is gone, and
                # the router restarts the shard from the spool on the
                # next command routed here.
                self._dead = f"{type(exc).__name__}: {exc}"
                log.error(
                    "shard worker died shard=%d: %s", self.shard_id, self._dead
                )
                raise ShardCrashed(str(exc)) from None
            except RouterError:
                self._worker.errors_total.inc()
                raise
            except Exception as exc:
                self._worker.errors_total.inc()
                raise RouterError(str(exc)) from exc

    def stop(self) -> None:
        with self._lock:
            if self._dead is None:
                self._dead = "stopped"




@dataclass
class RouterStats:
    """One aggregated ``stats()`` snapshot."""

    shards: List[Dict[str, Any]] = field(default_factory=list)
    restarts: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "sessions_open": sum(s["sessions_open"] for s in self.shards),
            "sessions_closed": sum(s["sessions_closed"] for s in self.shards),
            "sessions_quarantined": sum(
                s.get("sessions_quarantined", 0) for s in self.shards
            ),
            "events": sum(s["events"] for s in self.shards),
            "events_dropped": sum(
                s.get("events_dropped", 0) for s in self.shards
            ),
            "violations": sum(s["violations"] for s in self.shards),
            "errors": sum(s["errors"] for s in self.shards),
            "checkpoint_failures": sum(
                s.get("checkpoint_failures", 0) for s in self.shards
            ),
            "lenient_restarts": sum(
                s.get("lenient_restarts", 0) for s in self.shards
            ),
            "shard_restarts": self.restarts,
            # repro-stats/1 keeps its shape: the router sheds no tenant.
            "shed": 0,
            "uptime_seconds": max(
                (s.get("uptime_seconds", 0.0) for s in self.shards),
                default=0.0,
            ),
        }


class Router:
    """Hash sessions onto share-nothing shards and speak to them.

    Args:
        shards: Shard count.
        recovery: Spool manager for checkpointed recovery, or ``None``.
        checkpoint_every: Auto-checkpoint a session every N ingested
            events (requires ``recovery``).
    """

    def __init__(
        self,
        shards: int = 1,
        recovery: Optional[RecoveryManager] = None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("router needs at least one shard")
        self.recovery = recovery
        self._checkpoint_every = checkpoint_every
        self._shards = [self._new_shard(i) for i in range(shards)]
        self._restart_lock = threading.Lock()
        #: Times a dead shard worker was replaced with a fresh one.
        self.restarts = 0
        #: Spool entries quarantined while re-opening spooled sessions
        #: (:meth:`recover`, shard restarts): the salvage report.
        self.salvaged: List[Dict[str, str]] = []
        self._closed = False

    def _new_shard(self, idx: int) -> _LoopShard:
        return _LoopShard(idx, self.recovery, self._checkpoint_every)

    # -- routing -----------------------------------------------------------

    def shard_of(self, session_id: str) -> int:
        """Stable shard index for a session id (CRC32 mod shards)."""
        return zlib.crc32(session_id.encode("utf-8")) % len(self._shards)

    def _shard_at(self, idx: int) -> _LoopShard:
        """The shard at ``idx``, restarting it first if its worker died.

        A crashed worker takes its sessions' live state with it; the
        replacement re-opens that shard's spooled sessions at their
        checkpoints, so positioned clients can resync by flushing and
        re-sending from the reported position. Without a spool the
        sessions are simply gone (clients get SessionNotFound).
        """
        shard = self._shards[idx]
        if shard.alive() or self._closed:
            return shard
        with self._restart_lock:
            shard = self._shards[idx]
            if shard.alive():
                return shard
            log.error("restarting dead shard=%d", idx)
            shard = self._new_shard(idx)
            self._shards[idx] = shard
            self.restarts += 1
            if self.recovery is not None:
                self._reopen_spooled(idx)
            return shard

    def _shard(self, session_id: str) -> _LoopShard:
        return self._shard_at(self.shard_of(session_id))

    def _reopen_spooled(self, only: Optional[int] = None) -> List[str]:
        """Re-open the spooled sessions of shard ``only`` (every shard
        when ``None``) at their checkpoints; returns the re-opened ids.

        Best-effort per entry: a corrupt, truncated, or unthawable
        spool file is quarantined to ``*.bad`` and recorded in
        :attr:`salvaged`, so one bad entry never blocks its healthy
        siblings.
        """
        ids, salvage = self.recovery.scan()
        for path, reason in salvage:
            quarantined = self.recovery.quarantine_path(path)
            log.error("salvaged corrupt spool entry %s: %s", path.name, reason)
            self.salvaged.append({"file": str(quarantined), "reason": reason})
        reopened = []
        for session_id in ids:
            idx = self.shard_of(session_id)
            if only is not None and idx != only:
                continue
            try:
                info = self._shards[idx].call(
                    ShardWorker.do_open, session_id, [], "stream", True
                )
            except RouterError as exc:
                if only is None:
                    log.error(
                        "salvaged unrecoverable session=%s shard=%d: %s",
                        session_id, idx, exc,
                    )
                else:
                    log.error(
                        "could not re-open spooled session=%s shard=%d "
                        "after restart: %s",
                        session_id, idx, exc,
                    )
                quarantined = self.recovery.quarantine(session_id)
                self.salvaged.append(
                    {"file": str(quarantined), "reason": str(exc)}
                )
                continue
            reopened.append(info["session"])
        return reopened

    # -- the service surface ----------------------------------------------

    def open_session(
        self,
        analyses: Sequence[Tuple[str, Dict[str, Any]]],
        name: str = "stream",
        session_id: Optional[str] = None,
        resume: bool = False,
        lenient: bool = False,
    ) -> Dict[str, Any]:
        """Open (or resume) a session; returns id/position/resumed."""
        session_id = session_id or uuid.uuid4().hex
        return self._shard(session_id).call(
            ShardWorker.do_open, session_id, list(analyses), name, resume,
            lenient,
        )

    def feed(
        self,
        session_id: str,
        events: DeltaBatch,
        base: Optional[int] = None,
    ) -> int:
        """Apply one batch; returns its length.

        ``base`` is the stream position the batch claims to start at
        (from a positioned EVENTS frame); the session drops overlap and
        flags gaps, making at-least-once delivery idempotent.

        A failure is parked, not raised: on the session (an unknown
        session, an analysis error) or, for an injected crash, on the
        shard. The next FLUSH or CLOSE surfaces it.
        """
        action = fire("shard.inbox", key=session_id)
        if action is not None and action.op == "stall":
            # The site keeps its historical name: a stalled shard
            # surfaces as backpressure (BUSY on the wire).
            raise BusyError(
                f"[injected] shard {self.shard_of(session_id)} inbox stalled"
            )
        try:
            self._shard(session_id).call(
                ShardWorker.do_events, session_id, events, base
            )
        except RouterError:
            pass  # counted on the shard; surfaces at the next barrier
        return len(events)

    def flush(self, session_id: str) -> Dict[str, Any]:
        """Barrier: return the position and the findings since the last
        flush (or the error a batch parked)."""
        return self._shard(session_id).call(ShardWorker.do_flush, session_id)

    def checkpoint(self, session_id: str) -> Dict[str, Any]:
        return self._shard(session_id).call(
            ShardWorker.do_checkpoint, session_id
        )

    def close(self, session_id: str) -> Dict[str, Any]:
        """Finish the session; returns the final report + last findings."""
        return self._shard(session_id).call(ShardWorker.do_close, session_id)

    # -- cluster migration surface -----------------------------------------

    def list_sessions(self) -> List[Dict[str, Any]]:
        """Every open session across all shards (id, position, health)."""
        rows: List[Dict[str, Any]] = []
        for idx in range(len(self._shards)):
            rows.extend(self._shard_at(idx).call(ShardWorker.do_list))
        return rows

    def export_session(self, session_id: str) -> Dict[str, Any]:
        """Checkpoint-and-drop a session for live migration; returns
        ``{"meta": ..., "blob": ...}`` (the HANDOFF frame contents)."""
        return self._shard(session_id).call(ShardWorker.do_export, session_id)

    def export_checkpoint(self, session_id: str) -> Dict[str, Any]:
        """Checkpoint a session for replication without dropping it."""
        return self._shard(session_id).call(
            ShardWorker.do_export_copy, session_id
        )

    def import_session(self, session_id: str, blob: bytes) -> Dict[str, Any]:
        """Adopt a handed-off session (higher position wins on conflict)."""
        return self._shard(session_id).call(ShardWorker.do_import, blob)

    def recover(self) -> List[str]:
        """Re-open every recoverable session spooled by a previous
        incarnation; returns their ids (see :meth:`_reopen_spooled`)."""
        if self.recovery is None:
            return []
        return self._reopen_spooled()

    def stats(self) -> Dict[str, Any]:
        """One aggregated ``repro-stats/1`` snapshot across all shards."""
        snapshot = RouterStats(restarts=self.restarts)
        for idx in range(len(self._shards)):
            snapshot.shards.append(
                self._shard_at(idx).call(ShardWorker.do_stats)
            )
        doc = snapshot.to_json()
        doc["schema"] = STATS_SCHEMA
        return doc

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.stop()

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
