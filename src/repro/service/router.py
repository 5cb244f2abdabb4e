"""Sharded session routing — the multi-tenant core of the service.

The sharding discipline follows the "Is Parallel Programming Hard"
survey's data-ownership pattern: **partition by session, share nothing
across shards, serialize only at the ingest frame boundary.** Every
session hashes (stable CRC32 of its id) to exactly one shard; a shard
owns its sessions' entire analysis state and is driven by exactly one
owner at a time, so checker state is never shared.

By default a shard runs **on the calling thread** — in ``repro serve``
that is the event loop — under one lock per shard: ``feed`` applies
the batch before it returns, and control commands return settled
futures. Under the GIL a shard thread adds no parallelism, only a
queue hop and a thread switch per command. Other threads (cluster
gossip, ``/metrics``, recovery) serialize on the shard's lock.

``workers="process"`` runs every shard as its own OS process (driven
through bounded multiprocessing queues, with the start method chosen
the way :mod:`repro.api.parallel` chooses it — fork preferred so
interner tables and code are inherited copy-on-write), giving parallel
ingest across shards and a crash domain per shard. Only process shards
have an inbox: a full one raises :class:`BusyError` and the server
answers the client with a ``BUSY`` frame instead of buffering
unboundedly. Their event batches are pipelined: ``feed`` returns once
the batch is enqueued, and their replies resolve futures on a
collector thread.

On both kinds a batch's processing error is parked on the session and
surfaced at the next synchronous command (flush, close).
"""

from __future__ import annotations

import logging
import queue
import threading
import time
import uuid
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

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

#: Default bound of each process shard's inbox queue (batches, not events).
DEFAULT_QUEUE_SIZE = 64

#: Seconds a control command may wait to *enqueue* before BusyError.
#: Only the enqueue is retryable — once a command is in a shard's
#: inbox it WILL execute, so timing out on the reply must never be
#: reported as BUSY (a client would retry a non-idempotent command).
CONTROL_TIMEOUT = 30.0

#: Seconds to wait for an enqueued control command's reply before
#: failing hard (RouterError, not BUSY): long enough to drain a full
#: inbox of event batches ahead of a CLOSE barrier.
REPLY_TIMEOUT = 600.0

#: Seconds a process shard waits on its inbox between checks that the
#: server that forked it is still alive.
PARENT_POLL = 0.5


class RouterError(RuntimeError):
    """A shard command failed (the message carries the worker error)."""


class BusyError(RouterError):
    """A process shard's inbox is full (or a tenant is over its
    inflight quota) — backpressure; retry after a pause.

    ``retry_ms`` is the server's pacing hint: how long the client
    should wait before retrying (rides the BUSY frame). ``shed`` marks
    a per-tenant quota rejection as opposed to a full shard inbox.
    """

    def __init__(
        self, message: str, retry_ms: Optional[int] = None, shed: bool = False
    ) -> None:
        super().__init__(message)
        self.retry_ms = retry_ms
        self.shed = shed


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
    """The session's shard worker died mid-flight. Queued batches were
    lost; the router restarts the shard (recovering spooled sessions at
    their checkpoints) on the next command routed to it. Clients should
    resume and re-send from the server's reported position."""


class _Future:
    """A one-shot reply slot for shard commands.

    Blocking callers :meth:`wait`; the server's event loop instead
    :meth:`subscribe`\\ s a callback (fired from the resolving thread —
    subscribers must be thread-safe, e.g. poke a wakeup pipe) and later
    reads :meth:`result` without ever blocking. An in-loop shard hands
    out futures that are resolved at birth (:meth:`settled`): they carry
    no ``Event`` or lock, and subscribing to one runs the callback at
    once.
    """

    __slots__ = ("_event", "_lock", "_callback", "value", "error")

    def __init__(self) -> None:
        self._event: Optional[threading.Event] = threading.Event()
        self._lock = threading.Lock()
        self._callback = None
        self.value: Any = None
        self.error: Optional[Tuple[str, str]] = None  # (kind, message)

    @classmethod
    def settled(cls, ok: bool, value: Any) -> "_Future":
        """A future already resolved to ``value`` (``ok``) or failed
        with the ``(kind, message)`` pair ``value``."""
        future = cls.__new__(cls)
        future._event = future._lock = future._callback = None
        future.value, future.error = (value, None) if ok else (None, value)
        return future

    def _fire(self) -> None:
        self._event.set()
        with self._lock:
            callback, self._callback = self._callback, None
        if callback is not None:
            callback(self)

    def resolve(self, value: Any) -> None:
        self.value = value
        self._fire()

    def fail(self, kind: str, message: str) -> None:
        self.error = (kind, message)
        self._fire()

    def done(self) -> bool:
        return self._event is None or self._event.is_set()

    def subscribe(self, callback) -> None:
        """Run ``callback(self)`` once resolved (immediately if it
        already is). At most one subscriber; runs on the resolver's
        thread."""
        if self._event is not None:
            with self._lock:
                if not self._event.is_set():
                    self._callback = callback
                    return
        callback(self)

    def result(self) -> Any:
        """The reply of a completed future, raising its typed error.

        Only call after :meth:`done` is true (or from a subscriber).
        """
        if not self.done():
            raise RouterError("future is not resolved yet")
        if self.error is not None:
            kind, message = self.error
            if kind == "SessionNotFound":
                raise SessionNotFound(message)
            if kind == "SessionQuarantined":
                code, _, detail = message.partition("|")
                raise SessionQuarantined(detail or message, code=code)
            if kind == "ShardCrashed":
                raise ShardCrashed(message)
            raise RouterError(message)
        return self.value

    def join(self, timeout: float) -> None:
        """Block until resolved, without raising the reply's error.

        Raises:
            RouterError: If the shard does not answer in time. The
                command is already enqueued and will run; a BUSY here
                would make the client re-send it, so fail hard instead.
        """
        if self._event is not None and not self._event.wait(timeout):
            raise RouterError(
                f"shard did not answer within {timeout:.0f}s"
            )

    def wait(self, timeout: float) -> Any:
        self.join(timeout)
        return self.result()


class ShardWorker:
    """The per-shard state machine: sessions, stats, checkpoints.

    Driven by exactly one owner at a time: under its shard's lock on
    whichever thread calls an in-loop shard, or by the one loop of a
    process shard. Nothing in here synchronizes; the owner does.
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
        # Typed instruments (repro.obs.metrics). The registry is plain
        # picklable state — a process shard ships the whole worker —
        # and carries no locks because one driver owns the worker.
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
        }

    def handle(self, op: str, args: tuple) -> Any:
        return getattr(self, f"do_{op}")(*args)


def _execute(worker: ShardWorker, op: str, args: tuple) -> Tuple[bool, Any]:
    """Run one command: ``(True, value)``, or ``(False, (kind,
    message))`` for a failure the reply carries. An injected
    :class:`ShardCrash` (a ``BaseException``) escapes: the worker is
    dead."""
    try:
        return True, worker.handle(op, args)
    except SessionQuarantined as exc:
        worker.errors_total.inc()
        # The code rides the message ("code|detail") so it survives the
        # picklable (kind, message) reply tuple process shards ship
        # over their outbox queue.
        return False, ("SessionQuarantined", f"{exc.code}|{exc}")
    except Exception as exc:
        worker.errors_total.inc()
        return False, (type(exc).__name__, str(exc))


def _drive(worker: ShardWorker, inbox, reply) -> None:
    """A process shard's loop.

    ``reply(token, ok, value_or_error)`` delivers synchronous results;
    fire-and-forget commands carry ``token=None`` and park failures on
    the session instead.
    """
    while True:
        token, op, args = inbox.get()
        if op == "stop":
            if token is not None:
                reply(token, True, None)
            return
        try:
            ok, value = _execute(worker, op, args)
        except ShardCrash as exc:
            # Injected worker death: answer the caller if one is
            # waiting, then let the exception escape the loop — the
            # process dies exactly like a real crash.
            if token is not None:
                reply(token, False, ("ShardCrashed", str(exc)))
            raise
        if token is not None:
            reply(token, ok, value)


class _LoopShard:
    """A shard run inline on the calling thread (the default).

    The server's event loop owns it: ``submit``/``call``/``cast`` run
    the command at once under the shard's lock and return an already
    settled reply, so an EVENTS batch is applied before its ``OK`` and
    a FLUSH is answered without a wake-up. Blocking callers on other
    threads (cluster gossip, ``/metrics``, recovery) serialize on the
    lock. There is no inbox, so nothing ever queues here: backpressure
    on this shard kind is the connection's TCP window.
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

    def _run(self, op: str, args: tuple) -> Tuple[bool, Any]:
        with self._lock:
            if self._dead is not None:
                raise ShardCrashed(
                    f"shard {self.shard_id} is down ({self._dead})"
                )
            try:
                return _execute(self._worker, op, args)
            except ShardCrash as exc:
                # The worker died mid-command: its state is gone, and
                # the router restarts the shard from the spool on the
                # next command routed here.
                self._dead = f"{type(exc).__name__}: {exc}"
                log.error(
                    "shard worker died shard=%d: %s", self.shard_id, self._dead
                )
                return False, ("ShardCrashed", str(exc))

    def submit(self, op: str, *args: Any) -> _Future:
        """Run the command now; its reply is a settled :class:`_Future`."""
        return _Future.settled(*self._run(op, args))

    def call(self, op: str, *args: Any) -> Any:
        return self.submit(op, *args).result()

    def cast(self, op: str, *args: Any) -> None:
        """Run the command now, dropping its reply: a failure is parked
        on the session (or, for a crash, on the shard) exactly as if
        the batch had been queued."""
        self._run(op, args)

    def queue_depth(self) -> int:
        return 0

    def stop(self) -> None:
        with self._lock:
            if self._dead is None:
                self._dead = "stopped"


class _OrphanAwareInbox:
    """A process shard's inbox that turns parent death into ``stop``.

    A server killed with SIGKILL never sends ``stop``; a shard blocked
    in a plain ``get()`` would then outlive it forever. Waiting in
    :data:`PARENT_POLL` slices and checking the parent between them
    bounds that to a few seconds.
    """

    def __init__(self, inbox, outbox) -> None:
        import multiprocessing as mp

        self._inbox = inbox
        self._outbox = outbox
        self._parent = mp.parent_process()

    def get(self) -> tuple:
        while True:
            try:
                return self._inbox.get(timeout=PARENT_POLL)
            except queue.Empty:
                if not self._parent.is_alive():
                    # Nobody drains the outbox any more: do not block
                    # process exit on flushing replies into it.
                    self._outbox.cancel_join_thread()
                    return None, "stop", ()


def _process_main(worker: ShardWorker, inbox, outbox) -> None:
    """Entry point of a process shard (must be importable for spawn)."""
    _drive(
        worker,
        _OrphanAwareInbox(inbox, outbox),
        lambda token, ok, value: outbox.put((token, ok, value)),
    )


class _ProcessShard:
    """A shard driven by its own OS process (``workers="process"``).

    Commands travel through a bounded multiprocessing inbox; replies
    come back on an outbox drained by a collector thread that resolves
    the callers' futures by token. Start-method selection mirrors
    :func:`repro.api.parallel._pick_context`: fork where the platform
    offers it, spawn otherwise (everything shipped is picklable).
    """

    def __init__(
        self,
        shard_id: int,
        queue_size: int,
        recovery: Optional[RecoveryManager],
        checkpoint_every: Optional[int],
    ) -> None:
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else None)
        self.shard_id = shard_id
        self.inbox = ctx.Queue(maxsize=queue_size)
        self._outbox = ctx.Queue()
        worker = ShardWorker(shard_id, recovery, checkpoint_every)
        self._process = ctx.Process(
            target=_process_main,
            args=(worker, self.inbox, self._outbox),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self._process.start()
        self._futures: Dict[int, _Future] = {}
        self._futures_lock = threading.Lock()
        self._next_token = 0
        self._collector = threading.Thread(
            target=self._collect, name=f"repro-shard-{shard_id}-rx", daemon=True
        )
        self._collector.start()

    def _collect(self) -> None:
        while True:
            item = self._outbox.get()
            if item is None:
                return
            token, ok, value = item
            with self._futures_lock:
                future = self._futures.pop(token, None)
            if future is None:
                continue
            if ok:
                future.resolve(value)
            else:
                future.fail(*value)

    def alive(self) -> bool:
        return self._process.is_alive()

    def _enqueue(self, op: str, args: tuple, timeout: Optional[float]) -> _Future:
        future = _Future()
        with self._futures_lock:
            token = self._next_token = self._next_token + 1
            self._futures[token] = future
        try:
            if timeout is None:
                self.inbox.put_nowait((token, op, args))
            else:
                self.inbox.put((token, op, args), timeout=timeout)
        except queue.Full:
            with self._futures_lock:
                self._futures.pop(token, None)
            raise BusyError(f"shard {self.shard_id} inbox is full") from None
        return future

    def call(self, op: str, *args: Any) -> Any:
        if not self.alive():
            raise ShardCrashed(f"shard {self.shard_id} process is down")
        return self._enqueue(op, args, CONTROL_TIMEOUT).wait(REPLY_TIMEOUT)

    def submit(self, op: str, *args: Any) -> _Future:
        """Non-blocking :meth:`call`: enqueue now (a full inbox is an
        immediate :class:`BusyError`, no CONTROL_TIMEOUT grace — event
        loops must never sleep) and return the reply :class:`_Future`.
        """
        if not self.alive():
            raise ShardCrashed(f"shard {self.shard_id} process is down")
        return self._enqueue(op, args, None)

    def cast(self, op: str, *args: Any) -> None:
        if not self.alive():
            raise ShardCrashed(f"shard {self.shard_id} process is down")
        try:
            self.inbox.put_nowait((None, op, args))
        except queue.Full:
            raise BusyError(f"shard {self.shard_id} inbox is full") from None

    def queue_depth(self) -> int:
        try:
            return self.inbox.qsize()
        except NotImplementedError:  # macOS
            return -1

    def stop(self) -> None:
        try:
            self.call("stop")
        except RouterError:
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
        self._outbox.put(None)
        self._collector.join(timeout=2.0)


@dataclass
class RouterStats:
    """One aggregated ``stats()`` snapshot."""

    shards: List[Dict[str, Any]] = field(default_factory=list)
    restarts: int = 0
    shed: int = 0

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
            "shed": self.shed,
            "uptime_seconds": max(
                (s.get("uptime_seconds", 0.0) for s in self.shards),
                default=0.0,
            ),
        }


class Router:
    """Hash sessions onto share-nothing shards and speak to them.

    Args:
        shards: Worker count (one shard per worker).
        workers: ``"thread"`` (default) or ``"process"``.
        queue_size: Bound of each process shard's inbox (batches;
            ``None`` = :data:`DEFAULT_QUEUE_SIZE`). Full inbox =
            :class:`BusyError` = a ``BUSY`` frame on the wire.
        recovery: Spool manager for checkpointed recovery, or ``None``.
        checkpoint_every: Auto-checkpoint a session every N ingested
            events (requires ``recovery``).
        tenant_quota: Max EVENTS batches one session may have inflight
            (enqueued on a process shard but not yet processed) before
            the router sheds its traffic with a paced
            :class:`BusyError` — overload isolation so one hot tenant
            cannot monopolize a shared shard inbox. ``None`` (default)
            disables the quota and its per-batch accounting entirely.

    ``queue_size`` and ``tenant_quota`` need ``workers="process"``: an
    in-loop shard has no inbox to bound.
    """

    def __init__(
        self,
        shards: int = 1,
        workers: str = "thread",
        queue_size: Optional[int] = None,
        recovery: Optional[RecoveryManager] = None,
        checkpoint_every: Optional[int] = None,
        tenant_quota: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("router needs at least one shard")
        if workers not in ("thread", "process"):
            raise ValueError(f"workers must be 'thread' or 'process', not {workers!r}")
        if workers != "process" and (
            queue_size is not None or tenant_quota is not None
        ):
            raise ValueError(
                "queue size and tenant quota need process shards: an "
                "in-loop shard has no inbox to bound"
            )
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1 (or None to disable)")
        self.workers = workers
        self.recovery = recovery
        self._queue_size = (
            DEFAULT_QUEUE_SIZE if queue_size is None else queue_size
        )
        self._checkpoint_every = checkpoint_every
        self._shards = [self._new_shard(i) for i in range(shards)]
        self.tenant_quota = tenant_quota
        #: Batches currently inflight per session (quota mode only).
        self._inflight: Dict[str, int] = {}
        self._inflight_lock = threading.Lock()
        #: Batches rejected by the per-tenant quota (the shed counter).
        self.shed_total = 0
        self._restart_lock = threading.Lock()
        #: Times a dead shard worker was replaced with a fresh one.
        self.restarts = 0
        #: Spool entries quarantined during :meth:`recover` (salvage).
        self.salvaged: List[Dict[str, str]] = []
        self._closed = False

    def _new_shard(self, idx: int):
        if self.workers == "process":
            return _ProcessShard(
                idx, self._queue_size, self.recovery, self._checkpoint_every
            )
        return _LoopShard(idx, self.recovery, self._checkpoint_every)

    # -- routing -----------------------------------------------------------

    def shard_of(self, session_id: str) -> int:
        """Stable shard index for a session id (CRC32 mod shards)."""
        return zlib.crc32(session_id.encode("utf-8")) % len(self._shards)

    def _shard_at(self, idx: int):
        """The shard at ``idx``, restarting it first if its worker died.

        A crashed worker takes its queued batches with it; the
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
            if self.tenant_quota is not None:
                # Batches queued on the dead worker are gone and their
                # futures may never fire (a killed process shard cannot
                # answer): zero this shard's tenants so they are not
                # shed forever on phantom inflight.
                with self._inflight_lock:
                    for session_id in list(self._inflight):
                        if self.shard_of(session_id) == idx:
                            del self._inflight[session_id]
            if self.recovery is not None:
                ids, salvage = self.recovery.scan()
                for path, reason in salvage:
                    quarantined = self.recovery.quarantine_path(path)
                    self.salvaged.append(
                        {"file": str(quarantined), "reason": reason}
                    )
                for session_id in ids:
                    if self.shard_of(session_id) != idx:
                        continue
                    try:
                        shard.call(
                            "open", session_id, [], "stream", True
                        )
                    except RouterError as exc:
                        log.error(
                            "could not re-open spooled session=%s shard=%d "
                            "after restart: %s",
                            session_id, idx, exc,
                        )
                        quarantined = self.recovery.quarantine(session_id)
                        self.salvaged.append(
                            {"file": str(quarantined), "reason": str(exc)}
                        )
            return shard

    def _shard(self, session_id: str):
        return self._shard_at(self.shard_of(session_id))

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
            "open", session_id, list(analyses), name, resume, lenient
        )

    def feed(
        self,
        session_id: str,
        events: DeltaBatch,
        base: Optional[int] = None,
    ) -> int:
        """Apply one batch (in-loop shards) or enqueue it (process
        shards, pipelined; :class:`BusyError` = backpressure).

        ``base`` is the stream position the batch claims to start at
        (from a positioned EVENTS frame); the session drops overlap and
        flags gaps, making at-least-once delivery idempotent.

        With a ``tenant_quota`` set (process shards only), a session
        already at its inflight cap is shed: :class:`BusyError` with
        ``shed=True`` and a ``retry_ms`` pacing hint that grows with the
        backlog.
        """
        action = fire("shard.inbox", key=session_id)
        if action is not None and action.op == "stall":
            # A stalled inbox is indistinguishable from a full one:
            # surface it as backpressure (BUSY on the wire).
            raise BusyError(
                f"[injected] shard {self.shard_of(session_id)} inbox stalled"
            )
        if self.tenant_quota is None:
            self._shard(session_id).cast("events", session_id, events, base)
            return len(events)
        with self._inflight_lock:
            inflight = self._inflight.get(session_id, 0)
            if inflight >= self.tenant_quota:
                self.shed_total += 1
                raise BusyError(
                    f"tenant {session_id!r} is over its inflight quota "
                    f"({self.tenant_quota} batches)",
                    retry_ms=min(500, 25 * (inflight + 1)),
                    shed=True,
                )
            self._inflight[session_id] = inflight + 1
        # Quota mode trades the reply-less cast for a tracked future:
        # the collector thread's subscriber decrements the tenant's
        # inflight count when the shard finishes (or fails) the batch.
        try:
            future = self._shard(session_id).submit(
                "events", session_id, events, base
            )
        except BaseException:
            self._quota_release(session_id)
            raise
        future.subscribe(lambda _f: self._quota_release(session_id))
        return len(events)

    def _quota_release(self, session_id: str) -> None:
        with self._inflight_lock:
            count = self._inflight.get(session_id)
            if count is None:
                return  # cleared by a shard restart; nothing to release
            if count <= 1:
                self._inflight.pop(session_id, None)
            else:
                self._inflight[session_id] = count - 1

    def flush(self, session_id: str) -> Dict[str, Any]:
        """Barrier: process everything queued, return position+findings."""
        return self._shard(session_id).call("flush", session_id)

    def checkpoint(self, session_id: str) -> Dict[str, Any]:
        return self._shard(session_id).call("checkpoint", session_id)

    def close(self, session_id: str) -> Dict[str, Any]:
        """Finish the session; returns the final report + last findings."""
        return self._shard(session_id).call("close", session_id)

    # -- cluster migration surface -----------------------------------------

    def list_sessions(self) -> List[Dict[str, Any]]:
        """Every open session across all shards (id, position, health)."""
        rows: List[Dict[str, Any]] = []
        for idx in range(len(self._shards)):
            rows.extend(self._shard_at(idx).call("list"))
        return rows

    def export_session(self, session_id: str) -> Dict[str, Any]:
        """Checkpoint-and-drop a session for live migration; returns
        ``{"meta": ..., "blob": ...}`` (the HANDOFF frame contents)."""
        return self._shard(session_id).call("export", session_id)

    def export_checkpoint(self, session_id: str) -> Dict[str, Any]:
        """Checkpoint a session for replication without dropping it."""
        return self._shard(session_id).call("export_copy", session_id)

    def import_session(self, session_id: str, blob: bytes) -> Dict[str, Any]:
        """Adopt a handed-off session (higher position wins on conflict)."""
        return self._shard(session_id).call("import", blob)

    # -- non-blocking surface (the server's event loop) ------------------
    #
    # Same commands, but the caller gets the reply _Future instead of a
    # blocked thread. An in-loop shard's future is settled on return;
    # for a process shard the selectors loop subscribes a wakeup
    # callback and keeps serving other connections while the shard
    # works. Full inboxes surface as an *immediate* BusyError (BUSY on
    # the wire) — an event loop has no thread to park for
    # CONTROL_TIMEOUT.

    def submit_open(
        self,
        analyses: Sequence[Tuple[str, Dict[str, Any]]],
        name: str = "stream",
        session_id: Optional[str] = None,
        resume: bool = False,
        lenient: bool = False,
    ) -> _Future:
        session_id = session_id or uuid.uuid4().hex
        return self._shard(session_id).submit(
            "open", session_id, list(analyses), name, resume, lenient
        )

    def submit_import(self, session_id: str, blob: bytes) -> _Future:
        """Non-blocking :meth:`import_session` (the server's event loop
        must never park its only thread on a shard reply)."""
        return self._shard(session_id).submit("import", blob)

    def submit_flush(self, session_id: str) -> _Future:
        return self._shard(session_id).submit("flush", session_id)

    def submit_checkpoint(self, session_id: str) -> _Future:
        return self._shard(session_id).submit("checkpoint", session_id)

    def submit_close(self, session_id: str) -> _Future:
        return self._shard(session_id).submit("close", session_id)

    def submit_stats(self) -> List[Tuple[Any, _Future]]:
        """One ``(shard, future)`` pair per shard; aggregate the rows
        with :meth:`finish_stats` once every future is done."""
        pairs = []
        for idx in range(len(self._shards)):
            shard = self._shard_at(idx)
            pairs.append((shard, shard.submit("stats")))
        return pairs

    def finish_stats(
        self, pairs: List[Tuple[Any, _Future]]
    ) -> Dict[str, Any]:
        snapshot = RouterStats(restarts=self.restarts, shed=self.shed_total)
        for shard, future in pairs:
            row = future.result()
            row["queue_depth"] = shard.queue_depth()
            row["workers"] = self.workers
            snapshot.shards.append(row)
        doc = snapshot.to_json()
        doc["schema"] = STATS_SCHEMA
        return doc

    def recover(self) -> List[str]:
        """Re-open every recoverable session spooled by a previous
        incarnation.

        Best-effort per entry: a corrupt, truncated, or unthawable
        spool file is quarantined to ``*.bad`` and recorded in
        :attr:`salvaged` — one bad entry never blocks its healthy
        siblings from recovering.
        """
        if self.recovery is None:
            return []
        recovered = []
        ids, salvage = self.recovery.scan()
        for path, reason in salvage:
            quarantined = self.recovery.quarantine_path(path)
            log.error("salvaged corrupt spool entry %s: %s", path.name, reason)
            self.salvaged.append({"file": str(quarantined), "reason": reason})
        for session_id in ids:
            try:
                info = self._shard(session_id).call(
                    "open", session_id, [], "stream", True
                )
            except RouterError as exc:
                quarantined = self.recovery.quarantine(session_id)
                log.error(
                    "salvaged unrecoverable session=%s shard=%d: %s",
                    session_id, self.shard_of(session_id), exc,
                )
                self.salvaged.append(
                    {"file": str(quarantined), "reason": str(exc)}
                )
                continue
            recovered.append(info["session"])
        return recovered

    def stats(self) -> Dict[str, Any]:
        """One aggregated snapshot across all shards (blocking form)."""
        pairs = self.submit_stats()
        for _shard, future in pairs:
            future.wait(REPLY_TIMEOUT)
        return self.finish_stats(pairs)

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
