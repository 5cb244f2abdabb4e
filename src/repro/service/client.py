"""Client SDK for the streaming analysis service.

:class:`ServiceClient` opens sessions over ``repro-wire/1``;
:class:`SessionHandle` streams batches, flushes, checkpoints and
collects the final report. ``BUSY`` backpressure is retried with a
**bounded, jittered exponential backoff**, transparently.

Hardening knobs (all optional; defaults match the pre-hardening SDK):

* **deadline** — a wall-clock budget for the whole interaction.
  Connect waits, BUSY backoff sleeps and reconnect pauses all charge
  against it; exhausting it raises :class:`DeadlineExceeded` (a typed
  :class:`ServiceError`, code ``"deadline"``) instead of hanging.
* **unreachable** — a server that cannot be connected to raises
  :class:`ServiceUnreachable` (code ``"unreachable"``) rather than a
  raw ``OSError``, so callers (``repro submit``) can answer with a
  clean one-line failure.
* **idempotent resume** — :func:`submit_trace` survives connection
  resets, wire corruption and shard crashes: it reconnects with
  ``resume=True``, learns the server's position, and re-sends only the
  remainder. Batches travel as *positioned* EVENTS frames (stream
  offset + CRC32), so at-least-once delivery never double-counts an
  event and a gap (a shard restarted behind the stream) is detected
  and healed by re-sending from the server's position — the final
  report equals the offline run or the call raises; it never silently
  covers a shorter stream.

Fault site (see :mod:`repro.faults`): ``wire.send`` —
``truncate``/``corrupt`` a request frame or ``reset`` the connection
mid-send.

:class:`RemoteChecker` adapts the service to the
:class:`~repro.core.checker.StreamingChecker` surface that
:class:`repro.instrument.LiveMonitor` hosts — so a live instrumented
program can ship its events to a remote analysis service instead of
paying for an in-process checker. Events are batched; violations
surface at batch boundaries (the price of remoteness: detection lags by
at most one batch).
"""

from __future__ import annotations

import logging
import random
import socket
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..core.violations import CheckResult, Violation
from ..faults.injector import fire, mutate_frame
from ..trace.events import Event
from . import protocol
from .backoff import (  # noqa: F401  (BACKOFF_CAP re-exported for compat)
    BACKOFF_CAP,
    DEFAULT_BUSY_DELAY,
    DEFAULT_RECONNECT_DELAY,
    Backoff,
)
from .protocol import FrameType

log = logging.getLogger("repro.service")

#: Default events per EVENTS frame.
DEFAULT_BATCH = 512

#: Reconnect attempts :func:`submit_trace` makes before giving up.
DEFAULT_ATTEMPTS = 5


class ServiceError(RuntimeError):
    """The server answered ERROR (the code is in :attr:`code`)."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(f"[{code}] {message}")


class ServiceUnreachable(ServiceError):
    """The server could not be connected to at all."""

    def __init__(self, message: str) -> None:
        super().__init__("unreachable", message)


class DeadlineExceeded(ServiceError):
    """The caller's wall-clock budget ran out before the work finished."""

    def __init__(self, message: str) -> None:
        super().__init__("deadline", message)


class SessionRedirect(ServiceError):
    """The server does not own this session — follow the redirect.

    A clustered node answers HELLO (and any session command that
    arrives after an ownership change) with a REDIRECT frame naming the
    owning node; :class:`~repro.cluster.client.ClusterClient` catches
    this and re-routes. The target is in :attr:`host`/:attr:`port`.
    """

    def __init__(self, info: Dict[str, Any]) -> None:
        self.host: str = info.get("host", "")
        self.port: int = int(info.get("port", 0))
        self.node: str = info.get("node", "")
        self.epoch: int = int(info.get("epoch", 0))
        super().__init__(
            "redirect",
            f"session is owned by node {self.node!r} "
            f"at {self.host}:{self.port} (epoch {self.epoch})",
        )


class SessionFenced(ServiceError):
    """The node refused the write: membership epochs disagree.

    A clustered node answers FENCED when the epoch a frame rode in
    under does not match its own view — the node may be the stale side
    of a partition, or the client routed by an outdated ring. Either
    way the write was **not** applied. The node's epoch is in
    :attr:`epoch`; the fix is to refresh the ring and re-route (the
    cluster client does this automatically).
    """

    def __init__(self, info: Dict[str, Any]) -> None:
        self.epoch: int = int(info.get("epoch", 0) or 0)
        self.session: Optional[str] = info.get("session")
        super().__init__(
            "fenced",
            info.get("message", "membership epoch mismatch")
            + f" (node epoch {self.epoch})",
        )


class _Deadline:
    """A monotonic wall-clock budget shared across retries."""

    def __init__(self, seconds: Optional[float]) -> None:
        self.expires = None if seconds is None else time.monotonic() + seconds

    def remaining(self, doing: str) -> Optional[float]:
        """Seconds left (``None`` = unbounded); raises when spent."""
        if self.expires is None:
            return None
        left = self.expires - time.monotonic()
        if left <= 0:
            raise DeadlineExceeded(f"deadline expired while {doing}")
        return left

    def sleep(self, seconds: float, doing: str) -> None:
        left = self.remaining(doing)
        if left is not None and seconds >= left:
            time.sleep(max(left, 0.0))
            self.remaining(doing)  # raises: budget is now spent
            return
        time.sleep(seconds)


class ServiceClient:
    """A connection to a ``repro serve`` daemon.

    One client drives one session at a time (the wire binds a
    connection to a session at HELLO); open several clients for
    concurrent streams.

    Args:
        host/port: The service address.
        timeout: Per-reply socket I/O timeout.
        connect_timeout: TCP connect timeout.
        deadline: Optional wall-clock budget (seconds) for everything
            this client does; see :class:`DeadlineExceeded`.
        jitter_seed: Seed for the backoff jitter RNG (deterministic
            retries in tests and chaos drills).

    Raises:
        ServiceUnreachable: If the TCP connection cannot be made.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7207,
        timeout: float = 650.0, connect_timeout: float = 30.0,
        deadline: Optional[float] = None,
        jitter_seed: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.deadline = (
            deadline if isinstance(deadline, _Deadline) else _Deadline(deadline)
        )
        self._rng = random.Random(jitter_seed)
        left = self.deadline.remaining(f"connecting to {host}:{port}")
        if left is not None:
            connect_timeout = min(connect_timeout, left)
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise ServiceUnreachable(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        # The I/O timeout must outlive the router's REPLY_TIMEOUT
        # (600s): a barrier command (CLOSE behind a deep inbox) is
        # already enqueued server-side, and hanging up early would
        # orphan the final report while the server still executes it.
        self._sock.settimeout(timeout)
        self._rfile = self._sock.makefile("rb")
        # All reply reads go through the shared sans-IO codec — the
        # same incremental decoder the server's event loop runs.
        self._frames = protocol.FrameStream(self._rfile)
        self._fault_key: Optional[str] = None  # session id once bound

    def close(self) -> None:
        try:
            self._rfile.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- one round trip ----------------------------------------------------

    def _send_frame(self, frame: bytes) -> None:
        action = fire("wire.send", key=self._fault_key)
        if action is not None:
            if action.op == "reset":
                self._sock.close()
                raise ConnectionResetError(
                    "[injected] connection reset before send"
                )
            if action.op == "truncate":
                cut = mutate_frame(frame, action)
                try:
                    self._sock.sendall(cut)
                finally:
                    self._sock.close()
                raise ConnectionResetError(
                    "[injected] connection reset mid-frame "
                    f"({len(cut)}/{len(frame)} bytes sent)"
                )
            frame = mutate_frame(frame, action)  # corrupt
        self._sock.sendall(frame)

    def roundtrip(
        self,
        frame: bytes,
        busy_retries: int = 200,
        retry_delay: float = 0.01,
    ) -> Any:
        """Send one frame, read one reply, retry through BUSY.

        BUSY replies are retried with jittered exponential backoff,
        bounded by ``busy_retries`` and the client deadline. Returns
        ``(type, payload_dict)``; raises :class:`ServiceError` on an
        ERROR reply and :class:`protocol.WireError` on a broken stream.
        """
        backoff = Backoff(initial=retry_delay, rng=self._rng)
        for _ in range(busy_retries + 1):
            self.deadline.remaining("waiting for the server")
            self._send_frame(frame)
            reply = self._frames.read_frame()
            if reply is None:
                raise protocol.FrameError("server closed the connection")
            ftype, payload = reply
            obj = protocol.decode_json(payload)
            if ftype == FrameType.BUSY:
                # A shed/overloaded server rides a retry_ms pacing hint
                # on the frame; honor it (jittered) as the sleep floor.
                self.deadline.sleep(
                    backoff.paced(obj.get("retry_ms")),
                    "backing off from BUSY",
                )
                continue
            if ftype == FrameType.REDIRECT:
                raise SessionRedirect(obj)
            if ftype == FrameType.FENCED:
                raise SessionFenced(obj)
            if ftype == FrameType.ERROR:
                raise ServiceError(
                    obj.get("code", "unknown"), obj.get("message", "")
                )
            return ftype, obj
        raise ServiceError("busy", "server still busy after retries")

    # -- sessions ----------------------------------------------------------

    def open_session(
        self,
        analyses: Sequence[Union[str, Dict[str, Any]]],
        name: str = "stream",
        packed: bool = False,
        encoding: str = "text",
        session_id: Optional[str] = None,
        resume: bool = False,
        lenient: bool = False,
        meta: Optional[Dict[str, Any]] = None,
        epoch: Optional[int] = None,
    ) -> "SessionHandle":
        """HELLO: open (or resume) a session and bind this connection.

        ``encoding`` picks how batches travel: ``"text"`` (``.std``
        lines) or ``"delta"`` (packed column deltas — cheaper for long
        streams). ``packed`` selects the *analysis* path server-side,
        independent of the wire encoding. ``lenient`` softens a resume:
        if the server has nothing resumable (cluster failover lost the
        checkpoint) the session opens fresh at position 0 instead of
        erroring, and the caller re-sends from the start. ``epoch`` is
        the membership epoch the caller routed by (cluster clients): a
        node whose view is older answers FENCED
        (:class:`SessionFenced`) instead of serving writes it may no
        longer own.
        """
        if encoding not in ("text", "delta"):
            raise ValueError(f"encoding must be 'text' or 'delta', not {encoding!r}")
        hello = {
            "protocol": protocol.PROTOCOL,
            "analyses": list(analyses),
            "name": name,
            "packed": packed,
            "session": session_id,
            "resume": resume,
            "lenient": lenient,
            "meta": meta or {},
        }
        if epoch is not None:
            hello["epoch"] = epoch
        ftype, info = self.roundtrip(
            protocol.encode_json(FrameType.HELLO, hello)
        )
        self._fault_key = info.get("session")
        return SessionHandle(self, info, encoding)

    def stats(self) -> Dict[str, Any]:
        """The router's aggregated metrics snapshot."""
        ftype, obj = self.roundtrip(protocol.encode_frame(FrameType.STATS))
        return obj["stats"]


class SessionHandle:
    """One open streaming session (returned by ``open_session``)."""

    def __init__(
        self, client: ServiceClient, info: Dict[str, Any], encoding: str
    ) -> None:
        self.client = client
        self.session_id: str = info["session"]
        #: Server-side stream position at open — a resumed session
        #: tells the client how many events to skip re-sending.
        self.position: int = info.get("position", 0)
        self.resumed: bool = bool(info.get("resumed", False))
        #: A lenient resume found nothing recoverable and the session
        #: restarted from position 0 — the client must re-send the
        #: whole stream, and callers should surface it (``repro
        #: submit`` maps it to its own exit code).
        self.restarted: bool = bool(info.get("restarted", False))
        #: Client-side stream position: offset the *next* batch starts
        #: at. Stamped into positioned EVENTS frames so duplicate
        #: deliveries are dropped server-side and gaps are detected.
        self.sent: int = self.position
        self.encoding = encoding
        self._encoder = (
            protocol.DeltaEncoder() if encoding == "delta" else None
        )
        #: Findings delivered by FLUSH/CLOSE frames so far.
        self.findings: List[Dict[str, Any]] = []
        self.report: Optional[Dict[str, Any]] = None

    def send(self, events: Iterable[Event]) -> int:
        """Ship one batch of events (one positioned EVENTS frame)."""
        events = list(events)
        if not events:
            return 0
        if self._encoder is not None:
            payload = self._encoder.encode(events, base=self.sent)
        else:
            payload = protocol.encode_events_text(events, base=self.sent)
        self.client.roundtrip(
            protocol.encode_frame(FrameType.EVENTS, payload)
        )
        self.sent += len(events)
        return len(events)

    def rewind(self, position: int) -> None:
        """Restart the send stream at ``position`` (resync after the
        server reports being behind, e.g. across a shard restart)."""
        self.sent = position

    def flush(self) -> Dict[str, Any]:
        """Barrier: everything sent is processed; collects new findings."""
        ftype, info = self.client.roundtrip(
            protocol.encode_frame(FrameType.FLUSH)
        )
        self.position = info.get("position", self.position)
        self.findings.extend(info.get("findings", []))
        return info

    def checkpoint(self) -> Dict[str, Any]:
        """Spool a durable checkpoint of the session server-side."""
        self.flush()  # checkpoint what was sent, not what was queued
        ftype, info = self.client.roundtrip(
            protocol.encode_frame(FrameType.CHECKPOINT)
        )
        return info

    def result(self) -> Dict[str, Any]:
        """CLOSE the session; returns the final ``repro-report/1`` doc."""
        if self.report is None:
            ftype, info = self.client.roundtrip(
                protocol.encode_frame(FrameType.CLOSE)
            )
            self.findings.extend(info.get("findings", []))
            self.report = info["report"]
        return self.report

    close = result


#: ServiceError codes worth a reconnect: the connection (or a shard)
#: died, but the session survives server-side and resume will heal it.
_RETRYABLE_CODES = frozenset({"wire", "shard-crashed", "timeout"})


def _retryable(exc: Exception) -> bool:
    if isinstance(exc, (ConnectionError, protocol.WireError)):
        return True
    if isinstance(exc, ServiceError):
        return exc.code in _RETRYABLE_CODES
    return isinstance(exc, OSError)


def submit_trace(
    host: str,
    port: int,
    events: Iterable[Event],
    analyses: Sequence[Union[str, Dict[str, Any]]],
    name: str = "stream",
    batch: int = DEFAULT_BATCH,
    encoding: str = "text",
    packed: bool = False,
    session_id: Optional[str] = None,
    resume: bool = False,
    stop_after: Optional[int] = None,
    checkpoint: bool = False,
    deadline: Optional[float] = None,
    attempts: int = DEFAULT_ATTEMPTS,
    jitter_seed: Optional[int] = None,
    lenient: bool = False,
    epoch: Optional[int] = None,
) -> Dict[str, Any]:
    """Stream a whole trace to a service and return its report.

    With ``resume=True`` the server's checkpointed position is honored:
    the first ``position`` events of ``events`` are skipped (the server
    already has them) and only the remainder travels. ``stop_after``
    sends only the first N events and leaves the session **open**
    (taking a durable checkpoint when ``checkpoint`` is set), returning
    a position document instead of a report — the crash-drill half of
    the CI ``service-smoke`` job.

    The call is **self-healing**: a reset connection, a corrupted
    frame, a server read timeout or a crashed shard triggers up to
    ``attempts`` reconnects with jittered backoff, resuming the same
    session and re-sending from the server's reported position
    (positioned frames make the redelivery idempotent). ``deadline``
    bounds the whole call in wall-clock seconds
    (:class:`DeadlineExceeded`); an unreachable server raises
    :class:`ServiceUnreachable` immediately — there is nothing to
    resume.
    """
    all_events = list(events)
    budget = _Deadline(deadline)
    backoff = Backoff(initial=DEFAULT_RECONNECT_DELAY, seed=jitter_seed)
    failures = 0
    # Sticky across retries: a restart-from-zero on any attempt must
    # survive into the final report even if a later reconnect resumes
    # the (freshly restarted) session normally.
    notes: Dict[str, bool] = {"restarted": False}
    while True:
        try:
            return _submit_once(
                host, port, all_events, analyses,
                name=name, batch=batch, encoding=encoding, packed=packed,
                session_id=session_id, resume=resume, lenient=lenient,
                stop_after=stop_after, checkpoint=checkpoint,
                budget=budget, jitter_seed=jitter_seed, epoch=epoch,
                notes=notes,
            )
        except (ServiceUnreachable, DeadlineExceeded):
            raise
        except Exception as exc:
            if not _retryable(exc):
                raise
            failures += 1
            if session_id is None or failures >= attempts:
                # Without a session id there is nothing to resume
                # idempotently — a blind retry could double-feed.
                raise
            budget.sleep(
                backoff.next(),
                f"reconnecting to {host}:{port} after: {exc}",
            )
            resume = True  # the session lives server-side; pick it up


def _submit_once(
    host: str,
    port: int,
    all_events: List[Event],
    analyses: Sequence[Union[str, Dict[str, Any]]],
    name: str,
    batch: int,
    encoding: str,
    packed: bool,
    session_id: Optional[str],
    resume: bool,
    stop_after: Optional[int],
    checkpoint: bool,
    budget: _Deadline,
    jitter_seed: Optional[int],
    lenient: bool = False,
    epoch: Optional[int] = None,
    notes: Optional[Dict[str, bool]] = None,
) -> Dict[str, Any]:
    with ServiceClient(
        host, port, deadline=budget, jitter_seed=jitter_seed
    ) as client:
        handle = client.open_session(
            analyses,
            name=name,
            packed=packed,
            encoding=encoding,
            session_id=session_id,
            resume=resume,
            lenient=lenient,
            epoch=epoch,
        )
        if handle.restarted:
            if notes is not None:
                notes["restarted"] = True
            log.warning(
                "lenient resume restarted from zero session=%s at "
                "%s:%d — nothing was recoverable; re-sending the "
                "whole stream",
                handle.session_id, host, port,
            )

        def send_range(start: int, stop: int) -> None:
            handle.rewind(start)
            for lo in range(start, stop, batch):
                handle.send(all_events[lo : min(lo + batch, stop)])

        start = handle.position if resume else 0
        stop = len(all_events) if stop_after is None else min(
            stop_after, len(all_events)
        )
        if start < stop:
            send_range(start, stop)
        if stop_after is not None and handle.sent >= stop_after:
            info = handle.checkpoint() if checkpoint else handle.flush()
            return {
                "session": handle.session_id,
                "position": info.get("position", handle.sent),
                "open": True,
                "findings": handle.findings,
            }
        # A shard may have restarted from a checkpoint behind what was
        # queued: flush exposes the server's true position; re-send the
        # gap until the stream is whole, then close.
        info = handle.flush()
        rounds = 0
        while info.get("position", stop) < stop:
            rounds += 1
            if rounds > DEFAULT_ATTEMPTS:
                raise ServiceError(
                    "resync",
                    f"server stuck at position {info.get('position')} "
                    f"of {stop} after {rounds - 1} re-sends",
                )
            budget.remaining("re-syncing the stream")
            send_range(info["position"], stop)
            info = handle.flush()
        report = handle.result()
        report.setdefault("service", {})
        report["service"].update(
            {
                "session": handle.session_id,
                "resumed": handle.resumed,
                "restarted_from_zero": bool(
                    (notes or {}).get("restarted") or handle.restarted
                ),
            }
        )
        return report


class RemoteChecker:
    """The service as a checker: LiveMonitor's remote backend.

    Looks enough like a :class:`~repro.core.checker.StreamingChecker`
    to be hosted by :class:`repro.instrument.LiveMonitor`: ``process``
    buffers events and ships a frame per ``batch`` events, ``result``
    returns a :class:`~repro.core.violations.CheckResult`. Violations
    discovered server-side surface at the next batch boundary (or at
    :meth:`finish`), reconstructed as
    :class:`~repro.core.violations.Violation` objects.

    Args:
        host/port: The service address.
        analyses: Analyses the remote session runs (first checker-kind
            finding becomes the reported violation).
        algorithm: Label used in results.
        batch: Events per frame; 1 = a frame per event (lowest lag).
    """

    def __init__(
        self,
        host: str,
        port: int,
        analyses: Sequence[Union[str, Dict[str, Any]]] = ("aerodrome",),
        algorithm: str = "remote",
        batch: int = 64,
        name: str = "live",
        encoding: str = "text",
    ) -> None:
        self.algorithm = algorithm
        self.batch = max(1, batch)
        self.violation: Optional[Violation] = None
        self.events_processed = 0
        self.violations: List[Violation] = []
        self._client = ServiceClient(host, port)
        self._handle = self._client.open_session(
            analyses, name=name, encoding=encoding
        )
        self._buffer: List[Event] = []
        self._seen_findings = 0
        self.report: Optional[Dict[str, Any]] = None

    # -- StreamingChecker surface ------------------------------------------

    def process(self, event: Event) -> Optional[Violation]:
        """Buffer one event; ship and poll at batch boundaries."""
        self._buffer.append(event)
        self.events_processed += 1
        if len(self._buffer) >= self.batch:
            return self.flush()
        return None

    def flush(self) -> Optional[Violation]:
        """Ship the buffer, collect findings; first new one is returned."""
        if self._buffer:
            self._handle.send(self._buffer)
            self._buffer.clear()
        self._handle.flush()
        return self._drain()

    def _drain(self) -> Optional[Violation]:
        first: Optional[Violation] = None
        for entry in self._handle.findings[self._seen_findings :]:
            violation = _finding_to_violation(entry)
            if violation is not None:
                self.violations.append(violation)
                if first is None:
                    first = violation
        self._seen_findings = len(self._handle.findings)
        if first is not None and self.violation is None:
            self.violation = first
        return first

    def result(self) -> CheckResult:
        return CheckResult(
            algorithm=self.algorithm,
            violation=self.violation,
            events_processed=self.events_processed,
        )

    def finish(self) -> Dict[str, Any]:
        """Close the remote session and return its final report."""
        if self.report is None:
            if self._buffer:
                self._handle.send(self._buffer)
                self._buffer.clear()
            self.report = self._handle.result()
            self._drain()
            self._client.close()
        return self.report


def _finding_to_violation(entry: Dict[str, Any]) -> Optional[Violation]:
    """Rebuild a Violation from a wire finding dict (when it is one)."""
    finding = entry.get("finding", {})
    try:
        return Violation(
            event_idx=finding["event_idx"],
            thread=finding["thread"],
            site=finding["site"],
            details=finding.get("details", ""),
        )
    except (KeyError, TypeError):
        return None  # a race/lockset finding, not a checker violation
