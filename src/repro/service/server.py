"""The ``repro serve`` daemon: ``repro-wire/1`` over TCP.

One single-threaded :mod:`selectors` event loop owns every socket in
front of one :class:`~repro.service.router.Router`. Each connection is
a sans-IO :class:`~repro.service.connection.WireConnection` state
machine; the loop only moves bytes:

* non-blocking accept/read/write for every connection on one thread;
* per-connection write-queue backpressure: reads pause while a slow
  peer's reply queue is over the high-water mark;
* a coarse **deadline wheel** instead of per-socket ``settimeout``
  (O(1) arm per read, lazy reinsertion on the expiry sweep);
* shards run inline on the loop: an EVENTS batch is applied before
  its ``OK``, a FLUSH is answered in the same turn, and a connection
  gets one EVENTS frame per loop turn.

Idle connections cost one fd and a few KB, which is what lets one
server hold ten thousand sessions.

The protocol is strict request/response: every client frame is answered
by exactly one server frame (``OK``/``VIOLATION``/``REPORT``/
``BUSY``/``ERROR``). Error isolation is layered:

* a **wire error** (corrupt frame, bad payload, a read timeout)
  poisons only the connection: the server answers ``ERROR`` and closes
  the socket — the framing can no longer be trusted — but the session
  and every other tenant on the same shard are untouched;
* an **application error** (unknown analysis, unknown session, a
  quarantined session, a crashed shard) is answered with a typed
  ``ERROR`` and the connection stays usable;
* ``BUSY`` signals backpressure (the injected ``shard.inbox`` stall);
  clients retry after a pause.

The ``STATS`` reply merges the server's counters and event-loop gauges
(open connections, ring-buffer high water, write-queue depth/high
water, worst loop stall) with the router's per-shard rows.

Fault sites (see :mod:`repro.faults`): ``wire.reply`` —
``truncate``/``corrupt`` a reply frame or ``reset`` the connection
before answering; ``server.events`` — ``duplicate`` redelivers a
decoded EVENTS batch (at-least-once delivery, which positioned frames
make idempotent). Both live in the connection core.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..obs.metrics import MetricsRegistry, stats_to_prom
from .connection import WireConnection
from .recovery import RecoveryManager
from .router import Router

log = logging.getLogger("repro.service")

#: Wire-server counter short names -> (prom name, help), carried on the
#: stats doc's ``server`` block next to the event-loop gauges.
_SERVER_COUNTERS = (
    ("busy_replies", "repro_server_busy_replies_total",
     "BUSY backpressure replies sent"),
    ("read_timeouts", "repro_server_read_timeouts_total",
     "Connections dropped on read deadline"),
    ("wire_errors", "repro_server_wire_errors_total",
     "Malformed-frame/protocol errors"),
    ("redirects", "repro_server_redirects_total",
     "REDIRECT replies (cluster ownership elsewhere)"),
    ("fenced", "repro_server_fenced_total",
     "FENCED replies (stale membership epoch)"),
)

#: Default per-connection read timeout (seconds). Generous — it only
#: has to beat "forever": a stalled client releases its wheel slot and
#: fd instead of holding them until process exit.
DEFAULT_READ_TIMEOUT = 600.0

#: Bytes per transport read.
RECV_SIZE = 64 * 1024

#: Pause reading a connection once this many reply bytes are queued on
#: it (the peer is not draining us) ...
WRITE_HWM = 256 * 1024

#: ... and resume once the queue drains below this.
WRITE_LWM = 64 * 1024

# -- the event loop ---------------------------------------------------------


class _DeadlineWheel:
    """Coarse-bucket read-deadline timer: O(1) arm, lazy reinsertion.

    Arming is just ``conn.deadline = now + timeout`` — the connection
    stays in whatever bucket it last landed in. When a bucket's window
    fully passes, its members are checked against their *actual*
    deadlines: truly expired ones are yielded, refreshed ones are
    re-bucketed. Deadlines therefore fire up to one resolution late,
    which is exactly the coarseness that makes 10k idle sockets cost
    nothing per read.
    """

    def __init__(self, resolution: float) -> None:
        self.resolution = resolution
        self._buckets: Dict[int, set] = {}

    def add(self, conn: "_AsyncConn") -> None:
        bucket = int(conn.deadline / self.resolution)
        self._buckets.setdefault(bucket, set()).add(conn)

    def next_timeout(self, now: float) -> Optional[float]:
        """Seconds until the earliest bucket fully passes, or None."""
        if not self._buckets:
            return None
        edge = (min(self._buckets) + 1) * self.resolution
        return max(0.0, edge - now)

    def sweep(self, now: float) -> List["_AsyncConn"]:
        """Pop every fully-passed bucket; return truly expired conns."""
        expired: List["_AsyncConn"] = []
        for bucket in sorted(self._buckets):
            if (bucket + 1) * self.resolution > now:
                break
            for conn in self._buckets.pop(bucket):
                if conn.closed:
                    continue  # lazily reaped
                if conn.deadline <= now:
                    expired.append(conn)
                else:
                    self.add(conn)  # activity moved it: reinsert
        return expired


class _AsyncConn:
    """Transport state for one socket on the event loop."""

    __slots__ = ("sock", "fd", "wire", "wbuf", "deadline", "paused",
                 "mask", "closed")

    def __init__(self, sock: socket.socket, wire: WireConnection) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.wire = wire
        self.wbuf = bytearray()
        self.deadline = float("inf")
        self.paused = False  # reads suspended by write backpressure
        self.mask = selectors.EVENT_READ
        self.closed = False


class _AsyncServer:
    """The single-threaded ``selectors`` front end.

    One loop owns every socket. Reads and writes are non-blocking and
    every shard command runs right there, as a direct router call. A
    connection gets one EVENTS frame per loop turn (the rest of what a
    pipelining client sent waits in its backlog), so a turn's stall is
    one frame's feed or one control command per ready connection
    (``loop_lag_ms`` reports the worst).
    """

    def __init__(
        self,
        address: Any,
        router: Router,
        read_timeout: Optional[float],
    ) -> None:
        self.router = router
        self.read_timeout = read_timeout
        self._listen = socket.create_server(
            address, backlog=512, reuse_port=False
        )
        self._listen.setblocking(False)
        self.server_address = self._listen.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listen, selectors.EVENT_READ, None)
        # Self-pipe: shutdown() from another thread wakes the loop.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        # Connections whose pump stopped with frames still buffered
        # (``wire.more``), by fd: each is pumped once per loop turn.
        self._backlog: Dict[int, _AsyncConn] = {}
        self._conns: Dict[int, _AsyncConn] = {}
        resolution = 0.5
        if read_timeout:
            resolution = max(0.05, min(1.0, read_timeout / 4.0))
        self._wheel = _DeadlineWheel(resolution)
        self.cluster: Optional[Any] = None
        self.metrics = MetricsRegistry()
        self._counters = {
            short: self.metrics.counter(name, help)
            for short, name, help in _SERVER_COUNTERS
        }
        self._counters_lock = threading.Lock()
        self.connections_total = 0
        self.ring_high_water = 0  # carried over from closed connections
        self.write_queue_hwm = 0
        self.loop_lag_ms = 0.0  # worst single-iteration processing stall
        self._stopping = False
        self._stopped = threading.Event()
        self._stopped.set()  # not serving yet == already stopped
        self._serving = False
        self._closed = False

    # -- counter interface (called by WireConnection) -----------------------

    def count(self, counter: str) -> None:
        with self._counters_lock:
            metric = self._counters.get(counter)
            if metric is None:
                metric = self.metrics.counter(
                    f"repro_server_{counter}_total"
                )
                self._counters[counter] = metric
            metric.inc()

    def counters(self) -> Dict[str, Any]:
        with self._counters_lock:
            out: Dict[str, Any] = {
                short: metric.value
                for short, metric in self._counters.items()
            }
        ring = self.ring_high_water
        write_queue = 0
        for conn in self._conns.values():
            ring = max(ring, conn.wire.frames.high_water)
            write_queue += len(conn.wbuf)
        self.write_queue_hwm = max(self.write_queue_hwm, write_queue)
        out["backend"] = "async"
        # repro-stats/1 keeps its shape: no reply is ever shed.
        out["shed"] = 0
        out["open_connections"] = len(self._conns)
        out["connections_total"] = self.connections_total
        out["ring_high_water"] = ring
        out["write_queue_depth"] = write_queue
        out["write_queue_hwm"] = self.write_queue_hwm
        out["loop_lag_ms"] = round(self.loop_lag_ms, 3)
        return out

    # -- the loop -----------------------------------------------------------

    def serve_forever(self) -> None:
        self._serving = True
        self._stopped.clear()
        try:
            while not self._stopping:
                timeout = None
                if self._backlog:
                    timeout = 0
                elif self.read_timeout and self._conns:
                    timeout = self._wheel.next_timeout(time.monotonic())
                events = self._selector.select(timeout)
                started = time.monotonic()
                if self._backlog:
                    turn = list(self._backlog.values())
                    self._backlog.clear()
                    for conn in turn:
                        if not conn.closed:
                            self._pump(conn)
                for key, mask in events:
                    if key.data is None:
                        self._accept()
                    elif key.data == "wake":
                        continue  # shutdown(): the loop test sees it
                    else:
                        conn = key.data
                        if mask & selectors.EVENT_WRITE and not conn.closed:
                            self._write_some(conn)
                        if (
                            mask & selectors.EVENT_READ
                            and not conn.closed
                            and conn.fd not in self._backlog
                        ):
                            # A backlogged peer's next bytes wait in
                            # its socket (TCP backpressure) until the
                            # frames it already sent are served.
                            self._read_some(conn)
                if self.read_timeout:
                    now = time.monotonic()
                    for conn in self._wheel.sweep(now):
                        self._expire(conn)
                lag = (time.monotonic() - started) * 1000.0
                if lag > self.loop_lag_ms:
                    self.loop_lag_ms = lag
        finally:
            self._serving = False
            self._close_all()
            self._stopped.set()

    def shutdown(self) -> None:
        self._stopping = True
        try:
            self._wake_w.send(b"\x01")
        except OSError:
            pass
        self._stopped.wait(5.0)

    def server_close(self) -> None:
        if not self._serving:
            self._close_all()

    def _close_all(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns.values()):
            self._close(conn)
        for sock in (self._listen, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()

    # -- socket handlers ----------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as error:  # e.g. EMFILE under fd pressure
                log.error("accept failed: %s", error)
                return
            sock.setblocking(False)
            wire = WireConnection(
                self.router, count=self.count, counters=self.counters,
                cluster=self.cluster,
            )
            conn = _AsyncConn(sock, wire)
            if self.read_timeout:
                conn.deadline = time.monotonic() + self.read_timeout
                self._wheel.add(conn)
            self._conns[conn.fd] = conn
            self.connections_total += 1
            self._selector.register(sock, conn.mask, conn)

    def _read_some(self, conn: _AsyncConn) -> None:
        try:
            data = conn.sock.recv(RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            conn.wire.on_eof()
            self._pump(conn)
            if not conn.closed:
                self._close(conn)  # peer is gone; don't wait on writes
            return
        if self.read_timeout:
            conn.deadline = time.monotonic() + self.read_timeout
        conn.wire.receive_bytes(data)
        self._pump(conn)

    def _pump(self, conn: _AsyncConn) -> None:
        conn.wire.pump()
        if conn.wire.more:
            self._backlog[conn.fd] = conn
        self._flush(conn)

    def _flush(self, conn: _AsyncConn) -> None:
        wire = conn.wire
        if wire.outbox:
            for frame in wire.outbox:
                conn.wbuf += frame
            wire.outbox.clear()
            if len(conn.wbuf) > self.write_queue_hwm:
                self.write_queue_hwm = len(conn.wbuf)
        if wire.reset:
            self._close(conn)
            return
        self._write_some(conn)

    def _write_some(self, conn: _AsyncConn) -> None:
        while conn.wbuf:
            try:
                sent = conn.sock.send(memoryview(conn.wbuf))
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close(conn)
                return
            del conn.wbuf[:sent]
        if conn.wire.close_after_send and not conn.wbuf:
            self._close(conn)
            return
        self._update_interest(conn)

    def _update_interest(self, conn: _AsyncConn) -> None:
        if conn.closed:
            return
        queued = len(conn.wbuf)
        if conn.paused:
            if queued <= WRITE_LWM:
                conn.paused = False
        elif queued >= WRITE_HWM:
            # Backpressure: the peer is not draining replies — stop
            # reading from it so its queue cannot grow unboundedly.
            conn.paused = True
        mask = 0
        if queued:
            mask |= selectors.EVENT_WRITE
        if not conn.paused:
            mask |= selectors.EVENT_READ
        if mask and mask != conn.mask:
            conn.mask = mask
            try:
                self._selector.modify(conn.sock, mask, conn)
            except (KeyError, ValueError, OSError):
                self._close(conn)

    def _expire(self, conn: _AsyncConn) -> None:
        if conn.closed:
            return
        conn.wire.on_read_timeout()
        self._flush(conn)
        if not conn.closed:
            self._close(conn)  # timeout: don't linger on a slow write

    def _close(self, conn: _AsyncConn) -> None:
        if conn.closed:
            return
        conn.closed = True
        self.ring_high_water = max(
            self.ring_high_water, conn.wire.frames.high_water
        )
        self._conns.pop(conn.fd, None)
        self._backlog.pop(conn.fd, None)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass


class _MetricsEndpoint:
    """A tiny stdlib HTTP thread serving ``GET /metrics`` as prom text.

    Scrapes are served from a fresh ``repro-stats/1`` snapshot on every
    request — the exposition and the STATS frame cannot drift because
    :func:`repro.obs.metrics.stats_to_prom` is the only mapping.
    """

    def __init__(self, host: str, port: int, stats_fn) -> None:
        import http.server

        endpoint = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_response(404)
                    self.end_headers()
                    return
                try:
                    body = stats_to_prom(stats_fn()).encode("utf-8")
                except Exception as error:  # pragma: no cover - defensive
                    self.send_response(500)
                    self.end_headers()
                    self.wfile.write(str(error).encode("utf-8", "replace"))
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes are too chatty for the service log

        self._httpd = http.server.ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-metrics",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()


class ServiceServer:
    """The long-running analysis service.

    Args:
        host/port: Bind address (``port=0`` picks a free port; read the
            chosen one from :attr:`port`).
        shards: Shards (sessions hash across them; each runs inline on
            the event loop).
        spool: Checkpoint spool directory — enables recovery; on
            construction, sessions spooled by a previous incarnation
            are re-opened at their checkpointed positions (corrupt
            entries are quarantined to ``*.bad``; see :attr:`salvaged`).
        checkpoint_every: Auto-checkpoint interval in events.
        read_timeout: Per-connection read deadline in seconds
            (``None`` disables; default :data:`DEFAULT_READ_TIMEOUT`).
        cluster: Join the multi-node protocol even without peers (a
            cluster of one that others ``--join``). Implied by ``join``.
        join: Peer addresses (``host:port``) to JOIN through at start.
        node_id: Stable cluster-wide node id (defaults to the
            advertised ``host:port``).
        advertise: The address peers and clients reach this node at,
            when it differs from the bind address (NAT, 0.0.0.0 binds).
        vnodes: Virtual points this node contributes to the ring.
        gossip_interval: Seconds between cluster gossip ticks.
        suspect_after: Seconds of peer silence before declaring it dead.
        metrics_port: Also serve Prometheus text on
            ``http://host:metrics_port/metrics`` (``0`` picks a free
            port — read it from :attr:`metrics_port`; ``None``
            disables the endpoint).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 1,
        spool: Union[str, Path, None] = None,
        checkpoint_every: Optional[int] = 1000,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
        cluster: bool = False,
        join: Sequence[str] = (),
        node_id: Optional[str] = None,
        advertise: Optional[str] = None,
        vnodes: Optional[int] = None,
        gossip_interval: Optional[float] = None,
        suspect_after: Optional[float] = None,
        metrics_port: Optional[int] = None,
    ) -> None:
        recovery = RecoveryManager(spool) if spool is not None else None
        self.router = Router(
            shards=shards,
            recovery=recovery,
            checkpoint_every=checkpoint_every,
        )
        self.recovered = self.router.recover()
        #: Spool entries quarantined during recovery (dicts with
        #: ``file``/``reason``) — the salvage report.
        self.salvaged = self.router.salvaged
        self._impl = _AsyncServer(
            (host, port), router=self.router, read_timeout=read_timeout
        )
        self.host, self.port = self._impl.server_address[:2]
        self.cluster = None
        if cluster or join:
            # Imported lazily: standalone servers never pay for (or
            # depend on) the cluster layer.
            from ..cluster.coordinator import (
                DEFAULT_GOSSIP_INTERVAL,
                ClusterCoordinator,
            )
            from ..cluster.ring import DEFAULT_VNODES

            adv_host, adv_port = self.host, self.port
            if advertise:
                raw_host, _, raw_port = advertise.rpartition(":")
                adv_host, adv_port = raw_host, int(raw_port)
            self.cluster = ClusterCoordinator(
                node_id or f"{adv_host}:{adv_port}",
                adv_host,
                adv_port,
                self.router,
                vnodes=vnodes if vnodes else DEFAULT_VNODES,
                gossip_interval=(
                    gossip_interval
                    if gossip_interval
                    else DEFAULT_GOSSIP_INTERVAL
                ),
                suspect_after=suspect_after,
                seeds=list(join),
            )
        self._impl.cluster = self.cluster
        self._thread: Optional[threading.Thread] = None
        self._metrics_endpoint: Optional[_MetricsEndpoint] = None
        self.metrics_port: Optional[int] = None
        if metrics_port is not None:
            self._metrics_endpoint = _MetricsEndpoint(
                host, metrics_port, self.stats_doc
            )
            self.metrics_port = self._metrics_endpoint.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stats_doc(self) -> Dict[str, Any]:
        """The full ``repro-stats/1`` document this node would answer
        on a STATS frame: per-shard rows + wire-server counters (+ the
        cluster block when clustering is on)."""
        stats = self.router.stats()
        stats["server"] = self._impl.counters()
        if self.cluster is not None:
            stats["cluster"] = self.cluster.stats()
        return stats

    def start(self) -> "ServiceServer":
        """Serve in a background thread (for tests and embedding)."""
        self._thread = threading.Thread(
            target=self._impl.serve_forever,
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        if self._metrics_endpoint is not None:
            self._metrics_endpoint.start()
        if self.cluster is not None:
            # JOIN the peers once we are accepting their replies.
            self.cluster.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` loop)."""
        if self._metrics_endpoint is not None:
            self._metrics_endpoint.start()
        if self.cluster is not None:
            # The listener is already bound (backlog holds early peer
            # traffic), so joining before the accept loop is safe.
            self.cluster.start()
        self._impl.serve_forever()

    def stop(self) -> None:
        if self._metrics_endpoint is not None:
            self._metrics_endpoint.stop()
            self._metrics_endpoint = None
        if self.cluster is not None:
            self.cluster.stop()
        self._impl.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._impl.server_close()
        self.router.shutdown()

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
