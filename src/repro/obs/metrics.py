"""Typed metrics and the versioned ``repro-stats/1`` surface.

Two layers live here:

* **Instrument types** — :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` and the :class:`MetricsRegistry` that owns them.
  The service's hand-rolled stat ints (shard workers, wire servers, the
  cluster coordinator) are instances of these; each component keeps its
  own registry, and instruments carry no locks — every instrument is
  mutated only under its owner's existing synchronization (a shard's
  lock, the server's counter lock, the coordinator's lock).
* **Exposition** — the JSON ``service-stats`` document is stamped
  ``schema: repro-stats/1``; :func:`stats_to_prom` renders that same
  document as Prometheus text exposition, and :data:`METRICS_CATALOG`
  is the machine-readable list of every metric the exposition may emit
  (mirrored in ``docs/OBSERVABILITY.md`` and enforced by
  :func:`validate_prom_text`, which CI runs against a live scrape).

Run ``python -m repro.obs.metrics --validate < scrape.txt`` to check a
scrape against the catalog from a shell (used by the ``experiment-smoke``
CI job).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Version tag stamped on every ``service-stats`` JSON document.
STATS_SCHEMA = "repro-stats/1"

#: Default histogram bucket upper bounds (events of checkpoint lag).
DEFAULT_BUCKETS = (64, 256, 1024, 4096, 16384)


class Counter:
    """Monotonically increasing count. No lock — see module docstring."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that can go up and down (queue depth, open sessions)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """Cumulative-bucket histogram (Prometheus classic shape)."""

    __slots__ = ("name", "help", "buckets", "_counts", "count", "sum")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1

    def to_json(self) -> Dict[str, Any]:
        """Cumulative bucket counts keyed by upper bound, plus +Inf."""
        cumulative: Dict[str, int] = {}
        for bound, n in zip(self.buckets, self._counts):
            cumulative[str(int(bound) if bound == int(bound) else bound)] = n
        cumulative["+Inf"] = self.count
        return {"count": self.count, "sum": self.sum, "buckets": cumulative}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name} n={self.count})"


class MetricsRegistry:
    """A named bag of instruments; idempotent factories by name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def snapshot(self) -> Dict[str, Any]:
        """Plain JSON-able {name: value-or-histogram-dict} map."""
        out: Dict[str, Any] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Histogram):
                out[name] = metric.to_json()
            else:
                out[name] = metric.value
        return out

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)


# --------------------------------------------------------------------------
# The metric catalog: every series the Prometheus exposition may emit.
# ``required`` metrics appear on every scrape of a healthy node; optional
# ones depend on topology (cluster block, per-tenant counts appear only
# once a tenant has violations).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSpec:
    name: str
    type: str  # counter | gauge | histogram
    help: str
    labels: Tuple[str, ...] = ()
    required: bool = True


METRICS_CATALOG: Tuple[MetricSpec, ...] = (
    # Per-shard (labels: shard)
    MetricSpec("repro_shard_events_total", "counter",
               "Events ingested by this shard", ("shard",)),
    MetricSpec("repro_shard_events_per_second", "gauge",
               "Ingest rate since shard start", ("shard",)),
    MetricSpec("repro_shard_sessions_open", "gauge",
               "Live sessions owned by this shard", ("shard",)),
    MetricSpec("repro_shard_sessions_closed_total", "counter",
               "Sessions closed cleanly", ("shard",)),
    MetricSpec("repro_shard_sessions_quarantined_total", "counter",
               "Sessions poison-isolated after an analysis error", ("shard",)),
    MetricSpec("repro_shard_events_dropped_total", "counter",
               "Events discarded after quarantine", ("shard",)),
    MetricSpec("repro_shard_violations_total", "counter",
               "Findings raised by analyses on this shard", ("shard",)),
    MetricSpec("repro_shard_errors_total", "counter",
               "Analysis/feed errors", ("shard",)),
    MetricSpec("repro_shard_checkpoint_failures_total", "counter",
               "Checkpoint writes that failed", ("shard",)),
    MetricSpec("repro_shard_lenient_restarts_total", "counter",
               "Sessions restarted from zero under lenient recovery", ("shard",)),
    MetricSpec("repro_shard_queue_depth", "gauge",
               "Requests queued at the shard (always 0: shards run inline)", ("shard",)),
    MetricSpec("repro_shard_checkpoint_lag_events", "gauge",
               "Max events past last checkpoint across open sessions", ("shard",)),
    MetricSpec("repro_shard_checkpoint_lag", "histogram",
               "Events between consecutive checkpoints", ("shard",),
               required=False),
    # Router-wide
    MetricSpec("repro_router_shed_total", "counter",
               "Submissions shed (always 0: nothing sheds)"),
    MetricSpec("repro_router_shard_restarts_total", "counter",
               "Shards restarted after a worker crash"),
    MetricSpec("repro_router_uptime_seconds", "gauge",
               "Seconds since the slowest-started shard came up"),
    # Per-tenant (labels: tenant) — emitted once a tenant has findings.
    MetricSpec("repro_tenant_violations_total", "counter",
               "Findings per tenant session", ("tenant",), required=False),
    # Wire server (labels: backend)
    MetricSpec("repro_server_busy_replies_total", "counter",
               "BUSY backpressure replies sent", ("backend",)),
    MetricSpec("repro_server_read_timeouts_total", "counter",
               "Connections dropped on read deadline", ("backend",)),
    MetricSpec("repro_server_wire_errors_total", "counter",
               "Malformed-frame/protocol errors", ("backend",)),
    MetricSpec("repro_server_redirects_total", "counter",
               "REDIRECT replies (cluster ownership elsewhere)", ("backend",)),
    MetricSpec("repro_server_fenced_total", "counter",
               "FENCED replies (stale membership epoch)", ("backend",)),
    MetricSpec("repro_server_shed_total", "counter",
               "BUSY replies flagged shed=true (always 0)", ("backend",)),
    # Event-loop gauges
    MetricSpec("repro_server_open_connections", "gauge",
               "Currently open connections", ("backend",)),
    MetricSpec("repro_server_connections_total", "counter",
               "Connections accepted since start", ("backend",)),
    MetricSpec("repro_server_ring_high_water", "gauge",
               "Largest decode ring buffer seen", ("backend",)),
    MetricSpec("repro_server_write_queue_depth", "gauge",
               "Bytes queued for write across connections", ("backend",)),
    MetricSpec("repro_server_write_queue_hwm", "gauge",
               "Write queue high-water mark", ("backend",)),
    MetricSpec("repro_server_loop_lag_ms", "gauge",
               "Event-loop lag of the last tick", ("backend",)),
    # Cluster coordinator (labels: node) — present when clustering is on.
    MetricSpec("repro_cluster_epoch", "gauge",
               "Membership epoch", ("node",), required=False),
    MetricSpec("repro_cluster_peers", "gauge",
               "Peers known to this node", ("node",), required=False),
    MetricSpec("repro_cluster_sessions_owned", "gauge",
               "Sessions this node owns", ("node",), required=False),
    MetricSpec("repro_cluster_replicas_held", "gauge",
               "Replica checkpoints held for peers", ("node",), required=False),
    MetricSpec("repro_cluster_migrations_total", "counter",
               "Sessions migrated away live", ("node",), required=False),
    MetricSpec("repro_cluster_handoffs_in_total", "counter",
               "Checkpoint blobs received", ("node",), required=False),
    MetricSpec("repro_cluster_handoffs_out_total", "counter",
               "Checkpoint blobs shipped", ("node",), required=False),
    MetricSpec("repro_cluster_handoff_bytes_total", "counter",
               "Bytes of checkpoint blobs shipped", ("node",), required=False),
    MetricSpec("repro_cluster_redirects_total", "counter",
               "Ownership redirects issued", ("node",), required=False),
    MetricSpec("repro_cluster_gossip_ticks_total", "counter",
               "Coordinator ticks completed", ("node",), required=False),
    MetricSpec("repro_cluster_fenced_out_total", "counter",
               "Stale-epoch requests fenced", ("node",), required=False),
)

CATALOG_BY_NAME: Dict[str, MetricSpec] = {m.name: m for m in METRICS_CATALOG}


# --------------------------------------------------------------------------
# Prometheus text exposition, rendered from a repro-stats/1 document.
# --------------------------------------------------------------------------


def _fmt_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _escape(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _PromWriter:
    """Accumulates samples, emitting HELP/TYPE once per metric family."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._seen: set = set()

    def sample(
        self,
        name: str,
        value: Any,
        labels: Optional[Mapping[str, Any]] = None,
        suffix: str = "",
    ) -> None:
        if value is None:
            return
        spec = CATALOG_BY_NAME.get(name)
        if name not in self._seen:
            self._seen.add(name)
            if spec is not None:
                self._lines.append(f"# HELP {name} {spec.help}")
                self._lines.append(f"# TYPE {name} {spec.type}")
        label_str = ""
        if labels:
            pairs = ",".join(
                f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())
            )
            label_str = "{" + pairs + "}"
        self._lines.append(f"{name}{suffix}{label_str} {_fmt_value(value)}")

    def histogram(
        self, name: str, hist: Mapping[str, Any], labels: Mapping[str, Any]
    ) -> None:
        spec = CATALOG_BY_NAME.get(name)
        if name not in self._seen:
            self._seen.add(name)
            if spec is not None:
                self._lines.append(f"# HELP {name} {spec.help}")
                self._lines.append(f"# TYPE {name} histogram")
        for bound, count in hist.get("buckets", {}).items():
            bucket_labels = dict(labels)
            bucket_labels["le"] = bound
            pairs = ",".join(
                f'{k}="{_escape(v)}"' for k, v in sorted(bucket_labels.items())
            )
            self._lines.append(f"{name}_bucket{{{pairs}}} {count}")
        pairs = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
        label_str = "{" + pairs + "}" if pairs else ""
        self._lines.append(f"{name}_sum{label_str} {_fmt_value(hist.get('sum', 0))}")
        self._lines.append(f"{name}_count{label_str} {hist.get('count', 0)}")

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


#: (stats-doc key in a shard row) -> prom metric name
_SHARD_KEYS = {
    "events": "repro_shard_events_total",
    "events_per_second": "repro_shard_events_per_second",
    "sessions_open": "repro_shard_sessions_open",
    "sessions_closed": "repro_shard_sessions_closed_total",
    "sessions_quarantined": "repro_shard_sessions_quarantined_total",
    "events_dropped": "repro_shard_events_dropped_total",
    "violations": "repro_shard_violations_total",
    "errors": "repro_shard_errors_total",
    "checkpoint_failures": "repro_shard_checkpoint_failures_total",
    "lenient_restarts": "repro_shard_lenient_restarts_total",
    "queue_depth": "repro_shard_queue_depth",
    "checkpoint_lag": "repro_shard_checkpoint_lag_events",
}

_SERVER_KEYS = {
    "busy_replies": "repro_server_busy_replies_total",
    "read_timeouts": "repro_server_read_timeouts_total",
    "wire_errors": "repro_server_wire_errors_total",
    "redirects": "repro_server_redirects_total",
    "fenced": "repro_server_fenced_total",
    "shed": "repro_server_shed_total",
    "open_connections": "repro_server_open_connections",
    "connections_total": "repro_server_connections_total",
    "ring_high_water": "repro_server_ring_high_water",
    "write_queue_depth": "repro_server_write_queue_depth",
    "write_queue_hwm": "repro_server_write_queue_hwm",
    "loop_lag_ms": "repro_server_loop_lag_ms",
}

_CLUSTER_KEYS = {
    "epoch": "repro_cluster_epoch",
    "sessions_owned": "repro_cluster_sessions_owned",
    "replicas_held": "repro_cluster_replicas_held",
    "migrations_total": "repro_cluster_migrations_total",
    "handoffs_in": "repro_cluster_handoffs_in_total",
    "handoffs_out": "repro_cluster_handoffs_out_total",
    "handoff_bytes": "repro_cluster_handoff_bytes_total",
    "redirects": "repro_cluster_redirects_total",
    "gossip_ticks": "repro_cluster_gossip_ticks_total",
    "fenced_out": "repro_cluster_fenced_out_total",
}


def stats_to_prom(stats: Mapping[str, Any]) -> str:
    """Render a ``repro-stats/1`` document as Prometheus text exposition.

    The JSON document on the STATS frame and the ``/metrics`` endpoint
    are two views of the same data; this function is the only mapping
    between them, so the schemas cannot drift apart.
    """
    w = _PromWriter()
    for row in stats.get("shards", ()):
        labels = {"shard": row.get("shard", 0)}
        for key, metric in _SHARD_KEYS.items():
            if key in row:
                w.sample(metric, row[key], labels)
        hist = row.get("checkpoint_lag_histogram")
        if isinstance(hist, Mapping):
            w.histogram("repro_shard_checkpoint_lag", hist, labels)
        tenants = row.get("tenant_violations")
        if isinstance(tenants, Mapping):
            for tenant, count in sorted(tenants.items()):
                w.sample(
                    "repro_tenant_violations_total", count, {"tenant": tenant}
                )
    w.sample("repro_router_shed_total", stats.get("shed"))
    w.sample("repro_router_shard_restarts_total", stats.get("shard_restarts"))
    w.sample("repro_router_uptime_seconds", stats.get("uptime_seconds"))
    server = stats.get("server")
    if isinstance(server, Mapping):
        labels = {"backend": server.get("backend", "async")}
        for key, metric in _SERVER_KEYS.items():
            if key in server:
                w.sample(metric, server[key], labels)
    cluster = stats.get("cluster")
    if isinstance(cluster, Mapping):
        labels = {"node": cluster.get("node", "?")}
        for key, metric in _CLUSTER_KEYS.items():
            if key in cluster:
                w.sample(metric, cluster[key], labels)
        peers = cluster.get("peers")
        if isinstance(peers, list):
            w.sample("repro_cluster_peers", len(peers), labels)
    return w.text()


def parse_prom_names(text: str) -> Dict[str, int]:
    """Metric family name -> sample count, from prom text exposition."""
    names: Dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        token = line.split("{", 1)[0].split(" ", 1)[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if token.endswith(suffix) and token[: -len(suffix)] in CATALOG_BY_NAME:
                token = token[: -len(suffix)]
                break
        names[token] = names.get(token, 0) + 1
    return names


def validate_prom_text(text: str) -> List[str]:
    """Check a scrape against :data:`METRICS_CATALOG`.

    Returns a list of problems (empty = valid): unknown series not in
    the catalog, or required series missing from the scrape.
    """
    names = parse_prom_names(text)
    problems: List[str] = []
    for name in sorted(names):
        if name not in CATALOG_BY_NAME:
            problems.append(f"unknown metric not in catalog: {name}")
    for spec in METRICS_CATALOG:
        if spec.required and spec.name not in names:
            problems.append(f"required metric missing from scrape: {spec.name}")
    return problems


def _main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """``python -m repro.obs.metrics --validate < scrape.txt``"""
    import argparse
    import sys

    parser = argparse.ArgumentParser(prog="repro.obs.metrics")
    parser.add_argument(
        "--validate", action="store_true",
        help="validate prom text on stdin against the metrics catalog",
    )
    parser.add_argument(
        "--catalog", action="store_true",
        help="print the metrics catalog as a markdown table",
    )
    args = parser.parse_args(argv)
    if args.catalog:
        print("| metric | type | labels | help |")
        print("|---|---|---|---|")
        for m in METRICS_CATALOG:
            labels = ", ".join(m.labels) or "—"
            print(f"| `{m.name}` | {m.type} | {labels} | {m.help} |")
        return 0
    if args.validate:
        problems = validate_prom_text(sys.stdin.read())
        for p in problems:
            print(p, file=sys.stderr)
        print("ok" if not problems else f"{len(problems)} problem(s)")
        return 0 if not problems else 1
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
