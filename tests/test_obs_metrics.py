"""repro.obs.metrics: typed instruments, repro-stats/1, prom exposition.

Covers the PR-10 tentpole leg 1 and satellites 1–2: the versioned
``service-stats`` schema holds on 1-node and cluster servers,
the Prometheus rendering matches the documented catalog on a live
scrape, and ``repro service-stats`` fails typed (exit 3) against an
unreachable node.
"""

import json
import urllib.request

import pytest

from repro.cli import main
from repro.obs.metrics import (
    CATALOG_BY_NAME,
    METRICS_CATALOG,
    STATS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prom_names,
    stats_to_prom,
    validate_prom_text,
)
from repro.service.client import ServiceClient, submit_trace
from repro.service.server import ServiceServer
from repro.sim.workloads.benchmarks import get_case


# -- instruments -------------------------------------------------------------


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_goes_both_ways(self):
        g = Gauge("g")
        g.set(10)
        g.dec(3)
        g.inc()
        assert g.value == 8

    def test_histogram_buckets_are_cumulative(self):
        h = Histogram("h", buckets=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        doc = h.to_json()
        assert doc["count"] == 3
        assert doc["sum"] == 555
        assert doc["buckets"] == {"10": 1, "100": 2, "+Inf": 3}

    def test_registry_factories_are_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")  # name already bound to a Counter
        assert len(r) == 1

    def test_registry_snapshot(self):
        r = MetricsRegistry()
        r.counter("a").inc(2)
        r.gauge("b").set(1.5)
        snap = r.snapshot()
        assert snap == {"a": 2, "b": 1.5}


# -- prom rendering ----------------------------------------------------------


def test_catalog_names_are_unique_and_typed():
    assert len(CATALOG_BY_NAME) == len(METRICS_CATALOG)
    for spec in METRICS_CATALOG:
        assert spec.type in ("counter", "gauge", "histogram")
        assert spec.name.startswith("repro_")


def test_stats_to_prom_renders_labels_and_histograms():
    doc = {
        "schema": STATS_SCHEMA,
        "shards": [
            {
                "shard": 0,
                "events": 10,
                "queue_depth": 2,
                "checkpoint_lag": 7,
                "checkpoint_lag_histogram": {
                    "count": 1, "sum": 7.0, "buckets": {"64": 1, "+Inf": 1},
                },
                "tenant_violations": {"tenant-a": 3},
            }
        ],
        "shed": 1,
        "shard_restarts": 0,
        "uptime_seconds": 1.25,
        "server": {"backend": "async", "busy_replies": 4},
    }
    text = stats_to_prom(doc)
    assert 'repro_shard_events_total{shard="0"} 10' in text
    assert 'repro_tenant_violations_total{tenant="tenant-a"} 3' in text
    assert 'repro_server_busy_replies_total{backend="async"} 4' in text
    assert 'repro_shard_checkpoint_lag_bucket{le="64",shard="0"} 1' in text
    assert 'repro_shard_checkpoint_lag_count{shard="0"} 1' in text
    assert "# TYPE repro_shard_checkpoint_lag histogram" in text
    assert "repro_router_shed_total 1" in text


def test_validate_prom_text_flags_unknown_and_missing():
    problems = validate_prom_text("made_up_metric 1\n")
    assert any("unknown metric" in p for p in problems)
    assert any("required metric missing" in p for p in problems)


def test_parse_prom_names_folds_histogram_suffixes():
    text = (
        'repro_shard_checkpoint_lag_bucket{le="+Inf",shard="0"} 1\n'
        'repro_shard_checkpoint_lag_sum{shard="0"} 7\n'
        'repro_shard_checkpoint_lag_count{shard="0"} 1\n'
    )
    names = parse_prom_names(text)
    assert names == {"repro_shard_checkpoint_lag": 3}


# -- live servers: the repro-stats/1 shape (satellite 1) ---------------------


@pytest.fixture(scope="module")
def small_trace():
    return list(get_case("avrora").generate(seed=3, scale=0.02))


REQUIRED_SHARD_KEYS = {
    "shard", "sessions_open", "sessions_closed", "sessions_quarantined",
    "events", "events_dropped", "events_per_second", "violations",
    "errors", "checkpoint_failures", "lenient_restarts", "uptime_seconds",
    "queue_depth", "checkpoint_lag", "checkpoint_lag_histogram",
    "tenant_violations", "workers",
}

REQUIRED_TOP_KEYS = {
    "schema", "shards", "sessions_open", "sessions_closed", "events",
    "violations", "errors", "shard_restarts", "shed", "uptime_seconds",
    "server",
}


def _assert_stats_shape(stats, cluster):
    assert stats["schema"] == STATS_SCHEMA
    assert REQUIRED_TOP_KEYS <= set(stats)
    for row in stats["shards"]:
        assert REQUIRED_SHARD_KEYS <= set(row)
    assert stats["server"]["backend"] == "async"
    if cluster:
        assert "cluster" in stats
        assert {"node", "epoch", "peers", "gossip_ticks"} <= set(
            stats["cluster"]
        )
    else:
        assert "cluster" not in stats
    # The prom rendering of this very document matches the catalog.
    assert validate_prom_text(stats_to_prom(stats)) == []


@pytest.mark.parametrize("cluster", [False, True], ids=["1-node", "cluster"])
def test_stats_schema_shape(small_trace, cluster):
    with ServiceServer(
        port=0, shards=2, cluster=cluster,
        gossip_interval=0.1 if cluster else None,
    ) as server:
        server.start()
        submit_trace(
            server.host, server.port, iter(small_trace), ["aerodrome"],
            name="avrora",
        )
        with ServiceClient(server.host, server.port) as client:
            stats = client.stats()
    json.dumps(stats)  # the whole document stays JSON-serializable
    _assert_stats_shape(stats, cluster)


def test_metrics_endpoint_scrape(small_trace):
    with ServiceServer(port=0, shards=2, metrics_port=0) as server:
        server.start()
        submit_trace(
            server.host, server.port, iter(small_trace), ["aerodrome"],
            name="avrora",
        )
        url = f"http://{server.host}:{server.metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.status == 200
            assert "text/plain" in response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(
                f"http://{server.host}:{server.metrics_port}/nope",
                timeout=10,
            )
    assert validate_prom_text(body) == []
    assert 'repro_server_busy_replies_total{backend="async"}' in body


def test_tenant_violation_counts_reach_the_exposition(small_trace):
    with ServiceServer(port=0, shards=1) as server:
        server.start()
        submit_trace(
            server.host, server.port, iter(small_trace), ["aerodrome"],
            name="avrora", session_id="tenant-x",
        )
        with ServiceClient(server.host, server.port) as client:
            stats = client.stats()
    tenants = stats["shards"][0]["tenant_violations"]
    assert tenants.get("tenant-x", 0) >= 1
    assert 'repro_tenant_violations_total{tenant="tenant-x"}' in (
        stats_to_prom(stats)
    )


# -- the CLI surface (satellite 2) -------------------------------------------


def test_service_stats_unreachable_exits_3(capsys):
    # Port 1 is never listening; must be the typed diagnostic + exit 3
    # (mirrors `repro submit`), not a raw connection traceback / exit 2.
    assert main(["service-stats", "--host", "127.0.0.1", "--port", "1"]) == 3
    err = capsys.readouterr().err
    assert "no service at 127.0.0.1:1" in err
    assert "repro serve" in err


@pytest.mark.parametrize("fmt", ["json", "prom"])
def test_service_stats_formats(small_trace, fmt, capsys):
    with ServiceServer(port=0, shards=1) as server:
        server.start()
        submit_trace(
            server.host, server.port, iter(small_trace), ["aerodrome"],
            name="avrora",
        )
        code = main(
            [
                "service-stats", "--host", server.host,
                "--port", str(server.port), "--format", fmt,
            ]
        )
    assert code == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["schema"] == STATS_SCHEMA
    else:
        assert validate_prom_text(out) == []
