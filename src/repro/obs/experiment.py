"""Experiment artifacts: hashed configs, run directories, and run diffing.

One golden path: ``repro experiment run`` locks workload/scale/seed/
analyses into a content-hashed ``experiment.json`` and emits every
artifact under a run-id directory::

    runs/<run-id>/
      experiment.json   # the locked config + its sha256 content hash
      manifest.json     # deterministic result summary (hash-comparable)
      report.json       # full repro-report/1 session result (has timing)
      report.md         # human summary
      trace.jsonl       # span log (TickClock => byte-identical per seed)

Determinism contract: ``experiment.json``, ``manifest.json`` and
``trace.jsonl`` are **byte-identical** across two same-seed invocations
(no timestamps, no run-id, no wall-clock inside); all wall-clock timing
lives in ``report.json``/``report.md``, which ``repro diff`` treats as
informational metrics, never gates.

``repro diff <a> <b>`` compares two run directories — or two legacy
``repro-bench/1..5`` artifacts (``BENCH_PR*.json``) — on their *gating*
surface (verdicts, violation indices, agreement flags, locked config)
and reports wall-clock numbers as deltas only, because the build
container has 1 CPU and wall-clock is not a gate anywhere in this repo.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from . import tracing

#: Schema tag of ``experiment.json``.
EXPERIMENT_SCHEMA = "repro-experiment/1"
#: Schema tag of ``manifest.json``.
MANIFEST_SCHEMA = "repro-manifest/1"
#: Legacy flat bench artifacts ``repro diff`` understands.
BENCH_SCHEMAS = tuple(f"repro-bench/{n}" for n in range(1, 6))

#: Events per feed batch in ``repro experiment run`` (affects span
#: count, so it is locked into the config hash).
DEFAULT_BATCH = 512


class ExperimentError(Exception):
    """A run could not be executed or an artifact could not be written."""


class DiffError(Exception):
    """The two artifacts cannot be compared (missing/foreign/mixed)."""


# -- canonical JSON + hashing ------------------------------------------------


def canonical_json(obj: Any) -> bytes:
    """Canonical bytes: sorted keys, no whitespace, trailing newline."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def content_hash(obj: Any) -> str:
    """sha256 hex digest of the canonical JSON form."""
    return hashlib.sha256(canonical_json(obj)).hexdigest()


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def normalize_report(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """The deterministic subset of a ``repro-report/1`` document.

    Drops wall-clock timing and the source path; keeps the verdicts,
    findings (with their indices) and per-analysis payloads — everything
    two same-seed runs must agree on byte for byte.
    """
    out = json.loads(json.dumps(doc))  # deep copy, JSON-able only
    timing = out.get("timing")
    if isinstance(timing, dict):
        timing.pop("seconds", None)
        timing.pop("events_per_second", None)
    trace = out.get("trace")
    if isinstance(trace, dict):
        trace.pop("path", None)
    return out


# -- running an experiment ---------------------------------------------------


def _unique_dir(root: str, run_id: str) -> Tuple[str, str]:
    """Pick ``root/run_id`` or the first free ``-N`` suffix."""
    candidate = run_id
    n = 1
    while os.path.exists(os.path.join(root, candidate)):
        n += 1
        candidate = f"{run_id}-{n}"
    return os.path.join(root, candidate), candidate


def _finding_index(finding: Mapping[str, Any]) -> Optional[int]:
    for key in ("idx", "index", "event_idx", "at"):
        value = finding.get(key)
        if isinstance(value, int):
            return value
    return None


def run_experiment(
    workload: str,
    seed: int = 0,
    scale: float = 0.1,
    analyses: Sequence[str] = ("aerodrome",),
    out: str = "runs",
    run_id: Optional[str] = None,
    batch: int = DEFAULT_BATCH,
    wall_clock: bool = False,
) -> Dict[str, Any]:
    """Run one locked experiment; emit its artifact directory.

    Returns ``{"run_id", "run_dir", "experiment", "manifest", "report"}``.
    ``wall_clock=True`` trades span determinism for real monotonic span
    times (the config hash records the choice).
    """
    from ..sim.workloads.benchmarks import get_case
    from ..service.session import StreamingSession

    config = {
        "schema": EXPERIMENT_SCHEMA,
        "kind": "experiment",
        "workload": workload,
        "seed": int(seed),
        "scale": float(scale),
        "analyses": list(analyses),
        "batch": int(batch),
        "clock": "wall" if wall_clock else "ticks",
    }
    config_hash = content_hash(config)
    experiment_doc = dict(config)
    experiment_doc["config_hash"] = config_hash

    if run_id is None:
        run_id = f"{workload}-s{seed}-{config_hash[:8]}"
    os.makedirs(out, exist_ok=True)
    run_dir, run_id = _unique_dir(out, run_id)
    os.makedirs(run_dir)

    tracer = tracing.Tracer(
        clock=None if wall_clock else tracing.TickClock()
    )
    previous = tracing.active()
    tracing.activate(tracer)
    try:
        with tracer.span("experiment.generate", workload=workload, seed=seed):
            trace = get_case(workload).generate(seed=seed, scale=scale)
            events = list(trace)
        stream = StreamingSession(
            "experiment",
            [(name, {}) for name in analyses],
            name=workload,
        )
        with tracer.span("experiment.ingest", events=len(events)):
            for lo in range(0, len(events), batch):
                stream.feed(events[lo : lo + batch])
        if stream.error is not None:
            raise ExperimentError(
                f"session quarantined ({stream.error_code}): {stream.error}"
            )
        with tracer.span("experiment.finish"):
            result = stream.finish()
    finally:
        if previous is not None:
            tracing.activate(previous)
        else:
            tracing.deactivate()

    report_doc = result.to_json()
    normalized = normalize_report(report_doc)

    trace_path = os.path.join(run_dir, "trace.jsonl")
    span_count = tracer.dump_jsonl(trace_path)

    analyses_summary: List[Dict[str, Any]] = []
    for rep in normalized.get("analyses", []):
        violations = rep.get("violations", [])
        analyses_summary.append(
            {
                "analysis": rep.get("analysis"),
                "verdict": rep.get("verdict"),
                "violations": len(violations),
                "violation_indices": [
                    _finding_index(v)
                    for v in violations
                    if _finding_index(v) is not None
                ],
            }
        )

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "kind": "experiment",
        "config_hash": config_hash,
        "report_hash": content_hash(normalized),
        "trace_hash": None if wall_clock else _sha256_file(trace_path),
        "spans": span_count,
        "verdict": report_doc.get("verdict"),
        "events": report_doc.get("trace", {}).get("events"),
        "events_swept": report_doc.get("timing", {}).get("events_swept"),
        "analyses": analyses_summary,
    }

    _write_bytes(os.path.join(run_dir, "experiment.json"),
                 canonical_json(experiment_doc))
    _write_bytes(os.path.join(run_dir, "manifest.json"),
                 canonical_json(manifest))
    _write_text(os.path.join(run_dir, "report.json"),
                json.dumps(report_doc, indent=2, sort_keys=True) + "\n")
    _write_text(os.path.join(run_dir, "report.md"),
                _report_md(run_id, experiment_doc, manifest, report_doc))

    return {
        "run_id": run_id,
        "run_dir": run_dir,
        "experiment": experiment_doc,
        "manifest": manifest,
        "report": report_doc,
    }


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _report_md(
    run_id: str,
    experiment: Mapping[str, Any],
    manifest: Mapping[str, Any],
    report: Mapping[str, Any],
) -> str:
    timing = report.get("timing", {})
    lines = [
        f"# Experiment run `{run_id}`",
        "",
        f"- workload: `{experiment.get('workload')}`"
        f" · seed {experiment.get('seed')}"
        f" · scale {experiment.get('scale')}",
        f"- analyses: {', '.join(experiment.get('analyses', []))}",
        f"- config hash: `{experiment.get('config_hash')}`",
        f"- verdict: **{manifest.get('verdict')}**",
        f"- events: {manifest.get('events')}"
        f" (swept {manifest.get('events_swept')})"
        f" · spans: {manifest.get('spans')}",
        "",
        "| analysis | verdict | violations | first indices |",
        "|---|---|---|---|",
    ]
    for row in manifest.get("analyses", []):
        idxs = row.get("violation_indices", [])[:5]
        lines.append(
            f"| {row.get('analysis')} | {row.get('verdict')} "
            f"| {row.get('violations')} "
            f"| {', '.join(str(i) for i in idxs) or '—'} |"
        )
    seconds = timing.get("seconds")
    eps = timing.get("events_per_second")
    lines += [
        "",
        "Timing (informational — never hashed, never gated; this repo's",
        "CI runs on 1 CPU so only agreement gates):",
        "",
        f"- seconds: {seconds}",
        f"- events/second: {eps}",
        "",
    ]
    return "\n".join(lines)


# -- bench artifacts through the run-dir layout ------------------------------


def _bench_config(report: Mapping[str, Any]) -> Dict[str, Any]:
    """The locked-config view of a flat bench report.

    Shared by :func:`store_bench_run` (which hashes it into the run
    directory) and :func:`load_comparable` (which recomputes the same
    hash for flat ``BENCH_*.json`` files), so a stored bench run diffs
    clean against the flat artifact it was mirrored from.
    """
    config: Dict[str, Any] = {
        "schema": EXPERIMENT_SCHEMA,
        "kind": "bench",
        "bench_schema": report.get("schema"),
    }
    for key in ("scale", "seed", "repeats", "algorithm", "backend", "tables"):
        if key in report:
            config[key] = report[key]
    return config


def store_bench_run(
    report: Mapping[str, Any],
    runs_root: str,
    run_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Mirror a flat ``repro-bench/*`` report into a run-id directory.

    ``repro bench`` keeps writing its flat ``BENCH_*.json`` for backward
    compatibility; this adds the same report under
    ``<runs_root>/<run-id>/`` with ``experiment.json`` + ``manifest.json``
    so ``repro diff`` and ``repro experiment list`` see bench runs too.
    """
    config = _bench_config(report)
    config_hash = content_hash(config)
    experiment_doc = dict(config)
    experiment_doc["config_hash"] = config_hash

    if run_id is None:
        run_id = f"bench-s{report.get('seed', 0)}-{config_hash[:8]}"
    os.makedirs(runs_root, exist_ok=True)
    run_dir, run_id = _unique_dir(runs_root, run_id)
    os.makedirs(run_dir)

    gate, _metrics = _bench_surface(report)
    summary = report.get("summary", {})
    all_agree = summary.get("all_agree")
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "kind": "bench",
        "config_hash": config_hash,
        "report_hash": content_hash(gate),
        "verdict": "pass" if all_agree else "fail",
        "workloads": len(report.get("workloads", [])),
    }

    _write_bytes(os.path.join(run_dir, "experiment.json"),
                 canonical_json(experiment_doc))
    _write_bytes(os.path.join(run_dir, "manifest.json"),
                 canonical_json(manifest))
    _write_text(os.path.join(run_dir, "report.json"),
                json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_text(
        os.path.join(run_dir, "report.md"),
        "\n".join(
            [
                f"# Bench run `{run_id}`",
                "",
                f"- bench schema: `{report.get('schema')}`"
                f" · seed {report.get('seed')} · scale {report.get('scale')}",
                f"- config hash: `{config_hash}`",
                f"- all_agree: **{all_agree}**"
                f" · workloads: {len(report.get('workloads', []))}",
                "",
                "Full numbers in `report.json` (flat BENCH_*.json kept for",
                "backward compatibility next to it).",
                "",
            ]
        ),
    )
    return {"run_id": run_id, "run_dir": run_dir, "manifest": manifest}


# -- loading + diffing -------------------------------------------------------


def _flatten(obj: Any, prefix: str, out: Dict[str, Any]) -> None:
    if isinstance(obj, Mapping):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj


def _bench_surface(
    report: Mapping[str, Any],
) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """(gating keys, informational metrics) of a repro-bench/* report."""
    gate: Dict[str, Any] = {}
    metrics: Dict[str, float] = {}
    for key in ("scale", "seed", "repeats", "algorithm", "backend"):
        if key in report:
            gate[key] = report[key]
    for row in report.get("workloads", []):
        name = row.get("name", "?")
        for key in (
            "serializable", "violation_idx", "agree", "events",
            "events_processed", "table", "threads",
        ):
            if key in row:
                gate[f"workloads[{name}].{key}"] = row[key]
        for key, value in row.items():
            if (key.endswith("_eps") or key.endswith("_seconds")
                    or key.startswith("speedup")):
                if isinstance(value, (int, float)):
                    metrics[f"workloads[{name}].{key}"] = float(value)
    summary = report.get("summary", {})
    for key, value in summary.items():
        if isinstance(value, bool):
            gate[f"summary.{key}"] = value
        elif isinstance(value, (int, float)):
            metrics[f"summary.{key}"] = float(value)
    service = report.get("service")
    if isinstance(service, Mapping):
        for key in ("agree", "shards", "batch", "workload", "analyses"):
            if key in service:
                gate[f"service.{key}"] = service[key]
        for key in ("offline_eps", "offline_seconds"):
            if isinstance(service.get(key), (int, float)):
                metrics[f"service.{key}"] = float(service[key])
    cluster = report.get("cluster")
    if isinstance(cluster, Mapping):
        flat: Dict[str, Any] = {}
        _flatten(cluster, "cluster", flat)
        for key, value in flat.items():
            if isinstance(value, bool) or isinstance(value, str):
                gate[key] = value
            elif isinstance(value, (int, float)):
                metrics[key] = float(value)
    if isinstance(report.get("peak_rss_kb"), (int, float)):
        metrics["peak_rss_kb"] = float(report["peak_rss_kb"])
    return gate, metrics


_METRIC_GATE_EXCLUDE = ("seconds", "events_per_second")


def _experiment_surface(
    run_dir: str,
) -> Tuple[Dict[str, Any], Dict[str, float]]:
    experiment = _read_json(os.path.join(run_dir, "experiment.json"))
    report = _read_json(os.path.join(run_dir, "report.json"))
    gate: Dict[str, Any] = {}
    for key in ("workload", "seed", "scale", "analyses", "packed", "batch",
                "config_hash"):
        if key in experiment:
            _flatten(experiment[key], key, gate)
    flat_report: Dict[str, Any] = {}
    _flatten(normalize_report(report), "report", flat_report)
    gate.update(flat_report)
    metrics: Dict[str, float] = {}
    timing = report.get("timing", {})
    for key in _METRIC_GATE_EXCLUDE:
        if isinstance(timing.get(key), (int, float)):
            metrics[f"timing.{key}"] = float(timing[key])
    return gate, metrics


def _read_json(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DiffError(f"missing artifact: {path}")
    except json.JSONDecodeError as error:
        raise DiffError(f"unreadable artifact {path}: {error}")


def load_comparable(path: str) -> Dict[str, Any]:
    """Load a run directory or legacy bench artifact for diffing.

    Returns ``{"kind", "label", "gate", "metrics"}`` where ``gate`` maps
    flat key -> value (differences fail the diff) and ``metrics`` maps
    flat key -> float (reported as deltas only).
    """
    if os.path.isdir(path):
        experiment = _read_json(os.path.join(path, "experiment.json"))
        kind = experiment.get("kind", "experiment")
        if kind == "bench":
            report = _read_json(os.path.join(path, "report.json"))
            gate, metrics = _bench_surface(report)
            gate["bench_schema"] = experiment.get("bench_schema")
            gate["config_hash"] = experiment.get("config_hash")
        else:
            gate, metrics = _experiment_surface(path)
        return {"kind": kind, "label": path, "gate": gate, "metrics": metrics}
    doc = _read_json(path)
    schema = doc.get("schema")
    if schema in BENCH_SCHEMAS:
        gate, metrics = _bench_surface(doc)
        gate["bench_schema"] = schema
        gate["config_hash"] = content_hash(_bench_config(doc))
        return {"kind": "bench", "label": path, "gate": gate,
                "metrics": metrics}
    raise DiffError(
        f"{path}: not a run directory and schema {schema!r} is not a "
        f"known bench artifact ({', '.join(BENCH_SCHEMAS)})"
    )


_MISSING = object()


def diff_runs(path_a: str, path_b: str) -> Dict[str, Any]:
    """Compare two artifacts; see :func:`load_comparable` for inputs.

    Returns::

        {"equal": bool, "kind": str, "a": label, "b": label,
         "differing": [{"key", "a", "b"}, ...],   # gating differences
         "metrics": [{"key", "a", "b", "delta"}, ...]}  # informational
    """
    a = load_comparable(path_a)
    b = load_comparable(path_b)
    if a["kind"] != b["kind"]:
        raise DiffError(
            f"cannot compare a {a['kind']} run with a {b['kind']} run "
            f"({path_a} vs {path_b})"
        )
    differing: List[Dict[str, Any]] = []
    for key in sorted(set(a["gate"]) | set(b["gate"])):
        va = a["gate"].get(key, _MISSING)
        vb = b["gate"].get(key, _MISSING)
        if va != vb:
            differing.append(
                {
                    "key": key,
                    "a": None if va is _MISSING else va,
                    "b": None if vb is _MISSING else vb,
                }
            )
    metrics: List[Dict[str, Any]] = []
    for key in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][key], b["metrics"][key]
        metrics.append({"key": key, "a": va, "b": vb, "delta": vb - va})
    return {
        "equal": not differing,
        "kind": a["kind"],
        "a": a["label"],
        "b": b["label"],
        "differing": differing,
        "metrics": metrics,
    }


def format_diff(
    diff: Mapping[str, Any],
    max_metrics: int = 12,
    max_keys: int = 32,
) -> str:
    """Human rendering of a :func:`diff_runs` result.

    Long listings are truncated with an explicit "… N more" line (the
    full set is always available via ``repro diff --json``).
    """
    lines: List[str] = []
    if diff["equal"]:
        lines.append(
            f"runs agree ({diff['kind']}): {diff['a']} == {diff['b']}"
        )
    else:
        lines.append(
            f"runs DIFFER ({diff['kind']}): {diff['a']} vs {diff['b']} — "
            f"{len(diff['differing'])} gating key(s):"
        )
        for row in diff["differing"][:max_keys]:
            lines.append(f"  {row['key']}: {row['a']!r} != {row['b']!r}")
        hidden = len(diff["differing"]) - max_keys
        if hidden > 0:
            lines.append(f"  … {hidden} more gating keys (see --json)")
    shown = 0
    for row in diff["metrics"]:
        if shown >= max_metrics:
            lines.append(
                f"  … {len(diff['metrics']) - shown} more metric deltas"
            )
            break
        if row["a"]:
            pct = 100.0 * row["delta"] / row["a"]
            lines.append(
                f"  Δ {row['key']}: {row['a']:.6g} -> {row['b']:.6g} "
                f"({pct:+.1f}%)"
            )
        else:
            lines.append(
                f"  Δ {row['key']}: {row['a']:.6g} -> {row['b']:.6g}"
            )
        shown += 1
    return "\n".join(lines)
