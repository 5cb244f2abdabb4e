"""Throughput benchmark: packed+epoch fast path vs. the seed string path.

This is the harness behind ``repro bench`` and
``benchmarks/perf_harness.py``. For every workload it generates the
trace once, compiles it once with :func:`repro.trace.packed.pack`, and
then times three checkers on identical input:

* ``seed`` — :class:`repro.bench.seed_baseline.SeedOptimizedAeroDromeChecker`,
  the frozen pre-packed-trace implementation (list-backed clocks,
  per-event string interning). This is the "before" build every speedup
  is quoted against.
* ``string`` — the current :func:`~repro.api.make_checker`
  checker fed string events through its adapter ``process`` API.
* ``packed`` — the same checker consuming the packed trace through
  ``run_packed``.

On top of the analyze-phase columns, every workload row measures the
**cold-start (ingest) split** — text parse, pack, the fused
text→packed parser, and a ``repro-packed/1`` ``load_packed`` mmap
(:mod:`repro.trace.packed_io`) — and the **process-parallel session**
comparison: ``Session.run(jobs=1)`` vs ``Session.run(jobs=N)`` on the
same co-run analysis set (:mod:`repro.api.parallel`). A top-level
**service block** additionally streams one workload through a live
loopback ``repro serve`` daemon (:mod:`repro.service`) at 1 and 8
concurrent sessions, comparing every streamed report against the
offline session (the agreement flags CI gates on).

Each measurement is best-of-``repeats`` wall time on a fresh checker;
tiny traces are looped until a run lasts long enough to time (the loop
count divides out). Verdicts and violating event indices are
cross-checked across all paths — including the reloaded and re-parsed
traces and the parallel reports — a disagreement marks the run
``agree: false`` and fails ``--check`` mode, which is what CI's
benchmark smoke gates on.

The output (``BENCH_PR8.json`` by default, schema ``repro-bench/5``)
is documented in ``docs/PERF.md``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from ..api.registry import create_analysis, make_checker
from ..api.session import Session
from ..sim.workloads.benchmarks import TABLE1, TABLE2, CASES_BY_NAME
from ..trace.packed import PackedTrace, pack
from ..trace.packed_io import load_packed, parse_packed, save_packed
from ..trace.parser import load_trace
from ..trace.trace import Trace
from ..trace.writer import save_trace
from .seed_baseline import SeedOptimizedAeroDromeChecker

#: Analyses co-run in the one-pass vs N-pass session comparison: the
#: checker under test plus the two streaming extension analyses.
SESSION_EXTRAS = ("races", "lockset")

#: Analyses co-run in the serial-vs-parallel session comparison: the
#: checker under test plus five roughly cost-balanced co-analyses, so a
#: balanced partition exists for the workers to exploit.
PARALLEL_EXTRAS = ("doublechecker", "atomizer", "races", "lockset", "profile")

#: Schema tag stamped into every report.
SCHEMA = "repro-bench/5"

#: Analyses streamed in the service benchmark block.
SERVICE_ANALYSES = ("aerodrome", "races", "lockset")

#: Concurrent-session counts measured by the service block.
SERVICE_SESSIONS = (1, 8)

#: Ring sizes compared by the cluster block (1-node vs 3-node loopback).
CLUSTER_NODE_COUNTS = (1, 3)

#: Sessions streamed through each ring by the cluster block.
CLUSTER_SESSIONS = 4

#: A timed run should last at least this long; shorter traces are
#: looped (fresh checker per iteration, loop count divided out).
_MIN_SECONDS = 0.02

#: Default scaling sweep sizes (events), run on the raytracer shape.
SCALING_SIZES = (4_000, 16_000, 64_000)


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _timed_eps(make_run, events: int, repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` timing with automatic looping for tiny traces.

    ``make_run`` returns a zero-argument callable (a fresh checker bound
    to its input); construction happens outside the timed region. Traces
    too short to time reliably are run in batches of ``iters`` fresh
    checkers per measurement, and the batch size divides out.
    """
    import gc

    gc_was_enabled = gc.isenabled()
    gc.disable()  # collector pauses are the dominant timing noise here
    try:
        run = make_run()
        start = time.perf_counter()
        run()
        best = time.perf_counter() - start
        iters = 1
        while best * iters < _MIN_SECONDS and iters < 1024:
            iters *= 2
        remaining = repeats - 1 if iters == 1 else repeats
        if iters > 1:
            best = math.inf
        for _ in range(remaining):
            runs = [make_run() for _ in range(iters)]
            gc.collect()
            start = time.perf_counter()
            for batched in runs:
                batched()
            elapsed = (time.perf_counter() - start) / iters
            if elapsed < best:
                best = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return {"seconds": best, "eps": events / best if best > 0 else math.inf}


def _violation_idx(result) -> Optional[int]:
    return result.violation.event_idx if result.violation is not None else None


def bench_case(
    name: str,
    trace: Trace,
    packed: PackedTrace,
    algorithm: str = "aerodrome",
    repeats: int = 3,
) -> Dict:
    """Time the three paths on one pre-generated trace."""
    events = list(trace.events)

    seed_result = SeedOptimizedAeroDromeChecker().run(events)
    string_result = make_checker(algorithm).run(iter(events))
    packed_result = make_checker(algorithm).run_packed(packed)

    agree = (
        seed_result.serializable
        == string_result.serializable
        == packed_result.serializable
    ) and (
        _violation_idx(seed_result)
        == _violation_idx(string_result)
        == _violation_idx(packed_result)
    )
    n = seed_result.events_processed

    seed = _timed_eps(
        lambda: (lambda c=SeedOptimizedAeroDromeChecker(): c.run(events)),
        n, repeats,
    )
    string = _timed_eps(
        lambda: (lambda c=make_checker(algorithm): c.run(iter(events))),
        n, repeats,
    )
    fast = _timed_eps(
        lambda: (lambda c=make_checker(algorithm): c.run_packed(packed)),
        n, repeats,
    )

    return {
        "name": name,
        "events": len(events),
        "events_processed": n,
        "threads": len(packed.thread_names),
        "variables": len(packed.variable_names),
        "locks": len(packed.lock_names),
        "packed_bytes": packed.nbytes(),
        "serializable": packed_result.serializable,
        "violation_idx": _violation_idx(packed_result),
        "agree": agree,
        "seed_seconds": seed["seconds"],
        "string_seconds": string["seconds"],
        "packed_seconds": fast["seconds"],
        "seed_eps": seed["eps"],
        "string_eps": string["eps"],
        "packed_eps": fast["eps"],
        "speedup_vs_seed": seed["seconds"] / fast["seconds"],
        "speedup_vs_string": string["seconds"] / fast["seconds"],
    }


def bench_session(
    packed: PackedTrace,
    algorithm: str = "aerodrome",
    repeats: int = 3,
) -> Dict:
    """One-pass vs N-pass: co-run K analyses on one sweep, or K sweeps.

    Both sides consume the same :class:`PackedTrace`. The N-pass side
    runs one single-analysis session per analysis (so the checker gets
    its own inlined hot loop); the one-pass side co-runs them all on a
    single shared sweep — the ``repro.api`` session's whole point.
    """
    names = (algorithm,) + SESSION_EXTRAS
    events = len(packed)

    def make_onepass():
        session = Session(packed, [create_analysis(n) for n in names])
        return session.run

    def make_npass():
        sessions = [Session(packed, [create_analysis(n)]) for n in names]

        def run_all():
            for session in sessions:
                session.run()

        return run_all

    onepass = _timed_eps(make_onepass, events, repeats)
    npass = _timed_eps(make_npass, events, repeats)
    return {
        "analyses": list(names),
        "onepass_seconds": onepass["seconds"],
        "npass_seconds": npass["seconds"],
        "onepass_speedup": npass["seconds"] / onepass["seconds"]
        if onepass["seconds"] > 0
        else math.inf,
    }


def bench_ingest(
    trace: Trace,
    packed: PackedTrace,
    workdir: Path,
    algorithm: str = "aerodrome",
    repeats: int = 3,
) -> Dict:
    """Cold-start split: every route from disk to an analyzable trace.

    Writes the workload once as ``.std`` text and once as
    ``repro-packed/1``, then times (best-of-``repeats``):

    * ``parse_seconds`` — text → string :class:`Trace` (the seed route);
    * ``pack_seconds`` — :class:`Trace` → :class:`PackedTrace`;
      ``parse_seconds + pack_seconds`` is the full cold start every
      pre-PR4 run paid;
    * ``parse_packed_seconds`` — the fused text→packed parser (no
      ``Event`` objects);
    * ``load_seconds`` — ``load_packed`` mmap of the ``.rpt`` file
      (O(string tables), not O(events));

    plus the one-time ``save_seconds``, and re-runs the checker on the
    reloaded and re-parsed traces to prove they analyze identically
    (the row's ``agree`` flag).
    """
    n = len(trace)
    std_path = workdir / "ingest.std"
    rpt_path = workdir / "ingest.rpt"
    save_trace(trace, std_path)
    save_start = time.perf_counter()
    save_packed(packed, rpt_path)
    save_seconds = time.perf_counter() - save_start

    parse = _timed_eps(lambda: (lambda: load_trace(std_path)), n, repeats)
    pack_t = _timed_eps(lambda: (lambda: pack(trace)), n, repeats)
    fused = _timed_eps(lambda: (lambda: parse_packed(std_path)), n, repeats)
    load = _timed_eps(lambda: (lambda: load_packed(rpt_path)), n, repeats)

    baseline = make_checker(algorithm).run_packed(packed)
    loaded_result = make_checker(algorithm).run_packed(load_packed(rpt_path))
    fused_result = make_checker(algorithm).run_packed(parse_packed(std_path))
    agree = (
        baseline.serializable
        == loaded_result.serializable
        == fused_result.serializable
    ) and (
        _violation_idx(baseline)
        == _violation_idx(loaded_result)
        == _violation_idx(fused_result)
    )

    parse_pack = parse["seconds"] + pack_t["seconds"]
    return {
        "std_bytes": std_path.stat().st_size,
        "rpt_bytes": rpt_path.stat().st_size,
        "parse_seconds": parse["seconds"],
        "pack_seconds": pack_t["seconds"],
        "parse_pack_seconds": parse_pack,
        "parse_packed_seconds": fused["seconds"],
        "save_seconds": save_seconds,
        "load_seconds": load["seconds"],
        "fused_speedup": parse_pack / fused["seconds"]
        if fused["seconds"] > 0
        else math.inf,
        "cold_start_speedup": parse_pack / load["seconds"]
        if load["seconds"] > 0
        else math.inf,
        "agree": agree,
    }


def bench_parallel(
    packed: PackedTrace,
    algorithm: str = "aerodrome",
    repeats: int = 3,
    jobs: int = 2,
) -> Dict:
    """Serial vs process-parallel co-run of one analysis set.

    Both sides drive the identical analyses over the identical
    :class:`PackedTrace`; the parallel side fans them across ``jobs``
    forked workers (which inherit the packed columns zero-copy) via
    ``Session.run(jobs=...)``. The ``agree`` flag compares the full
    ``repro-report/1`` dict of every analysis across both runs.

    Wall-clock speedup needs real cores: ``cpus`` records what the
    machine offered (on a single-CPU host the honest answer is ~1x).
    """
    names = (algorithm,) + PARALLEL_EXTRAS
    events = len(packed)

    def make_serial():
        session = Session(packed, [create_analysis(n) for n in names])
        return session.run

    def make_parallel():
        session = Session(packed, [create_analysis(n) for n in names])
        return lambda: session.run(jobs=jobs)

    serial_result = Session(packed, [create_analysis(n) for n in names]).run()
    parallel_result = Session(packed, [create_analysis(n) for n in names]).run(
        jobs=jobs
    )
    agree = [r.to_json() for r in serial_result.reports.values()] == [
        r.to_json() for r in parallel_result.reports.values()
    ]

    serial = _timed_eps(make_serial, events, repeats)
    parallel = _timed_eps(make_parallel, events, repeats)
    return {
        "analyses": list(names),
        "jobs": jobs,
        "cpus": os.cpu_count() or 1,
        "serial_seconds": serial["seconds"],
        "parallel_seconds": parallel["seconds"],
        "parallel_speedup": serial["seconds"] / parallel["seconds"]
        if parallel["seconds"] > 0
        else math.inf,
        "agree": agree,
    }


def bench_service(
    trace: Trace,
    analyses: Iterable[str] = SERVICE_ANALYSES,
    sessions: Iterable[int] = SERVICE_SESSIONS,
    batch: int = 512,
    shards: int = 2,
) -> Dict:
    """Streamed-vs-offline throughput + agreement for the service.

    This starts an in-process ``repro serve`` (in-loop shards, loopback
    TCP), then for each concurrency level streams the workload through
    that many simultaneous sessions and compares every returned
    ``repro-report/1`` document against the offline ``Session.run()``
    on the same trace. The per-row ``agree`` flags are the
    hardware-independent gate (``--check`` and CI fail on them); the
    events/sec columns only mean something on hardware with idle
    cores — same policy as the ``parallel`` block, recorded in the
    summary note on 1-CPU hosts.
    """
    import threading

    from ..service.client import submit_trace
    from ..service.server import ServiceServer

    names = list(analyses)
    events = list(trace.events)
    n = len(events)

    # One offline run serves as both the comparison document and the
    # timing baseline (a single whole-trace sweep is long enough to
    # time directly at these sizes).
    offline_start = time.perf_counter()
    offline_result = Session(trace, [create_analysis(a) for a in names]).run()
    offline_seconds = time.perf_counter() - offline_start
    offline_doc = offline_result.to_json()["analyses"]
    offline = {
        "seconds": offline_seconds,
        "eps": n / offline_seconds if offline_seconds > 0 else math.inf,
    }

    rows = []
    with ServiceServer(shards=shards).start() as server:
        for k in sessions:
            docs: List[Optional[Dict]] = [None] * k

            def stream(slot: int) -> None:
                docs[slot] = submit_trace(
                    server.host, server.port, events, names,
                    name=f"{trace.name}#{slot}", batch=batch,
                )

            start = time.perf_counter()
            if k == 1:
                stream(0)
            else:
                threads = [
                    threading.Thread(target=stream, args=(slot,))
                    for slot in range(k)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            seconds = time.perf_counter() - start
            agree = all(
                doc is not None and doc["analyses"] == offline_doc
                for doc in docs
            )
            rows.append(
                {
                    "backend": "async",
                    "sessions": k,
                    "events": n * k,
                    "seconds": seconds,
                    "events_per_second": (n * k) / seconds
                    if seconds > 0
                    else math.inf,
                    "agree": agree,
                }
            )
    return {
        "analyses": names,
        "batch": batch,
        "shards": shards,
        "backends": ["async"],
        "workload": trace.name,
        "offline_eps": offline["eps"],
        "offline_seconds": offline["seconds"],
        "sessions": rows,
        "agree": all(row["agree"] for row in rows),
    }


def bench_cluster(
    trace: Trace,
    analyses: Iterable[str] = SERVICE_ANALYSES,
    batch: int = 512,
    shards: int = 2,
    node_counts: Iterable[int] = CLUSTER_NODE_COUNTS,
    sessions: int = CLUSTER_SESSIONS,
) -> Dict:
    """Ring-routed streaming vs offline: 1-node vs N-node loopback.

    For each ring size this forms an in-process cluster (loopback
    TCP, fast gossip), streams ``sessions``
    ring-routed sessions through a :class:`~repro.cluster.ClusterClient`
    and compares every returned report against the offline
    ``Session.run()``. Same policy as the ``service`` block: the
    per-report ``agree`` flags are the hardware-independent gate; the
    events/sec columns only mean something with idle cores — on a
    loopback 1-CPU host the N-node column mostly measures the extra
    gossip and routing hops, which is itself worth recording.
    """
    from ..cluster import ClusterClient
    from ..service.server import ServiceServer

    names = list(analyses)
    events = list(trace.events)
    n = len(events)

    offline_start = time.perf_counter()
    offline_result = Session(trace, [create_analysis(a) for a in names]).run()
    offline_seconds = time.perf_counter() - offline_start
    offline_doc = offline_result.to_json()["analyses"]

    rows = []
    for count in node_counts:
        nodes: List[ServiceServer] = []
        try:
            for i in range(count):
                kwargs: Dict = dict(
                    shards=shards,
                    node_id=f"bench-{i}",
                    gossip_interval=0.1,
                    suspect_after=1.0,
                )
                if nodes:
                    kwargs["join"] = [nodes[0].address]
                else:
                    kwargs["cluster"] = True
                nodes.append(ServiceServer(**kwargs).start())
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if all(
                    len(node.cluster.stats()["ring"]["nodes"]) == count
                    for node in nodes
                ):
                    break
                time.sleep(0.05)
            client = ClusterClient(
                [node.address for node in nodes], jitter_seed=0
            )
            docs = []
            start = time.perf_counter()
            for slot in range(sessions):
                docs.append(
                    client.submit_trace(
                        events, names,
                        name=f"{trace.name}#{slot}", batch=batch,
                        session_id=f"bench-cluster-{count}-{slot}",
                    )
                )
            seconds = time.perf_counter() - start
            agree = all(doc["analyses"] == offline_doc for doc in docs)
            spread = len(
                {client.ring.owner(f"bench-cluster-{count}-{slot}")
                 for slot in range(sessions)}
            )
            rows.append(
                {
                    "nodes": count,
                    "sessions": sessions,
                    "owners_hit": spread,
                    "events": n * sessions,
                    "seconds": seconds,
                    "events_per_second": (n * sessions) / seconds
                    if seconds > 0
                    else math.inf,
                    "agree": agree,
                }
            )
        finally:
            for node in nodes:
                node.stop()
    return {
        "analyses": names,
        "batch": batch,
        "shards": shards,
        "workload": trace.name,
        "offline_eps": n / offline_seconds if offline_seconds > 0 else math.inf,
        "offline_seconds": offline_seconds,
        "rings": rows,
        "agree": all(row["agree"] for row in rows),
    }


def _row_agrees(row: Dict) -> bool:
    """Every agreement flag of one workload row, folded together."""
    ok = row["agree"]
    if "ingest" in row:
        ok = ok and row["ingest"]["agree"]
    if "parallel" in row:
        ok = ok and row["parallel"]["agree"]
    return ok


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _summary(rows: List[Dict]) -> Dict:
    if not rows:
        return {}
    speedups = [row["speedup_vs_seed"] for row in rows]
    total_seed = sum(row["seed_seconds"] for row in rows)
    total_packed = sum(row["packed_seconds"] for row in rows)
    return {
        "rows": len(rows),
        "aggregate_speedup_vs_seed": total_seed / total_packed,
        "geomean_speedup_vs_seed": math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)
        ),
        "min_speedup_vs_seed": min(speedups),
        "max_speedup_vs_seed": max(speedups),
        "rows_at_3x": sum(1 for s in speedups if s >= 3.0),
        "all_agree": all(row["agree"] for row in rows),
    }


def run_bench(
    scale: float = 1.0,
    seed: int = 7,
    repeats: int = 3,
    algorithm: str = "aerodrome",
    tables: Iterable[int] = (1, 2),
    scaling_sizes: Iterable[int] = SCALING_SIZES,
    session: bool = True,
    ingest: bool = True,
    jobs: int = 2,
    service: bool = True,
    cluster: bool = True,
    verbose: bool = True,
) -> Dict:
    """Run the full benchmark matrix and return the report dict.

    ``ingest=False`` skips the cold-start split; ``jobs`` < 2 skips the
    serial-vs-parallel session comparison; ``service=False`` skips the
    streamed-vs-offline service block; ``cluster=False`` skips the
    1-node vs 3-node ring comparison.
    """
    report: Dict = {
        "schema": SCHEMA,
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "algorithm": algorithm,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count() or 1,
        "workloads": [],
        "scaling": [],
    }
    tables = set(tables)
    cases = [c for c in TABLE1 if 1 in tables] + [c for c in TABLE2 if 2 in tables]
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        workdir = Path(tmp)
        for case in cases:
            trace = case.generate(seed=seed, scale=scale)
            pack_start = time.perf_counter()
            packed = pack(trace)
            pack_seconds = time.perf_counter() - pack_start
            row = bench_case(
                case.name, trace, packed, algorithm=algorithm, repeats=repeats
            )
            row["table"] = case.table
            row["pack_seconds"] = pack_seconds
            if ingest:
                row["ingest"] = bench_ingest(
                    trace, packed, workdir,
                    algorithm=algorithm, repeats=repeats,
                )
                # The satellite columns, hoisted for easy table reading:
                # full ingest split next to the historical pack_seconds.
                row["parse_seconds"] = row["ingest"]["parse_seconds"]
                row["load_seconds"] = row["ingest"]["load_seconds"]
                row["pack_seconds"] = row["ingest"]["pack_seconds"]
            if session:
                row["session"] = bench_session(
                    packed, algorithm=algorithm, repeats=repeats
                )
            if jobs >= 2:
                row["parallel"] = bench_parallel(
                    packed, algorithm=algorithm, repeats=repeats, jobs=jobs
                )
            report["workloads"].append(row)
            if verbose:
                flag = "" if _row_agrees(row) else "  !! DISAGREE"
                onepass = (
                    f"  1pass {row['session']['onepass_speedup']:4.2f}x"
                    if session
                    else ""
                )
                cold = (
                    f"  cold {row['ingest']['cold_start_speedup']:6.0f}x"
                    if ingest
                    else ""
                )
                par = (
                    f"  jobs{jobs} {row['parallel']['parallel_speedup']:4.2f}x"
                    if jobs >= 2
                    else ""
                )
                print(
                    f"table{case.table} {case.name:14s} {row['events']:7d} ev  "
                    f"seed {row['seed_eps']:9.0f} ev/s  "
                    f"packed {row['packed_eps']:9.0f} ev/s  "
                    f"{row['speedup_vs_seed']:5.2f}x{onepass}{cold}{par}{flag}",
                    file=sys.stderr,
                )
    # Scaling sweep: the linear-time story at growing trace lengths.
    scaling_case = CASES_BY_NAME["raytracer"]
    for size in scaling_sizes:
        trace = scaling_case.generate(seed=seed, scale=size / scaling_case.events)
        packed = pack(trace)
        row = bench_case(
            f"raytracer@{size}", trace, packed, algorithm=algorithm, repeats=repeats
        )
        report["scaling"].append(
            {
                "events": row["events"],
                "seed_eps": row["seed_eps"],
                "packed_eps": row["packed_eps"],
                "speedup_vs_seed": row["speedup_vs_seed"],
                "agree": row["agree"],
            }
        )
        if verbose:
            print(
                f"scaling {row['events']:7d} ev  "
                f"packed {row['packed_eps']:9.0f} ev/s  "
                f"{row['speedup_vs_seed']:5.2f}x",
                file=sys.stderr,
            )
    if service:
        # Streamed-vs-offline over a live loopback server, on the
        # scaling workload's shape at the current scale.
        service_case = CASES_BY_NAME["raytracer"]
        service_trace = service_case.generate(seed=seed, scale=scale)
        report["service"] = bench_service(service_trace)
        if verbose:
            for row in report["service"]["sessions"]:
                flag = "" if row["agree"] else "  !! DISAGREE"
                print(
                    f"service {row['sessions']}x{row['events'] // row['sessions']:6d} ev  "
                    f"streamed {row['events_per_second']:9.0f} ev/s  "
                    f"offline {report['service']['offline_eps']:9.0f} ev/s"
                    f"{flag}",
                    file=sys.stderr,
                )
    if cluster:
        # The ring-routed repeat of the service comparison: the same
        # workload streamed through 1-node and 3-node loopback rings.
        cluster_case = CASES_BY_NAME["raytracer"]
        cluster_trace = cluster_case.generate(seed=seed, scale=scale)
        report["cluster"] = bench_cluster(cluster_trace)
        if verbose:
            for row in report["cluster"]["rings"]:
                flag = "" if row["agree"] else "  !! DISAGREE"
                print(
                    f"cluster {row['nodes']}-node "
                    f"{row['sessions']}x{row['events'] // row['sessions']:6d} ev  "
                    f"streamed {row['events_per_second']:9.0f} ev/s  "
                    f"owners {row['owners_hit']}{flag}",
                    file=sys.stderr,
                )
    table1_rows = [r for r in report["workloads"] if r["table"] == 1]
    table2_rows = [r for r in report["workloads"] if r["table"] == 2]
    report["summary"] = {
        "table1": _summary(table1_rows),
        "table2": _summary(table2_rows),
        "all_agree": all(_row_agrees(r) for r in report["workloads"])
        and all(r["agree"] for r in report["scaling"])
        and (report.get("service", {}).get("agree", True))
        and (report.get("cluster", {}).get("agree", True)),
    }
    if service:
        block = report["service"]
        report["summary"]["service"] = {
            "analyses": block["analyses"],
            "offline_eps": block["offline_eps"],
            "streamed_eps": {
                str(row["sessions"]): row["events_per_second"]
                for row in block["sessions"]
            },
            "all_agree": block["agree"],
        }
        if (os.cpu_count() or 1) < 2:
            report["summary"]["service"]["note"] = (
                "single-CPU host: streamed events/sec rides one core "
                "plus wire overhead, so streamed < offline is expected "
                "here; the agree flags (streamed report equality with "
                "the offline session) are the hardware-independent gate"
            )
    if cluster:
        block = report["cluster"]
        report["summary"]["cluster"] = {
            "analyses": block["analyses"],
            "offline_eps": block["offline_eps"],
            "streamed_eps": {
                str(row["nodes"]): row["events_per_second"]
                for row in block["rings"]
            },
            "all_agree": block["agree"],
        }
        if (os.cpu_count() or 1) < 2:
            report["summary"]["cluster"]["note"] = (
                "single-CPU host: every ring node time-slices one core, "
                "so the 3-node column mostly prices the gossip and "
                "routing hops; the agree flags (ring-routed report "
                "equality with the offline session) are the "
                "hardware-independent gate"
            )
    session_speedups = [
        r["session"]["onepass_speedup"]
        for r in report["workloads"]
        if "session" in r
    ]
    if session_speedups:
        report["summary"]["session_onepass_geomean"] = _geomean(session_speedups)
    ingest_rows = [r for r in report["workloads"] if "ingest" in r]
    if ingest_rows:
        cold = [r["ingest"]["cold_start_speedup"] for r in ingest_rows]
        t1_cold = [
            r["ingest"]["cold_start_speedup"]
            for r in ingest_rows
            if r["table"] == 1
        ]
        report["summary"]["ingest"] = {
            "geomean_cold_start_speedup": _geomean(cold),
            "min_cold_start_speedup": min(cold),
            "table1_min_cold_start_speedup": min(t1_cold) if t1_cold else None,
            "geomean_fused_parse_speedup": _geomean(
                [r["ingest"]["fused_speedup"] for r in ingest_rows]
            ),
            "all_agree": all(r["ingest"]["agree"] for r in ingest_rows),
        }
    parallel_rows = [r for r in report["workloads"] if "parallel" in r]
    if parallel_rows:
        speedups = [r["parallel"]["parallel_speedup"] for r in parallel_rows]
        cpus = os.cpu_count() or 1
        report["summary"]["parallel"] = {
            "jobs": parallel_rows[0]["parallel"]["jobs"],
            "cpus": cpus,
            "analyses": parallel_rows[0]["parallel"]["analyses"],
            "geomean_parallel_speedup": _geomean(speedups),
            "min_parallel_speedup": min(speedups),
            "max_parallel_speedup": max(speedups),
            "all_agree": all(r["parallel"]["agree"] for r in parallel_rows),
        }
        if cpus < 2:
            # Wall-clock speedup needs idle cores; say so in the artifact
            # instead of letting a <1x column read as a defect.
            report["summary"]["parallel"]["note"] = (
                "single-CPU host: workers time-slice one core, so "
                "wall-clock speedup <= 1x is expected here; the agree "
                "flags (serial/parallel report equality) are the "
                "hardware-independent gate"
            )
    report["peak_rss_kb"] = _peak_rss_kb()
    return report


def write_report(report: Dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")


def print_summary(report: Dict) -> None:
    """Print the human-readable digest of a :func:`run_bench` report."""
    summary = report["summary"]
    table1 = summary.get("table1") or {}
    if table1:
        print(
            f"table1: {table1['aggregate_speedup_vs_seed']:.2f}x aggregate, "
            f"{table1['geomean_speedup_vs_seed']:.2f}x geomean, "
            f"{table1['rows_at_3x']}/{table1['rows']} rows at 3x"
        )
    ingest = summary.get("ingest") or {}
    if ingest:
        from .reporting import format_ingest_split

        print(format_ingest_split(report["workloads"], title="Cold-start split"))
        print(
            f"ingest: load_packed cold start {ingest['geomean_cold_start_speedup']:.0f}x "
            f"geomean (min {ingest['min_cold_start_speedup']:.0f}x) vs parse+pack; "
            f"fused parse {ingest['geomean_fused_parse_speedup']:.2f}x"
        )
    parallel = summary.get("parallel") or {}
    if parallel:
        from .reporting import format_parallel

        print(format_parallel(report["workloads"], title="Parallel sessions"))
        print(
            f"parallel: jobs={parallel['jobs']} on {parallel['cpus']} cpu(s), "
            f"{parallel['geomean_parallel_speedup']:.2f}x geomean session speedup, "
            f"agree={parallel['all_agree']}"
        )
    service_summary = summary.get("service") or {}
    if service_summary:
        from .reporting import format_service

        print(format_service(report["service"], title="Streaming service"))
        streamed = ", ".join(
            f"{k} session(s) {eps:.0f} ev/s"
            for k, eps in service_summary["streamed_eps"].items()
        )
        print(
            f"service: offline {service_summary['offline_eps']:.0f} ev/s; "
            f"streamed {streamed}; agree={service_summary['all_agree']}"
        )
    cluster_summary = summary.get("cluster") or {}
    if cluster_summary:
        ring_eps = ", ".join(
            f"{k}-node {eps:.0f} ev/s"
            for k, eps in cluster_summary["streamed_eps"].items()
        )
        print(
            f"cluster: offline {cluster_summary['offline_eps']:.0f} ev/s; "
            f"{ring_eps}; agree={cluster_summary['all_agree']}"
        )
