"""Command-line interface.

Mirrors the paper artifact's workflow (Appendix D):

* ``repro metainfo trace.std`` — RAPID's MetaInfo analysis;
* ``repro check trace.std --analysis aerodrome,races,lockset`` — run any
  set of registered analyses on one trace ingest;
* ``repro generate sunflow -o sunflow.std`` — produce a benchmark analog
  trace (the RoadRunner logging + atomicity-spec filtering stage);
* ``repro table1`` / ``repro table2`` — regenerate the paper's tables;
* ``repro scaling`` — the linear-vs-cubic scaling sweep;
* ``repro algorithms`` — list every registered analysis.

The analysis verbs — ``check``, ``races``, ``lockset``, ``viewserial``,
``causal``, ``profile``, ``violations``, ``explain`` — are thin wrappers
over one :class:`repro.api.Session` run each: the trace is ingested
once, every requested analysis rides the same sweep, and ``--json``
emits the versioned ``repro-report/1`` document (see ``docs/API.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Union

from .api.analysis import Analysis, CheckerAnalysis
from .api.registry import available_analyses, checker_names
from .api.report import SessionResult
from .api.session import Session
from .analysis.minimize import minimize_violation
from .analysis.graph_export import event_graph_dot, save_dot, transaction_graph_dot
from .analysis.profile import format_profile
from .analysis.timeline import render_with_verdict
from .bench.harness import run_scaling, run_table
from .bench.memory import format_growth, sample_state_growth
from .bench.reporting import format_comparison, format_scaling, format_table
from .baselines.atomizer import atomizer_warnings
from .sim.workloads.benchmarks import ALL_CASES, TABLE1, TABLE2, get_case
from .spec.inference import InferenceError, infer_spec
from .trace.binary import BinaryTraceError, load_binary, save_binary
from .trace.metainfo import metainfo
from .trace.packed import PackedTrace, pack
from .trace.packed_io import PackedTraceError, load_any, save_packed
from .trace.parser import TraceParseError, load_trace
from .trace.trace import Trace
from .trace.wellformed import WellFormednessError, validate
from .trace.writer import save_trace

_EPILOG = (
    "Session/Analysis API, run modes and the repro-report/1 JSON schema "
    "are documented in docs/API.md. Trace files are sniffed by magic "
    "bytes: .std text, REPROTR1 binary (.rtb), and the zero-copy "
    "repro-packed/1 column store (.rpt — write one with 'repro pack', "
    "spec in docs/PERF.md) all load interchangeably. --jobs N fans a "
    "multi-analysis session across N worker processes (docs/API.md, "
    "'Parallel execution')."
)


def _load(path: str) -> Union[Trace, PackedTrace]:
    """Load a trace of any format, sniffing the magic bytes.

    ``repro-packed/1`` files come back as mmap-backed packed traces
    (already compiled — analyses take the packed fast path with zero
    per-event ingest work); ``REPROTR1`` binary and ``.std`` text come
    back as string traces. Unreadable or corrupt inputs exit with a
    diagnostic instead of a traceback — they are user errors, not bugs.
    """
    try:
        return load_any(path)
    except (
        PackedTraceError, BinaryTraceError, TraceParseError, OSError
    ) as error:
        print(f"cannot load {path}: {error}", file=sys.stderr)
        raise SystemExit(2)


def _run_session(
    args: argparse.Namespace,
    analyses: Sequence[Union[str, Analysis]],
    trace: Optional[Union[Trace, PackedTrace]] = None,
) -> SessionResult:
    """One Session.run() — the shared engine behind every analysis verb."""
    if trace is None:
        trace = _load(args.trace)
    events = pack(trace) if getattr(args, "packed", False) else trace
    try:
        session = Session(events, analyses, path=getattr(args, "trace", None))
    except (ValueError, TypeError) as error:
        print(error, file=sys.stderr)
        raise SystemExit(2)
    return session.run(jobs=getattr(args, "jobs", 1))


def _emit_json(result: SessionResult) -> None:
    print(json.dumps(result.to_json(), indent=2))


def _cmd_check(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    # repro-packed/1 input skips the well-formedness sweep: the store
    # was validated at pack time, and re-validating would reconstruct
    # every Event — exactly the O(n) cold start the format eliminates.
    if not args.no_validate and not isinstance(trace, PackedTrace):
        try:
            validate(trace)
        except WellFormednessError as error:
            print(f"ill-formed trace: {error}", file=sys.stderr)
            return 2
    requested = args.analysis or "aerodrome"
    names = [name.strip() for name in requested.split(",") if name.strip()]
    result = _run_session(args, names, trace=trace)
    if args.json:
        _emit_json(result)
    elif len(result.reports) == 1:
        report = next(iter(result.reports.values()))
        # Single-checker runs keep the historical CheckResult line.
        print(report.native if report.kind == "checker" else report.summary)
    else:
        for report in result.reports.values():
            print(f"[{report.analysis}] {report.summary}")
    # Same convention as the dedicated verbs: 2 = could not decide.
    return {"pass": 0, "fail": 1, "undecided": 2}[result.verdict_label]


def _cmd_pack(args: argparse.Namespace) -> int:
    from .trace.packed_io import parse_packed, sniff_format

    try:
        kind = sniff_format(args.trace)
        if kind == "text":
            # Fused text->packed parse: no Event objects on the way in.
            packed = parse_packed(args.trace)
        else:
            packed = pack(_load(args.trace))
    except (
        PackedTraceError, BinaryTraceError, TraceParseError, OSError
    ) as error:
        print(f"cannot pack {args.trace}: {error}", file=sys.stderr)
        return 2
    if not args.no_validate:
        # Well-formedness is checked once here, so `repro check` can
        # trust .rpt files and skip the O(n) validation sweep forever.
        try:
            validate(packed)
        except WellFormednessError as error:
            print(f"ill-formed trace: {error}", file=sys.stderr)
            return 2
    save_packed(packed, args.output)
    from pathlib import Path as _Path

    size = _Path(args.output).stat().st_size
    print(
        f"packed {len(packed)} events "
        f"({len(packed.thread_names)} threads, "
        f"{len(packed.variable_names)} variables, "
        f"{len(packed.lock_names)} locks) -> {args.output} ({size} bytes)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import ServiceServer

    try:
        server = ServiceServer(
            host=args.host,
            port=args.port,
            shards=args.shards,
            spool=args.spool,
            checkpoint_every=args.checkpoint_every,
            read_timeout=args.read_timeout or None,
            cluster=args.cluster,
            join=args.join or (),
            node_id=args.node_id,
            advertise=args.advertise,
            vnodes=args.vnodes,
            gossip_interval=args.gossip_interval,
            suspect_after=args.suspect_after,
            metrics_port=args.metrics_port,
        )
    except OSError as error:
        print(f"cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    if server.cluster is not None:
        print(
            f"cluster node {server.cluster.node_id} "
            f"(advertising {server.cluster.info.address})",
            file=sys.stderr,
        )
    if server.recovered:
        print(
            f"recovered {len(server.recovered)} session(s) from spool: "
            + ", ".join(server.recovered),
            file=sys.stderr,
        )
    for entry in server.salvaged:
        print(
            f"salvaged corrupt spool entry {entry['file']}: "
            f"{entry['reason']}",
            file=sys.stderr,
        )
    if server.metrics_port is not None:
        print(
            f"metrics on http://{server.host}:{server.metrics_port}/metrics",
            file=sys.stderr,
        )
    print(f"listening on {server.host}:{server.port}", flush=True)
    if args.ready_file:
        # Write then rename: a script polling for the file never reads
        # it half-written.
        partial = f"{args.ready_file}.partial"
        with open(partial, "w") as handle:
            handle.write(f"{server.host} {server.port}\n")
        os.replace(partial, args.ready_file)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    except RuntimeError as error:
        # e.g. no --join seed could be reached within the retry budget
        print(f"serve failed: {error}", file=sys.stderr)
        return 2
    finally:
        server.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import (
        DeadlineExceeded,
        ServiceError,
        ServiceUnreachable,
        submit_trace,
    )
    from .service.protocol import WireError

    trace = _load(args.trace)
    names = [n.strip() for n in args.analysis.split(",") if n.strip()]
    if not names:
        print("--analysis needs at least one name", file=sys.stderr)
        return 2
    try:
        if args.nodes:
            # Ring-aware routing across a cluster of serve nodes.
            from .cluster import ClusterClient

            client = ClusterClient(
                [a.strip() for a in args.nodes.split(",") if a.strip()]
            )
            doc = client.submit_trace(
                iter(trace),
                names,
                name=getattr(trace, "name", None) or "trace",
                batch=args.batch,
                session_id=args.session_id,
                resume=args.resume,
                stop_after=args.stop_after,
                checkpoint=args.stop_after is not None,
                deadline=args.deadline,
            )
        else:
            doc = submit_trace(
                args.host,
                args.port,
                iter(trace),
                names,
                name=getattr(trace, "name", None) or "trace",
                batch=args.batch,
                session_id=args.session_id,
                resume=args.resume,
                lenient=args.lenient,
                stop_after=args.stop_after,
                checkpoint=args.stop_after is not None,
                deadline=args.deadline,
            )
    except ServiceUnreachable:
        print(
            f"no service at {args.host}:{args.port} "
            "(is 'repro serve' running?)",
            file=sys.stderr,
        )
        return 3
    except DeadlineExceeded:
        print(
            f"deadline of {args.deadline:g}s expired before the report "
            "arrived; the session may still be resumable with --resume",
            file=sys.stderr,
        )
        return 4
    except (ServiceError, WireError, OSError) as error:
        print(f"submit failed: {error}", file=sys.stderr)
        return 2
    if doc.get("open"):
        # --stop-after: the stream was cut on purpose; report position.
        print(
            f"session {doc['session']} checkpointed and left open "
            f"at position {doc['position']}"
        )
        return 0
    doc["trace"]["path"] = args.trace  # the server never saw the path
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for entry in doc["analyses"]:
            print(f"[{entry['analysis']}] {entry['summary']}")
    if doc.get("service", {}).get("restarted_from_zero"):
        # A lenient resume found nothing recoverable and the whole
        # stream was re-sent. The report is still correct, but the
        # durability loss must never be silent.
        print(
            f"warning: session {doc['service'].get('session')} restarted "
            "from zero (no recoverable checkpoint); the full stream was "
            "re-sent",
            file=sys.stderr,
        )
        return 5
    return {"pass": 0, "fail": 1, "undecided": 2}[doc["verdict"]]


def _cmd_service_stats(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError, ServiceUnreachable
    from .service.protocol import WireError

    try:
        with ServiceClient(args.host, args.port) as client:
            stats = client.stats()
    except ServiceUnreachable:
        # Same typed diagnostic + exit code as `repro submit`: an
        # unreachable node is an environment problem, not a stats one.
        print(
            f"no service at {args.host}:{args.port} "
            "(is 'repro serve' running?)",
            file=sys.stderr,
        )
        return 3
    except (ServiceError, WireError, OSError) as error:
        print(f"cannot reach {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    if args.format == "prom":
        from .obs.metrics import stats_to_prom

        print(stats_to_prom(stats), end="")
    else:
        print(json.dumps(stats, indent=2))
    return 0


def _cmd_experiment_run(args: argparse.Namespace) -> int:
    from .obs.experiment import ExperimentError, run_experiment

    analyses = [n.strip() for n in args.analyses.split(",") if n.strip()]
    if not analyses:
        print("--analyses needs at least one name", file=sys.stderr)
        return 2
    try:
        run = run_experiment(
            args.workload,
            seed=args.seed,
            scale=args.scale,
            analyses=analyses,
            out=args.out,
            run_id=args.run_id,
            wall_clock=args.wall_clock,
        )
    except (ExperimentError, KeyError, ValueError, OSError) as error:
        print(f"experiment failed: {error}", file=sys.stderr)
        return 2
    manifest = run["manifest"]
    print(f"run {run['run_id']} -> {run['run_dir']}")
    print(
        f"  verdict={manifest['verdict']} events={manifest['events']} "
        f"spans={manifest['spans']}"
    )
    print(f"  config_hash={run['experiment']['config_hash']}")
    if args.json:
        print(json.dumps(manifest, indent=2))
    return 0


def _cmd_experiment_show(args: argparse.Namespace) -> int:
    run_dir = args.run
    if not os.path.isdir(run_dir):
        # A bare run id resolves under --out, matching `experiment list`.
        candidate = os.path.join(args.out, run_dir)
        if os.path.isdir(candidate):
            run_dir = candidate
        else:
            print(f"not a run directory: {run_dir}", file=sys.stderr)
            return 2
    if args.spans:
        trace_path = os.path.join(run_dir, "trace.jsonl")
        try:
            with open(trace_path, "r", encoding="utf-8") as fh:
                sys.stdout.write(fh.read())
        except OSError as error:
            print(f"no span log: {error}", file=sys.stderr)
            return 2
        return 0
    md_path = os.path.join(run_dir, "report.md")
    try:
        with open(md_path, "r", encoding="utf-8") as fh:
            sys.stdout.write(fh.read())
    except OSError as error:
        print(f"no report: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_experiment_list(args: argparse.Namespace) -> int:
    root = args.out
    if not os.path.isdir(root):
        print(f"no runs under {root}")
        return 0
    rows = []
    for name in sorted(os.listdir(root)):
        manifest_path = os.path.join(root, name, "manifest.json")
        if not os.path.isfile(manifest_path):
            continue
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        rows.append((name, manifest))
    if not rows:
        print(f"no runs under {root}")
        return 0
    for name, manifest in rows:
        kind = manifest.get("kind", "experiment")
        print(
            f"{name}  kind={kind} verdict={manifest.get('verdict')} "
            f"config={str(manifest.get('config_hash'))[:12]}"
        )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .obs.experiment import DiffError, diff_runs, format_diff

    try:
        diff = diff_runs(args.run_a, args.run_b)
    except DiffError as error:
        print(f"diff failed: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(format_diff(diff))
    return 0 if diff["equal"] else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults.plan import FaultPlanError, load_plan
    from .faults.scenarios import (
        SCENARIOS,
        run_plan_drill,
        run_scenario,
    )

    if args.cluster:
        return _cmd_chaos_cluster(args)
    if args.list:
        for name, fn in SCENARIOS.items():
            print(f"{name}: {' '.join((fn.__doc__ or '').split())}")
        return 0
    if not args.scenario and not args.plan:
        print(
            "pick --scenario NAME (see --list), --scenario all, "
            "or --plan FILE.json",
            file=sys.stderr,
        )
        return 2
    results = []
    if args.plan:
        try:
            plan = load_plan(args.plan)
        except FaultPlanError as error:
            print(f"bad fault plan: {error}", file=sys.stderr)
            return 2
        if args.seed is not None:
            plan.seed = args.seed
            plan.rng.seed(args.seed)
        results.append(run_plan_drill(plan))
    if args.scenario:
        seed = args.seed if args.seed is not None else 7207
        names = (
            list(SCENARIOS) if args.scenario == "all" else [args.scenario]
        )
        for name in names:
            if name not in SCENARIOS:
                print(
                    f"unknown scenario {name!r} "
                    f"(known: {', '.join(SCENARIOS)}, all)",
                    file=sys.stderr,
                )
                return 2
            results.append(run_scenario(name, seed=seed))
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        for result in results:
            mark = "ok" if result.ok else "FAIL"
            print(
                f"[{mark}] {result.name} (seed {result.seed}) -> "
                f"{result.outcome}: {result.detail}"
            )
            if not result.ok:
                for line in result.checks:
                    print(f"       {line}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_chaos_cluster(args: argparse.Namespace) -> int:
    """``repro chaos --cluster``: the netsim partition drill matrix."""
    from .faults.netsim import CLUSTER_SCENARIOS, run_cluster_scenario

    if args.list:
        for name, fn in CLUSTER_SCENARIOS.items():
            print(f"{name}: {' '.join((fn.__doc__ or '').split())}")
        return 0
    if args.plan:
        print(
            "--plan drives the single-node drill; the cluster matrix "
            "builds its own seeded partition schedules (--scenario "
            "NAME or all)",
            file=sys.stderr,
        )
        return 2
    seed = args.seed if args.seed is not None else 7207
    scenario = args.scenario or "all"
    names = (
        list(CLUSTER_SCENARIOS) if scenario == "all" else [scenario]
    )
    results = []
    for name in names:
        if name not in CLUSTER_SCENARIOS:
            print(
                f"unknown cluster scenario {name!r} "
                f"(known: {', '.join(CLUSTER_SCENARIOS)}, all)",
                file=sys.stderr,
            )
            return 2
        results.append(run_cluster_scenario(name, seed=seed))
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        for result in results:
            mark = "ok" if result.ok else "FAIL"
            print(
                f"[{mark}] {result.name} (seed {result.seed}) -> "
                f"{result.outcome}: {result.detail} "
                f"[{len(result.injected)} faults injected]"
            )
            if not result.ok:
                for line in result.checks:
                    print(f"       {line}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_metainfo(args: argparse.Namespace) -> int:
    info = metainfo(_load(args.trace))
    print(info)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    case = get_case(args.benchmark)
    trace = case.generate(seed=args.seed, scale=args.scale)
    if args.binary or str(args.output).endswith(".rtb"):
        save_binary(trace, args.output)
    else:
        save_trace(trace, args.output)
    print(f"wrote {len(trace)} events to {args.output}")
    return 0


def _table_command(args: argparse.Namespace, cases) -> int:
    results = run_table(
        cases, seed=args.seed, scale=args.scale, timeout=args.timeout,
        jobs=args.jobs,
    )
    print(format_table(results, title=f"Measured (scale={args.scale})"))
    print()
    print(format_comparison(results, title="Paper vs. measured"))
    mismatches = [r for r in results if not r.verdicts_agree]
    if mismatches:
        print(
            "verdict disagreement on: "
            + ", ".join(r.case.name for r in mismatches),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported here: the harness costs every `repro serve` start-up
    # ~30 ms of imports it never uses.
    from .bench.perf import (
        SCALING_SIZES,
        print_summary,
        run_bench,
        write_report,
    )

    report = run_bench(
        scale=args.scale,
        seed=args.seed,
        repeats=args.repeats,
        algorithm=args.algorithm,
        tables=args.tables,
        scaling_sizes=() if args.no_scaling else SCALING_SIZES,
        session=not args.no_session,
        ingest=not args.no_ingest,
        jobs=args.jobs,
        service=not args.no_service,
        cluster=not args.no_cluster,
    )
    write_report(report, args.output)
    if not args.no_runs_dir and args.runs_dir:
        # The flat artifact stays for backward compatibility; the
        # run-id directory is the 'repro diff'-able golden path.
        from .obs.experiment import store_bench_run

        stored = store_bench_run(report, args.runs_dir)
        print(f"run {stored['run_id']} -> {stored['run_dir']}")
    print_summary(report)
    all_agree = report["summary"]["all_agree"]
    print(f"wrote {args.output} (all_agree={all_agree})")
    if args.check and not all_agree:
        print(
            "FAIL: a path disagrees (packed/string, reloaded, or parallel)",
            file=sys.stderr,
        )
        return 1
    return 0


def _bench_tables(value: str) -> tuple:
    """``--tables`` parser: comma-separated paper tables, 1 and/or 2."""
    try:
        tables = tuple(int(t) for t in value.split(",") if t)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated table numbers, got {value!r}"
        ) from None
    if not set(tables) <= {1, 2}:
        raise argparse.ArgumentTypeError(
            f"knows tables 1 and 2, got {value!r}"
        )
    return tables


def _cmd_scaling(args: argparse.Namespace) -> int:
    case = get_case(args.benchmark)
    sizes = [int(s) for s in args.sizes.split(",")]
    points = run_scaling(case, sizes, seed=args.seed, timeout=args.timeout)
    print(format_scaling(points, title=f"Scaling on {case.name!r}"))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    result = _run_session(args, ["explain"])
    report = result.reports["explain"]
    if args.json:
        _emit_json(result)
        return 0 if report.ok else 1
    explanation = report.native
    if explanation is None:
        print("conflict serializable: nothing to explain")
        return 0
    print(explanation.render())
    return 1


def _cmd_races(args: argparse.Namespace) -> int:
    result = _run_session(args, ["races"])
    report = result.reports["races"]
    if args.json:
        _emit_json(result)
        return 0 if report.ok else 1
    races = report.native
    if not races:
        print("no happens-before data races")
        return 0
    for race in races:
        print(race)
    print(f"{len(races)} race(s) on {len({r.variable for r in races})} variable(s)")
    return 1


def _cmd_causal(args: argparse.Namespace) -> int:
    result = _run_session(args, ["causal"])
    report = result.reports["causal"]
    if args.json:
        _emit_json(result)
        return 0 if report.ok else 1
    print(report.native)
    return 0 if report.ok else 1


def _cmd_algorithms(args: argparse.Namespace) -> int:
    if args.checkers:
        for name in checker_names():
            print(name)
        return 0
    from .api.registry import analysis_specs

    for spec in analysis_specs():
        print(f"{spec.name:<18} [{spec.kind}] {spec.summary}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .api.analysis import ProfileAnalysis

    result = _run_session(args, [ProfileAnalysis(top=args.top)])
    report = result.reports["profile"]
    if args.json:
        _emit_json(result)
        return 0
    print(format_profile(report.native, top=args.top))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    if args.events:
        dot = event_graph_dot(trace)
    else:
        dot = transaction_graph_dot(trace, include_unary=args.include_unary)
    if args.output:
        save_dot(dot, args.output)
        print(f"wrote {args.output}")
    else:
        print(dot)
    return 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    from .sim import trace_zoo

    if args.name is None:
        for specimen in trace_zoo.all_specimens():
            verdict = "✓" if specimen.conflict_serializable else "✗"
            print(f"{verdict} {specimen.name:<22} {specimen.description}")
        return 0
    try:
        specimen = trace_zoo.get(args.name)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    trace = specimen.trace()
    if args.output:
        save_trace(trace, args.output)
        print(f"wrote {len(trace)} events to {args.output}")
    elif args.render:
        print(render_with_verdict(trace))
    else:
        for event in trace:
            print(event)
    return 0


def _cmd_violations(args: argparse.Namespace) -> int:
    analysis = CheckerAnalysis(
        args.algorithm,
        mode="report_all",
        dedupe=args.dedupe,
        limit=args.limit,
    )
    result = _run_session(args, [analysis])
    report = result.reports[args.algorithm]
    if args.json:
        _emit_json(result)
        return 0 if report.ok else 1
    violations = report.native
    for violation in violations:
        print(violation)
    print(f"{len(violations)} violation report(s)")
    return 0 if not violations else 1


def _cmd_atomizer(args: argparse.Namespace) -> int:
    warnings = atomizer_warnings(_load(args.trace))
    for warning in warnings:
        print(warning)
    print(f"{len(warnings)} reduction warning(s)")
    return 0 if not warnings else 1


def _cmd_lockset(args: argparse.Namespace) -> int:
    result = _run_session(args, ["lockset"])
    report = result.reports["lockset"]
    if args.json:
        _emit_json(result)
        return 0 if report.ok else 1
    for warning in report.native.warnings:
        print(warning)
    print(f"{len(report.native.warnings)} lockset warning(s)")
    return 0 if report.ok else 1


def _cmd_minimize(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    try:
        minimized = minimize_violation(trace, algorithm=args.algorithm)
    except ValueError as error:
        print(f"cannot minimize: {error}", file=sys.stderr)
        return 2
    print(
        f"minimized {len(trace)} -> {len(minimized)} events "
        f"({len(trace) - len(minimized)} removed)"
    )
    if args.output:
        save_trace(minimized, args.output)
        print(f"wrote {args.output}")
    else:
        print(render_with_verdict(minimized, algorithm=args.algorithm))
    return 0


def _cmd_memory(args: argparse.Namespace) -> int:
    points = sample_state_growth(
        _load(args.trace), algorithm=args.algorithm, samples=args.samples
    )
    print(f"[{args.algorithm}] state growth:")
    print(format_growth(points))
    return 0


def _cmd_inferspec(args: argparse.Namespace) -> int:
    from .spec.atomicity_spec import save_spec

    trace = _load(args.trace)
    try:
        inferred = infer_spec(trace, algorithm=args.algorithm)
    except InferenceError as error:
        print(f"inference failed: {error}", file=sys.stderr)
        return 2
    print(inferred)
    for method, violation in inferred.removed:
        print(f"  refuted {method}: {violation}")
    if args.output:
        save_spec(inferred.spec, args.output)
        print(f"wrote spec to {args.output}")
    return 0 if not inferred.removed else 1


def _cmd_serialize(args: argparse.Namespace) -> int:
    from .analysis.serial_witness import serial_witness

    trace = _load(args.trace)
    witness = serial_witness(trace)
    if witness is None:
        print("not conflict serializable: no serial witness", file=sys.stderr)
        return 1
    if args.output:
        save_trace(witness, args.output)
        print(f"wrote equivalent serial execution to {args.output}")
    else:
        for event in witness:
            print(event)
    return 0


def _cmd_viewserial(args: argparse.Namespace) -> int:
    result = _run_session(args, ["viewserial"])
    report = result.reports["viewserial"]
    if args.json:
        _emit_json(result)
        return {True: 0, False: 1, None: 2}[report.verdict]
    if report.verdict is None:
        print(report.summary, file=sys.stderr)
        return 2
    print(report.summary)
    return 0 if report.verdict else 1


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    """The common surface every session-backed verb shares."""
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-report/1 JSON document instead of text",
    )
    parser.add_argument(
        "--packed",
        action="store_true",
        help="compile the trace once and run the packed fast path",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan the analyses across N worker processes "
        "(0 = one per CPU; needs 2+ analyses to matter)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AeroDrome reproduction: atomicity checking on traces",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check",
        help="run one or more analyses over a trace (one ingest)",
        epilog=_EPILOG,
    )
    check.add_argument("trace", help="path to a .std trace file")
    check.add_argument(
        "--analysis",
        metavar="A,B,C",
        help="comma-separated registered analyses to co-run on one sweep, "
        f"default aerodrome (any of: {', '.join(available_analyses())})",
    )
    check.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the well-formedness check",
    )
    _add_session_flags(check)
    check.set_defaults(func=_cmd_check)

    pack_cmd = sub.add_parser(
        "pack",
        help="compile a trace to the zero-copy repro-packed/1 column store",
        epilog="Check the result directly: repro check file.rpt "
        "(formats are sniffed by magic bytes). Spec in docs/PERF.md.",
    )
    pack_cmd.add_argument("trace", help="source trace (.std text or .rtb binary)")
    pack_cmd.add_argument(
        "-o", "--output", required=True,
        help="destination .rpt file (mmap-loadable, pack once analyze many)",
    )
    pack_cmd.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the one-time well-formedness check "
        "(checking .rpt files later never re-validates)",
    )
    pack_cmd.set_defaults(func=_cmd_pack)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant streaming analysis service",
        epilog="Wire format, lifecycle and recovery semantics are "
        "documented in docs/SERVICE.md. Stream a trace to a running "
        "server with 'repro submit'.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7207,
        help="TCP port (0 = pick a free one; printed on startup)",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="share-nothing shards sessions hash across (each runs "
        "inline on the server's event loop)",
    )
    serve.add_argument(
        "--spool", default=None, metavar="DIR",
        help="checkpoint spool directory: enables durable recovery "
        "(restart resumes every open session from its last checkpoint)",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=1000, metavar="N",
        help="auto-checkpoint each session every N events (with --spool)",
    )
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write 'host port' here once listening (for scripts/CI)",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=600.0, metavar="SECONDS",
        help="per-connection read timeout: a stalled client is dropped "
        "with a typed ERROR instead of holding its connection open "
        "(0 disables)",
    )
    # The selectors event loop is the only front end; the option stays
    # so scripts that spell it out keep working.
    serve.add_argument(
        "--backend", choices=("async",), default="async",
        help=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--cluster", action="store_true",
        help="serve as a cluster node (a ring of one until peers join)",
    )
    serve.add_argument(
        "--join", action="append", default=None, metavar="HOST:PORT",
        help="join the cluster through this peer (repeatable; implies "
        "--cluster)",
    )
    serve.add_argument(
        "--node-id", default=None, metavar="ID",
        help="stable cluster node id (default: the advertised host:port)",
    )
    serve.add_argument(
        "--advertise", default=None, metavar="HOST:PORT",
        help="address peers and clients reach this node at, when it "
        "differs from the bind address",
    )
    serve.add_argument(
        "--vnodes", type=int, default=None, metavar="N",
        help="virtual ring points per node (must match across the "
        "cluster; default 64)",
    )
    serve.add_argument(
        "--gossip-interval", type=float, default=None, metavar="SECONDS",
        help="seconds between membership gossip / rebalance ticks",
    )
    serve.add_argument(
        "--suspect-after", type=float, default=None, metavar="SECONDS",
        help="declare a silent peer dead after this long (default 4 "
        "gossip intervals) — the failover trigger",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve Prometheus text on "
        "http://HOST:PORT/metrics (0 = pick a free one; the metric "
        "catalog is documented in docs/OBSERVABILITY.md)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="stream a trace to a running service and print the report",
        epilog="Exit codes follow the session verdict like 'repro check' "
        "(0 pass, 1 fail, 2 undecided); 3 = the server is unreachable, "
        "4 = --deadline expired, 5 = the report is correct but the "
        "session restarted from zero (a lenient resume found no "
        "recoverable checkpoint). See docs/SERVICE.md.",
    )
    submit.add_argument("trace", help="trace file (.std/.rtb/.rpt)")
    submit.add_argument(
        "--analysis", default="aerodrome", metavar="A,B,C",
        help="analyses the remote session runs "
        f"(any of: {', '.join(available_analyses())})",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7207)
    submit.add_argument(
        "--nodes", default=None, metavar="H:P,H:P,...",
        help="cluster seed addresses: route the session to its ring "
        "owner, follow REDIRECTs, and survive node loss (overrides "
        "--host/--port)",
    )
    submit.add_argument(
        "--batch", type=int, default=512, help="events per EVENTS frame"
    )
    submit.add_argument(
        "--session-id", default=None,
        help="pin the session id (required to resume after a crash)",
    )
    submit.add_argument(
        "--resume", action="store_true",
        help="resume a checkpointed session: skip the events the "
        "server already has and stream the remainder",
    )
    submit.add_argument(
        "--lenient", action="store_true",
        help="soften --resume: when the server has no recoverable "
        "checkpoint, restart the session from zero and re-send the "
        "whole stream (warns and exits 5) instead of failing",
    )
    submit.add_argument(
        "--stop-after", type=int, default=None, metavar="N",
        help="send only the first N events, checkpoint, and leave the "
        "session open (crash-drill half of the recovery story)",
    )
    submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole submission (connects, "
        "BUSY backoff and reconnects included); expiry exits 4",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="emit the final repro-report/1 JSON document",
    )
    submit.set_defaults(func=_cmd_submit)

    service_stats = sub.add_parser(
        "service-stats",
        help="print a running service's aggregated shard metrics",
        epilog="The JSON document is versioned (schema repro-stats/1); "
        "--format prom renders the same snapshot as Prometheus text. "
        "Exit 3 = the server is unreachable (same as 'repro submit').",
    )
    service_stats.add_argument("--host", default="127.0.0.1")
    service_stats.add_argument("--port", type=int, default=7207)
    service_stats.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="output form: repro-stats/1 JSON (default) or Prometheus "
        "text exposition",
    )
    service_stats.set_defaults(func=_cmd_service_stats)

    experiment = sub.add_parser(
        "experiment",
        help="run locked, hash-addressed experiments (see "
        "docs/OBSERVABILITY.md)",
    )
    experiment_sub = experiment.add_subparsers(
        dest="experiment_command", required=True
    )
    exp_run = experiment_sub.add_parser(
        "run",
        help="lock workload/scale/seed/analyses into a content-hashed "
        "run directory (experiment.json + manifest.json + report.json "
        "+ report.md + trace.jsonl)",
    )
    exp_run.add_argument(
        "--workload", required=True,
        help="benchmark case name (see 'repro bench' tables)",
    )
    exp_run.add_argument("--seed", type=int, default=0)
    exp_run.add_argument("--scale", type=float, default=0.1)
    exp_run.add_argument(
        "--analyses", default="aerodrome",
        help="comma-separated analysis names (default: aerodrome)",
    )
    exp_run.add_argument(
        "--out", default="runs", metavar="DIR",
        help="root directory for run-id directories (default: runs/)",
    )
    exp_run.add_argument(
        "--run-id", default=None,
        help="override the derived run id (default: "
        "<workload>-s<seed>-<hash8>)",
    )
    exp_run.add_argument(
        "--wall-clock", action="store_true",
        help="use real monotonic span times instead of the "
        "deterministic tick clock (trace.jsonl stops being "
        "byte-reproducible)",
    )
    exp_run.add_argument(
        "--json", action="store_true",
        help="also print the manifest JSON",
    )
    exp_run.set_defaults(func=_cmd_experiment_run)
    exp_show = experiment_sub.add_parser(
        "show", help="print a run's report.md (or its span log)",
    )
    exp_show.add_argument("run", help="run directory (or a run id under --out)")
    exp_show.add_argument(
        "--spans", action="store_true",
        help="print trace.jsonl instead of report.md",
    )
    exp_show.add_argument("--out", default="runs", metavar="DIR")
    exp_show.set_defaults(func=_cmd_experiment_show)
    exp_list = experiment_sub.add_parser(
        "list", help="list run directories under --out",
    )
    exp_list.add_argument("--out", default="runs", metavar="DIR")
    exp_list.set_defaults(func=_cmd_experiment_list)

    diff_cmd = sub.add_parser(
        "diff",
        help="compare two experiment/bench runs "
        "(exit 0 = agree, 1 = differ, 2 = error)",
        epilog="RUN arguments are run directories from 'repro "
        "experiment run' / 'repro bench', or legacy flat "
        "BENCH_PR*.json artifacts (schemas repro-bench/1..5). "
        "Verdicts, violation indices, agreement flags and locked "
        "config gate the diff; wall-clock numbers are reported as "
        "deltas only (1-CPU CI gates on agreement, never speed).",
    )
    diff_cmd.add_argument("run_a", help="baseline run directory or artifact")
    diff_cmd.add_argument("run_b", help="candidate run directory or artifact")
    diff_cmd.add_argument(
        "--json", action="store_true",
        help="emit the structured diff document",
    )
    diff_cmd.set_defaults(func=_cmd_diff)

    chaos = sub.add_parser(
        "chaos",
        help="run seeded fault-injection drills against the service",
        epilog="Each drill arms a deterministic fault plan against an "
        "in-process service and checks the pinned outcome: either the "
        "stream heals (report equals the offline run) or the failure "
        "surfaces as a documented typed error. The failure-mode matrix "
        "and the repro-faults/1 plan schema are in docs/SERVICE.md.",
    )
    chaos.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="run one named drill from the matrix, or 'all'",
    )
    chaos.add_argument(
        "--plan", default=None, metavar="FILE",
        help="run the generic drill under a repro-faults/1 JSON plan",
    )
    chaos.add_argument(
        "--seed", type=int, default=None,
        help="fault-plan seed (default 7207; same seed, same faults)",
    )
    chaos.add_argument(
        "--list", action="store_true", help="list the scenario matrix"
    )
    chaos.add_argument(
        "--cluster", action="store_true",
        help="run the netsim cluster matrix instead: an N-node ring "
        "under simulated time with a seeded schedule of partitions, "
        "gossip chaos and gray failure (same seed, same fault trace)",
    )
    chaos.add_argument(
        "--json", action="store_true",
        help="emit the drill results as JSON",
    )
    chaos.set_defaults(func=_cmd_chaos)

    meta = sub.add_parser("metainfo", help="print trace characteristics")
    meta.add_argument("trace")
    meta.set_defaults(func=_cmd_metainfo)

    gen = sub.add_parser("generate", help="generate a benchmark analog trace")
    gen.add_argument("benchmark", choices=sorted(c.name for c in ALL_CASES))
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument(
        "--binary",
        action="store_true",
        help="write the compact binary format instead of .std text",
    )
    gen.set_defaults(func=_cmd_generate)

    for table_name, cases in (("table1", TABLE1), ("table2", TABLE2)):
        table = sub.add_parser(
            table_name, help=f"regenerate the paper's {table_name}"
        )
        table.add_argument("--seed", type=int, default=7)
        table.add_argument("--scale", type=float, default=1.0)
        table.add_argument(
            "--timeout",
            type=float,
            default=20.0,
            help="per-run timeout in seconds (paper: 10 hours)",
        )
        table.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="fan table rows across N worker processes (0 = one per CPU)",
        )
        table.set_defaults(func=_table_command, cases=cases)

    bench = sub.add_parser(
        "bench",
        help="throughput + ingest + parallel + service + cluster benchmark "
        "(writes BENCH_PR8.json)",
    )
    bench.add_argument("--scale", type=float, default=1.0)
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--algorithm", default="aerodrome",
        help="registry name of the checker under test",
    )
    bench.add_argument(
        "--tables", type=_bench_tables, default="1,2",
        help="comma-separated tables to run (default: 1,2)",
    )
    bench.add_argument(
        "--no-scaling", action="store_true", help="skip the scaling sweep"
    )
    bench.add_argument(
        "--no-session",
        action="store_true",
        help="skip the one-pass vs N-pass session comparison",
    )
    bench.add_argument(
        "--no-ingest",
        action="store_true",
        help="skip the cold-start ingest split (parse/pack/load timings)",
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="workers for the serial-vs-parallel session column "
        "(0 or 1 skips it; default 2)",
    )
    bench.add_argument(
        "--no-service",
        action="store_true",
        help="skip the streamed-vs-offline service block",
    )
    bench.add_argument(
        "--no-cluster",
        action="store_true",
        help="skip the 1-node vs 3-node ring comparison",
    )
    bench.add_argument(
        "-o", "--output", default="BENCH_PR8.json",
        help="where to write the JSON report",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless every path agrees everywhere "
        "(packed/string, reloaded traces, parallel and streamed sessions)",
    )
    bench.add_argument(
        "--runs-dir", default="runs", metavar="DIR",
        help="also mirror the artifact into a run-id directory under "
        "DIR ('repro diff'-able; default: runs/)",
    )
    bench.add_argument(
        "--no-runs-dir", action="store_true",
        help="write only the flat -o artifact",
    )
    bench.set_defaults(func=_cmd_bench)

    scaling = sub.add_parser("scaling", help="linear-vs-cubic scaling sweep")
    scaling.add_argument("--benchmark", default="raytracer")
    scaling.add_argument(
        "--sizes", default="4000,8000,16000,32000,64000"
    )
    scaling.add_argument("--seed", type=int, default=7)
    scaling.add_argument("--timeout", type=float, default=60.0)
    scaling.set_defaults(func=_cmd_scaling)

    explain_cmd = sub.add_parser(
        "explain", help="extract a witness cycle for a violating trace"
    )
    explain_cmd.add_argument("trace")
    _add_session_flags(explain_cmd)
    explain_cmd.set_defaults(func=_cmd_explain)

    races_cmd = sub.add_parser(
        "races", help="happens-before data race detection (FastTrack)"
    )
    races_cmd.add_argument("trace")
    _add_session_flags(races_cmd)
    races_cmd.set_defaults(func=_cmd_races)

    causal_cmd = sub.add_parser(
        "causal", help="per-transaction causal atomicity report"
    )
    causal_cmd.add_argument("trace")
    _add_session_flags(causal_cmd)
    causal_cmd.set_defaults(func=_cmd_causal)

    algos = sub.add_parser(
        "algorithms", help="list registered analyses (checkers and more)"
    )
    algos.add_argument(
        "--checkers",
        action="store_true",
        help="only the StreamingChecker algorithm names, one per line",
    )
    algos.set_defaults(func=_cmd_algorithms)

    profile_cmd = sub.add_parser("profile", help="workload shape report")
    profile_cmd.add_argument("trace")
    profile_cmd.add_argument("--top", type=int, default=10,
                             help="hot variables/locks to list")
    _add_session_flags(profile_cmd)
    profile_cmd.set_defaults(func=_cmd_profile)

    dot_cmd = sub.add_parser("dot", help="Graphviz export of a trace")
    dot_cmd.add_argument("trace")
    dot_cmd.add_argument("-o", "--output", help="write DOT here (else stdout)")
    dot_cmd.add_argument(
        "--events",
        action="store_true",
        help="event-level conflict graph instead of the transaction graph",
    )
    dot_cmd.add_argument(
        "--include-unary",
        action="store_true",
        help="draw unary transactions too",
    )
    dot_cmd.set_defaults(func=_cmd_dot)

    zoo_cmd = sub.add_parser("zoo", help="list or write example traces")
    zoo_cmd.add_argument("name", nargs="?", help="specimen to print/write")
    zoo_cmd.add_argument("-o", "--output", help="write the specimen as .std")
    zoo_cmd.add_argument(
        "--render",
        action="store_true",
        help="draw the specimen in the paper's column layout",
    )
    zoo_cmd.set_defaults(func=_cmd_zoo)

    memory_cmd = sub.add_parser(
        "memory", help="sample a checker's state growth along a trace"
    )
    memory_cmd.add_argument("trace")
    memory_cmd.add_argument(
        "--algorithm", default="aerodrome", choices=checker_names()
    )
    memory_cmd.add_argument("--samples", type=int, default=10)
    memory_cmd.set_defaults(func=_cmd_memory)

    violations_cmd = sub.add_parser(
        "violations", help="report-and-continue: list every violation"
    )
    violations_cmd.add_argument("trace")
    violations_cmd.add_argument(
        "--algorithm", default="aerodrome", choices=checker_names()
    )
    violations_cmd.add_argument("--limit", type=int, default=None)
    violations_cmd.add_argument("--dedupe", action="store_true")
    _add_session_flags(violations_cmd)
    violations_cmd.set_defaults(func=_cmd_violations)

    atomizer_cmd = sub.add_parser(
        "atomizer", help="Lipton-reduction warnings (unsound baseline)"
    )
    atomizer_cmd.add_argument("trace")
    atomizer_cmd.set_defaults(func=_cmd_atomizer)

    lockset_cmd = sub.add_parser(
        "lockset", help="Eraser lockset race warnings"
    )
    lockset_cmd.add_argument("trace")
    _add_session_flags(lockset_cmd)
    lockset_cmd.set_defaults(func=_cmd_lockset)

    viewserial_cmd = sub.add_parser(
        "viewserial", help="exact view-serializability (small traces)"
    )
    viewserial_cmd.add_argument("trace")
    _add_session_flags(viewserial_cmd)
    viewserial_cmd.set_defaults(func=_cmd_viewserial)

    serialize_cmd = sub.add_parser(
        "serialize", help="emit an equivalent serial execution"
    )
    serialize_cmd.add_argument("trace")
    serialize_cmd.add_argument("-o", "--output")
    serialize_cmd.set_defaults(func=_cmd_serialize)

    inferspec_cmd = sub.add_parser(
        "inferspec", help="infer a trace-consistent atomicity spec"
    )
    inferspec_cmd.add_argument("trace", help="raw trace with labeled markers")
    inferspec_cmd.add_argument(
        "--algorithm", default="aerodrome", choices=checker_names()
    )
    inferspec_cmd.add_argument("-o", "--output", help="write the spec file")
    inferspec_cmd.set_defaults(func=_cmd_inferspec)

    minimize_cmd = sub.add_parser(
        "minimize", help="shrink a violating trace to a 1-minimal core"
    )
    minimize_cmd.add_argument("trace")
    minimize_cmd.add_argument(
        "--algorithm", default="aerodrome", choices=checker_names()
    )
    minimize_cmd.add_argument("-o", "--output", help="write the core as .std")
    minimize_cmd.set_defaults(func=_cmd_minimize)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "cases"):
        return args.func(args, args.cases)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
