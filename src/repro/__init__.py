"""repro — AeroDrome: linear-time atomicity checking with vector clocks.

A complete reproduction of *Atomicity Checking in Linear Time using
Vector Clocks* (Mathur & Viswanathan, ASPLOS 2020): the AeroDrome
algorithm (basic and optimized), the Velodrome and DoubleChecker
baselines, an exact conflict-serializability oracle, a concurrent-program
simulator that stands in for RoadRunner trace logging, and a benchmark
harness regenerating the paper's Tables 1 and 2.

Quickstart::

    from repro import check, parse_trace

    trace = parse_trace('''
        t1|begin
        t1|w(x)
        t2|begin
        t2|r(x)
        t2|w(y)
        t2|end
        t1|r(y)
        t1|end
    ''')
    result = check(trace)                # optimized AeroDrome
    print(result.serializable)            # False
    print(result.violation)               # where and why

Or co-run any number of registered analyses on **one** pass over the
trace through the session API (the front door; see ``docs/API.md``)::

    from repro import run

    result = run(trace, ["aerodrome", "races", "lockset", "profile"])
    print(result.ok)                      # every analysis clean?
    print(result.to_json())               # versioned repro-report/1
"""

from .api import (
    Analysis,
    Report,
    Session,
    SessionResult,
    available_analyses,
    check,
    create_analysis,
    make_checker,
    register_analysis,
    run,
)
from .analysis.causal import CausalAtomicityReport, check_causal_atomicity
from .analysis.explain import Explanation, explain
from .analysis.graph_export import event_graph_dot, transaction_graph_dot
from .analysis.lockset import LocksetAnalyzer, lockset_analysis
from .analysis.minimize import is_one_minimal, minimize_violation
from .analysis.profile import TraceProfile, format_profile, profile_trace
from .analysis.races import FastTrackDetector, Race, find_races
from .analysis.serial_witness import is_serial, serial_witness, verify_equivalence
from .analysis.timeline import render_columns, render_with_verdict
from .analysis.view_serializability import serializing_order, view_serializable
from .baselines.atomizer import AtomizerChecker, atomizer_warnings
from .baselines.doublechecker import DoubleCheckerChecker
from .baselines.lock_models import FarzanMadhusudanChecker, LockModel
from .baselines.oracle import conflict_serializable, violation_witness
from .baselines.velodrome import VelodromeChecker
from .core.aerodrome import AeroDromeChecker
from .core.aerodrome_opt import OptimizedAeroDromeChecker
from .core.checker import StreamingChecker
from .core.multi import find_all_violations, violation_stream
from .core.sharded import ShardedAeroDromeChecker
from .core.snapshot import (
    Checkpoint,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from .core.vector_clock import ThreadRegistry, VectorClock
from .core.violations import AtomicityViolationError, CheckResult, Violation
from .instrument.monitor import LiveMonitor, monitored_run
from .instrument.recorder import SharedVar, TracedLock, TraceRecorder
from .spec.atomicity_spec import AtomicitySpec, load_spec, save_spec
from .spec.inference import InferredSpec, infer_spec
from .trace.events import (
    Event,
    Op,
    acquire,
    begin,
    end,
    fork,
    join,
    read,
    release,
    write,
)
from .trace.filters import apply_spec, strip_markers
from .trace.metainfo import MetaInfo, collect_metainfo, metainfo
from .trace.packed import Interner, PackedTrace, pack
from .trace.parser import iter_events, load_trace, parse_trace
from .trace.trace import Trace, trace_of
from .trace.transactions import count_transactions, extract_transactions
from .trace.wellformed import WellFormednessError, is_well_formed, validate
from .trace.writer import dump_trace, save_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # the session API (the front door; see docs/API.md)
    "Session",
    "SessionResult",
    "Report",
    "Analysis",
    "run",
    "available_analyses",
    "create_analysis",
    "register_analysis",
    # checking
    "check",
    "make_checker",
    "StreamingChecker",
    "AeroDromeChecker",
    "OptimizedAeroDromeChecker",
    "VelodromeChecker",
    "DoubleCheckerChecker",
    "conflict_serializable",
    "violation_witness",
    # results
    "Violation",
    "CheckResult",
    "AtomicityViolationError",
    # clocks
    "VectorClock",
    "ThreadRegistry",
    # traces
    "Event",
    "Op",
    "Trace",
    "PackedTrace",
    "pack",
    "Interner",
    "trace_of",
    "read",
    "write",
    "acquire",
    "release",
    "fork",
    "join",
    "begin",
    "end",
    "parse_trace",
    "load_trace",
    "iter_events",
    "dump_trace",
    "save_trace",
    "validate",
    "is_well_formed",
    "WellFormednessError",
    "metainfo",
    "collect_metainfo",
    "MetaInfo",
    "extract_transactions",
    "count_transactions",
    # specs
    "AtomicitySpec",
    "load_spec",
    "save_spec",
    "apply_spec",
    "strip_markers",
    "infer_spec",
    "InferredSpec",
    # extensions
    "find_races",
    "FastTrackDetector",
    "Race",
    "lockset_analysis",
    "LocksetAnalyzer",
    "AtomizerChecker",
    "atomizer_warnings",
    "FarzanMadhusudanChecker",
    "LockModel",
    "view_serializable",
    "serializing_order",
    "serial_witness",
    "is_serial",
    "verify_equivalence",
    "violation_stream",
    "find_all_violations",
    "ShardedAeroDromeChecker",
    "snapshot",
    "restore",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
    "profile_trace",
    "format_profile",
    "TraceProfile",
    "transaction_graph_dot",
    "event_graph_dot",
    "render_columns",
    "render_with_verdict",
    "minimize_violation",
    "is_one_minimal",
    "check_causal_atomicity",
    "CausalAtomicityReport",
    "explain",
    "Explanation",
    "TraceRecorder",
    "SharedVar",
    "TracedLock",
    "LiveMonitor",
    "monitored_run",
]
