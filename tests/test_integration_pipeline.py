"""End-to-end pipeline integration: the full debugging workflow a user
would run, chained feature to feature.

generate → profile → check → minimize → explain → render → DOT →
serialize-the-fix, plus the spec-inference and checkpoint paths. Each
step consumes the previous step's artifact, so this suite catches
interface drift between modules that unit tests miss.
"""

import pytest

from repro import (
    check,
    conflict_serializable,
    event_graph_dot,
    infer_spec,
    is_serial,
    is_well_formed,
    make_checker,
    profile_trace,
    render_columns,
    restore,
    serial_witness,
    snapshot,
    transaction_graph_dot,
    verify_equivalence,
)
from repro.analysis.explain import explain
from repro.analysis.minimize import is_one_minimal, minimize_violation
from repro.sim.workloads.benchmarks import CASES_BY_NAME
from repro.trace.filters import apply_spec
from repro.trace.parser import parse_trace
from repro.trace.writer import dump_trace


@pytest.fixture(scope="module")
def violating_benchmark():
    trace = CASES_BY_NAME["hedc"].generate(seed=7, scale=0.5)
    assert not conflict_serializable(trace)
    return trace


def test_debugging_pipeline(violating_benchmark):
    trace = violating_benchmark

    # 1. Profile says the workload has cross-thread conflicts.
    profile = profile_trace(trace)
    assert profile.cross_thread_conflicts > 0

    # 2. The checker finds the violation.
    result = check(trace)
    assert not result.serializable

    # 3. Minimize to the core...
    core = minimize_violation(trace)
    assert is_well_formed(core)
    assert is_one_minimal(core)
    assert len(core) < len(trace)

    # 4. ...explain the core's witness cycle...
    explanation = explain(core)
    assert explanation is not None
    assert len(explanation.cycle) >= 2
    rendered = explanation.render()
    assert "witness cycle" in rendered

    # 5. ...and draw it, in both terminal and Graphviz form.
    columns = render_columns(core, violation=check(core).violation)
    assert "← violation" in columns
    dot = transaction_graph_dot(core)
    assert "crimson" in dot
    assert event_graph_dot(core).startswith("digraph")


def test_round_trip_through_text_preserves_everything(violating_benchmark):
    text = dump_trace(violating_benchmark)
    reloaded = parse_trace(text)
    assert list(reloaded) == list(violating_benchmark)
    assert (
        check(reloaded).serializable
        == check(violating_benchmark).serializable
    )


def test_serial_witness_of_the_fixed_trace(violating_benchmark):
    # Emulate "fixing" the spec by dropping every atomic block (the
    # benchmark's markers are unlabeled, which strip_markers keeps by
    # design, so filter them directly).
    from repro import Event, Trace

    fixed = Trace(name="fixed")
    for event in violating_benchmark:
        if not event.is_marker:
            fixed.append(Event(event.thread, event.op, event.target))
    assert check(fixed).serializable  # unary-only is trivially fine
    witness = serial_witness(fixed)
    assert witness is not None
    assert is_serial(witness)
    assert verify_equivalence(fixed, witness)


def test_monitoring_pipeline_with_checkpoint(violating_benchmark):
    checker = make_checker("aerodrome")
    events = list(violating_benchmark)
    midpoint = len(events) // 4
    for event in events[:midpoint]:
        assert checker.process(event) is None or True
        if checker.violation is not None:
            break
    resumed = restore(snapshot(checker))
    for event in events[checker.events_processed:]:
        if resumed.process(event) is not None:
            break
    expected = check(violating_benchmark)
    assert resumed.violation is not None
    assert resumed.violation.event_idx == expected.violation.event_idx


def test_inference_pipeline_on_labeled_workload():
    from repro.sim.runtime import execute
    from repro.sim.scheduler import PCTScheduler
    from repro.sim.workloads.patterns import map_reduce

    program = map_reduce(n_mappers=3, guarded=False)
    k = program.total_statements()
    trace = None
    for seed in range(40):
        candidate = execute(program, PCTScheduler(seed=seed, depth=3, max_steps=k))
        if not check(candidate).serializable:
            trace = candidate
            break
    assert trace is not None, "PCT should expose the racy fold"
    inferred = infer_spec(trace)
    assert "fold" in inferred.refuted_methods
    fixed = apply_spec(trace, inferred.spec)
    assert check(fixed).serializable
