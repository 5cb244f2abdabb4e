"""Delta-debugging minimization tests."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import (
    Trace,
    begin,
    check,
    conflict_serializable,
    end,
    is_well_formed,
    read,
    write,
)
from repro.analysis.minimize import is_one_minimal, minimize_violation
from repro.sim.random_traces import RandomTraceConfig, random_trace
from repro.sim.workloads.benchmarks import CASES_BY_NAME


def rho2_with_noise() -> Trace:
    """The ρ2 cycle buried among unrelated transactions."""
    events = []
    for i in range(6):
        events += [begin("t3"), read("t3", f"n{i}"), write("t3", f"n{i}"), end("t3")]
    events += [
        begin("t1"),
        begin("t2"),
        write("t1", "x"),
        read("t2", "x"),
        write("t2", "y"),
        read("t1", "y"),
        end("t2"),
        end("t1"),
    ]
    for i in range(6):
        events += [begin("t4"), read("t4", f"m{i}"), write("t4", f"m{i}"), end("t4")]
    return Trace(events)


def test_rejects_non_violating_input(rho1):
    with pytest.raises(ValueError, match="does not reproduce"):
        minimize_violation(rho1)


def test_noise_is_stripped():
    trace = rho2_with_noise()
    minimized = minimize_violation(trace)
    assert len(minimized) == 8  # exactly the ρ2 core
    assert {e.thread for e in minimized} == {"t1", "t2"}
    assert not check(minimized).serializable
    assert is_well_formed(minimized)
    assert is_one_minimal(minimized)


def test_already_minimal_is_unchanged(rho2):
    minimized = minimize_violation(rho2)
    assert len(minimized) == len(rho2)
    assert is_one_minimal(minimized)


def test_three_party_cycle_keeps_all_three():
    from repro.sim.trace_zoo import get as zoo_get

    trace = zoo_get("three-party-cycle").trace()
    minimized = minimize_violation(trace)
    assert {e.thread for e in minimized} == {"t1", "t2", "t3"}
    assert is_one_minimal(minimized)


def test_benchmark_trace_minimizes_to_a_small_core():
    trace = CASES_BY_NAME["hedc"].generate(seed=7, scale=0.5)
    assert not conflict_serializable(trace)
    minimized = minimize_violation(trace)
    assert len(minimized) <= 20
    assert not check(minimized).serializable


def test_custom_predicate():
    # Minimize with respect to "velodrome reports a violation".
    trace = rho2_with_noise()
    minimized = minimize_violation(
        trace,
        reproduces=lambda t: not check(t, algorithm="velodrome").serializable,
    )
    assert len(minimized) == 8


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_minimized_random_traces_are_minimal_violations(seed):
    trace = random_trace(
        seed,
        RandomTraceConfig(
            n_threads=3, n_vars=2, n_locks=1, length=40, p_begin=0.25, p_end=0.2
        ),
    )
    assume(not conflict_serializable(trace))
    minimized = minimize_violation(trace)
    assert len(minimized) <= len(trace)
    assert is_well_formed(minimized)
    assert not check(minimized).serializable
    assert is_one_minimal(minimized)
