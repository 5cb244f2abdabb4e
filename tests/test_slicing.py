"""Trace slicing tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import check, validate
from repro.sim.random_traces import RandomTraceConfig, random_trace
from repro.trace.slicing import project_threads, project_variables, window


class TestProjectThreads:
    def test_keeps_only_selected(self, rho4):
        sliced = project_threads(rho4, ["t1", "t2"])
        assert sliced.threads() <= {"t1", "t2"}
        assert len(sliced) == 8

    def test_projection_remains_well_formed(self, rho4):
        validate(project_threads(rho4, ["t1"]), allow_open_transactions=False)

    def test_violation_confirmed_on_slice(self, rho2):
        # Both cycle threads retained: the violation survives.
        sliced = project_threads(rho2, ["t1", "t2"])
        assert not check(sliced).serializable

    def test_dropping_a_cycle_thread_loses_the_violation(self, rho2):
        sliced = project_threads(rho2, ["t1"])
        assert check(sliced).serializable

    def test_drop_dangling_fork(self):
        from repro import fork, read, trace_of

        trace = trace_of(fork("t1", "t2"), read("t1", "x"), read("t2", "y"))
        keep = project_threads(trace, ["t1"])
        assert len(keep) == 2
        dropped = project_threads(trace, ["t1"], drop_dangling=True)
        assert len(dropped) == 1


class TestProjectVariables:
    def test_keeps_sync_events(self, rho4):
        sliced = project_variables(rho4, ["z"])
        ops = [str(e) for e in sliced if e.is_memory_access]
        assert ops == ["t3|w(z)", "t1|r(z)"]
        # begins/ends survive
        assert sum(1 for e in sliced if e.is_marker) == 6

    def test_cycle_variables_suffice(self, rho2):
        sliced = project_variables(rho2, ["x", "y"])
        assert not check(sliced).serializable


class TestWindow:
    def test_window_repairs_open_transactions(self, rho4):
        # Cut the middle: t1's transaction is open at both boundaries.
        sliced = window(rho4, 2, 10)
        validate(sliced, allow_open_transactions=False, allow_held_locks=False)

    def test_window_bounds_checked(self, rho1):
        with pytest.raises(ValueError, match="bad window"):
            window(rho1, 5, 2)
        with pytest.raises(ValueError, match="bad window"):
            window(rho1, 0, 99)

    def test_full_window_is_identityish(self, rho2):
        sliced = window(rho2, 0, len(rho2))
        assert not check(sliced).serializable

    def test_window_around_violation_confirms_it(self, rho4):
        # The ρ4 cycle completes at e11 (index 10); a window over the
        # whole body keeps it.
        sliced = window(rho4, 0, 11)
        assert not check(sliced).serializable

    def test_window_repairs_held_locks(self):
        from repro import acquire, read, release, trace_of

        trace = trace_of(
            acquire("t1", "l"),
            read("t1", "x"),
            read("t1", "y"),
            release("t1", "l"),
        )
        sliced = window(trace, 1, 3)
        validate(sliced, allow_held_locks=False)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)
def test_windows_always_well_formed(seed, a, b):
    trace = random_trace(seed, RandomTraceConfig(length=36, p_lock=0.3))
    start, stop = sorted((min(a, len(trace)), min(b, len(trace))))
    sliced = window(trace, start, stop)
    validate(sliced, allow_open_transactions=False, allow_held_locks=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_thread_projections_always_well_formed(seed):
    trace = random_trace(seed, RandomTraceConfig(n_threads=4, length=40))
    sliced = project_threads(trace, ["t0", "t2"])
    validate(sliced, allow_open_transactions=False, allow_held_locks=False)
