"""The central correctness property: all checkers agree with the oracle.

On traces whose transactions are all completed (the Theorem 3 regime),
AeroDrome (basic and optimized), Velodrome (with and without GC) and
DoubleChecker must all produce exactly the oracle's verdict — plain
conflict serializability per Definition 1.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import check, conflict_serializable
from repro.sim.random_traces import RandomTraceConfig, random_trace

ALGORITHMS = [
    "aerodrome",
    "aerodrome-basic",
    "aerodrome-sharded",
    "velodrome",
    "velodrome-nogc",
    "velodrome-pk",
    "doublechecker",
]


def assert_all_agree(trace):
    expected = conflict_serializable(trace)
    for algorithm in ALGORITHMS:
        result = check(trace, algorithm=algorithm)
        assert result.serializable == expected, (
            f"{algorithm} disagrees with oracle on {trace.name}: "
            f"{result.serializable} != {expected}\n"
            + "\n".join(str(e) for e in trace)
        )


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_agreement_small_dense(seed):
    trace = random_trace(
        seed,
        RandomTraceConfig(
            n_threads=3, n_vars=2, n_locks=1, length=25, p_begin=0.25, p_end=0.2
        ),
    )
    assert_all_agree(trace)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_agreement_medium(seed):
    trace = random_trace(
        seed,
        RandomTraceConfig(n_threads=4, n_vars=4, n_locks=2, length=60),
    )
    assert_all_agree(trace)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_agreement_with_forks(seed):
    trace = random_trace(
        seed,
        RandomTraceConfig(
            n_threads=4, n_vars=3, n_locks=1, length=40, with_forks=True
        ),
    )
    assert_all_agree(trace)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_agreement_deep_nesting(seed):
    trace = random_trace(
        seed,
        RandomTraceConfig(
            n_threads=3,
            n_vars=2,
            n_locks=1,
            length=40,
            p_begin=0.3,
            p_end=0.2,
            max_nesting=4,
        ),
    )
    assert_all_agree(trace)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_agreement_lock_heavy(seed):
    trace = random_trace(
        seed,
        RandomTraceConfig(
            n_threads=4, n_vars=2, n_locks=3, length=50, p_lock=0.45
        ),
    )
    assert_all_agree(trace)


@pytest.mark.parametrize("seed", range(25))
def test_agreement_fixed_seeds_regression(seed):
    """Deterministic regression net independent of hypothesis' shrinking."""
    trace = random_trace(
        seed, RandomTraceConfig(n_threads=4, n_vars=3, n_locks=2, length=80)
    )
    assert_all_agree(trace)
