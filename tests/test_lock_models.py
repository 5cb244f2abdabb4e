"""Farzan–Madhusudan lock-model tests.

Pins down both directions of the model comparison:

* ``IGNORED`` misses cycles that close through a lock (false negatives
  relative to the standard §2 conflict model);
* ``AS_WRITES`` agrees with the standard model on well-formed traces —
  a reproduction finding, verified here by a hypothesis sweep over
  random well-formed traces.
"""

from hypothesis import given, settings, strategies as st

from repro import (
    Trace,
    acquire,
    begin,
    check,
    conflict_serializable,
    end,
    read,
    release,
    write,
)
from repro.baselines.lock_models import (
    LOCK_VAR_PREFIX,
    FarzanMadhusudanChecker,
    LockModel,
    transform_lock_events,
)
from repro.sim.random_traces import RandomTraceConfig, random_trace
from repro.trace.events import Op


def lock_cycle_trace() -> Trace:
    """A violation whose cycle closes *only* through a lock.

    T1 holds two critical sections on ``l`` with T2's critical section
    between them; T2 also reads what T1 wrote. Edges: T1 -> T2 (variable),
    T2 -> T1 (release of l -> T1's second acquire).
    """
    return Trace(
        [
            begin("t1"),
            acquire("t1", "l"),
            write("t1", "x"),
            release("t1", "l"),
            begin("t2"),
            acquire("t2", "l"),
            read("t2", "x"),
            release("t2", "l"),
            end("t2"),
            acquire("t1", "l"),
            release("t1", "l"),
            end("t1"),
        ]
    )


# -- the transformation itself ----------------------------------------------


def test_standard_model_is_identity(rho4):
    transformed = list(transform_lock_events(rho4, LockModel.STANDARD))
    assert transformed == list(rho4)


def test_ignored_drops_lock_events():
    trace = lock_cycle_trace()
    transformed = list(transform_lock_events(trace, LockModel.IGNORED))
    assert all(ev.op not in (Op.ACQUIRE, Op.RELEASE) for ev in transformed)
    assert len(transformed) == len(trace) - 6


def test_as_writes_rewrites_lock_events():
    trace = lock_cycle_trace()
    transformed = list(transform_lock_events(trace, LockModel.AS_WRITES))
    assert len(transformed) == len(trace)
    lock_writes = [
        ev for ev in transformed if ev.target == LOCK_VAR_PREFIX + "l"
    ]
    assert len(lock_writes) == 6
    assert all(ev.op is Op.WRITE for ev in lock_writes)


def test_transformation_preserves_indices():
    trace = lock_cycle_trace()
    for model in (LockModel.AS_WRITES, LockModel.IGNORED):
        for ev in transform_lock_events(trace, model):
            assert trace[ev.idx].thread == ev.thread


# -- verdicts ----------------------------------------------------------------


def test_lock_cycle_is_a_real_violation():
    trace = lock_cycle_trace()
    assert not conflict_serializable(trace)
    assert not check(trace).serializable


def test_ignored_model_misses_the_lock_cycle():
    trace = lock_cycle_trace()
    result = FarzanMadhusudanChecker(LockModel.IGNORED).run(trace)
    assert result.serializable  # false negative, as documented


def test_as_writes_model_catches_the_lock_cycle():
    trace = lock_cycle_trace()
    result = FarzanMadhusudanChecker(LockModel.AS_WRITES).run(trace)
    assert not result.serializable


def test_standard_model_matches_check(rho2, rho4):
    for trace in (rho2, rho4):
        result = FarzanMadhusudanChecker(LockModel.STANDARD).run(trace)
        assert result.serializable == check(trace).serializable


def test_all_models_agree_on_lock_free_traces(paper_traces):
    # The paper's example traces use no locks: every lock model must
    # give the oracle verdict.
    for trace, serializable in paper_traces:
        for model in LockModel:
            result = FarzanMadhusudanChecker(model).run(trace)
            assert result.serializable == serializable, (trace.name, model)


def test_algorithm_name_and_reset():
    checker = FarzanMadhusudanChecker(LockModel.AS_WRITES)
    assert checker.algorithm == "farzan-madhusudan[as-writes]"
    checker.run(lock_cycle_trace())
    assert checker.violation is not None
    checker.reset()
    assert checker.violation is None
    assert checker.events_processed == 0


def test_velodrome_engine_composes():
    result = FarzanMadhusudanChecker(
        LockModel.AS_WRITES, engine="velodrome"
    ).run(lock_cycle_trace())
    assert not result.serializable


# -- property: AS_WRITES ≡ STANDARD on well-formed traces ---------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_as_writes_equals_standard_on_random_traces(seed):
    cfg = RandomTraceConfig(n_threads=3, n_vars=3, n_locks=2, length=50)
    trace = random_trace(seed, cfg)
    standard = check(trace).serializable
    as_writes = FarzanMadhusudanChecker(LockModel.AS_WRITES).run(trace)
    assert as_writes.serializable == standard


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_ignored_never_reports_more_than_standard(seed):
    cfg = RandomTraceConfig(n_threads=3, n_vars=3, n_locks=2, length=50)
    trace = random_trace(seed, cfg)
    ignored = FarzanMadhusudanChecker(LockModel.IGNORED).run(trace)
    if not ignored.serializable:
        assert not check(trace).serializable
