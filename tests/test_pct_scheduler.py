"""PCT scheduler tests: determinism, priority semantics, and bug-finding
power versus uniform random scheduling."""

import pytest

from repro import check
from repro.sim.runtime import execute
from repro.sim.scheduler import PCTScheduler, RandomScheduler
from repro.sim.workloads.patterns import (
    locked_counter,
    producer_consumer,
    unprotected_counter,
)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError, match="depth"):
        PCTScheduler(depth=0)
    with pytest.raises(ValueError, match="max_steps"):
        PCTScheduler(max_steps=0)


def test_deterministic_in_seed():
    program = unprotected_counter(n_threads=3, increments=3)
    a = execute(program, PCTScheduler(seed=5, depth=3))
    b = execute(program, PCTScheduler(seed=5, depth=3))
    assert list(a) == list(b)
    c = execute(program, PCTScheduler(seed=6, depth=3))
    # A different seed gives different priorities; schedules usually
    # differ (not guaranteed for any single seed, so only check the
    # structure, not inequality).
    assert len(c) == len(a)


def test_depth_one_never_preempts_by_priority():
    """With depth=1 there are no change points: the highest-priority
    thread runs to completion, then the next — a serial schedule."""
    program = unprotected_counter(n_threads=3, increments=2)
    trace = execute(program, PCTScheduler(seed=3, depth=1))
    # Serial per thread: once a thread stops appearing it never returns.
    seen_done = set()
    current = None
    for event in trace:
        if event.thread != current:
            assert event.thread not in seen_done
            if current is not None:
                seen_done.add(current)
            current = event.thread
    # And a serial schedule of atomic increments is serializable.
    assert check(trace).serializable


def test_well_formed_output():
    from repro import is_well_formed

    program = producer_consumer(items=5, guarded=True)
    for seed in range(5):
        trace = execute(
            program, PCTScheduler(seed=seed, depth=4), validate_output=True
        )
        assert is_well_formed(trace)


def test_preserves_verdict_on_safe_program():
    program = locked_counter(n_threads=3, increments=3)
    for seed in range(5):
        trace = execute(program, PCTScheduler(seed=seed, depth=4))
        assert check(trace).serializable


def test_finds_violations_at_low_depth():
    """PCT with small depth should expose the lost-update violation in
    a healthy fraction of runs (its guarantee is per-run probability,
    with the steps bound k set to the actual program length)."""
    program = unprotected_counter(n_threads=2, increments=2)
    k = program.total_statements()
    found = sum(
        1
        for seed in range(20)
        if not check(
            execute(program, PCTScheduler(seed=seed, depth=3, max_steps=k))
        ).serializable
    )
    assert found >= 3


def test_comparable_power_to_uniform_on_this_workload():
    # Not a theorem — a sanity check that the implementation actually
    # explores: both strategies find the bug somewhere in 20 seeds.
    program = unprotected_counter(n_threads=2, increments=2)

    k = program.total_statements()

    def hits(make_scheduler):
        return sum(
            1
            for seed in range(20)
            if not check(
                execute(program, make_scheduler(seed))
            ).serializable
        )

    assert hits(lambda s: PCTScheduler(seed=s, depth=3, max_steps=k)) > 0
    assert hits(lambda s: RandomScheduler(seed=s)) > 0


class TestFuzzStrategies:
    def test_pct_strategy_finds_the_bug(self):
        from repro.sim.explore import fuzz

        result = fuzz(
            unprotected_counter(n_threads=2, increments=2),
            schedules=20,
            strategy="pct",
        )
        assert result.violating > 0
        assert result.witness is not None
        assert not result.exhaustive

    def test_unknown_strategy_rejected(self):
        from repro.sim.explore import fuzz

        with pytest.raises(ValueError, match="strategy"):
            fuzz(unprotected_counter(), strategy="quantum")

    def test_safe_program_survives_pct_fuzzing(self):
        from repro.sim.explore import fuzz

        result = fuzz(
            locked_counter(n_threads=3, increments=2),
            schedules=15,
            strategy="pct",
        )
        assert result.always_atomic
