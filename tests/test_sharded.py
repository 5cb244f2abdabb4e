"""Sharded AeroDrome tests: verdict equivalence and the synchronization
profile backing the paper's §6 distributed-implementation claim."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Trace, begin, check, end, read, write
from repro.core.sharded import ShardedAeroDromeChecker
from repro.sim.random_traces import RandomTraceConfig, random_trace


def test_rejects_zero_shards():
    with pytest.raises(ValueError, match="at least one"):
        ShardedAeroDromeChecker(n_object_shards=0)


def test_paper_traces_all_shard_counts(paper_traces):
    for trace, serializable in paper_traces:
        for shards in (1, 2, 5):
            checker = ShardedAeroDromeChecker(n_object_shards=shards)
            result = checker.run(trace)
            assert result.serializable == serializable, (trace.name, shards)


def test_violation_event_matches_aerodrome(rho2, rho3, rho4):
    for trace in (rho2, rho3, rho4):
        expected = check(trace, algorithm="aerodrome-basic").violation
        actual = ShardedAeroDromeChecker().run(trace).violation
        assert actual.event_idx == expected.event_idx, trace.name
        assert actual.thread == expected.thread, trace.name


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    shards=st.integers(1, 6),
)
def test_matches_basic_aerodrome_on_random_traces(seed, shards):
    trace = random_trace(
        seed,
        RandomTraceConfig(
            n_threads=4, n_vars=4, n_locks=2, length=50, p_begin=0.2, p_end=0.2
        ),
    )
    expected = check(trace, algorithm="aerodrome-basic")
    result = ShardedAeroDromeChecker(n_object_shards=shards).run(trace)
    assert result.serializable == expected.serializable


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_matches_with_forks(seed):
    trace = random_trace(
        seed,
        RandomTraceConfig(n_threads=3, n_vars=3, n_locks=1, length=40,
                          with_forks=True),
    )
    expected = check(trace, algorithm="aerodrome-basic")
    result = ShardedAeroDromeChecker().run(trace)
    assert result.serializable == expected.serializable


def test_reset_clears_stats(rho2):
    checker = ShardedAeroDromeChecker()
    checker.run(rho2)
    assert checker.stats.total > 0
    checker.reset()
    assert checker.stats.total == 0
    assert checker.violation is None


class TestSyncProfile:
    def test_memory_access_touches_one_object_shard(self):
        # A trace with only one thread and one variable: each access is
        # one local step plus one remote (object shard) step; no end
        # fan-out beyond the shard broadcast.
        trace = Trace([write("t1", "x"), read("t1", "x")])
        checker = ShardedAeroDromeChecker(n_object_shards=4)
        checker.run(trace)
        assert checker.stats.local_accesses == 2
        assert checker.stats.remote_accesses == 2
        assert checker.stats.end_broadcasts == 0

    def test_end_fanout_counts_broadcasts(self):
        trace = Trace([begin("t1"), write("t1", "x"), end("t1")])
        shards = 3
        checker = ShardedAeroDromeChecker(n_object_shards=shards)
        checker.run(trace)
        # End event: no other thread shards, one broadcast per object shard.
        assert checker.stats.end_broadcasts == shards

    def test_remote_fraction_bounded(self):
        trace = random_trace(
            7, RandomTraceConfig(n_threads=4, n_vars=6, n_locks=2, length=200)
        )
        checker = ShardedAeroDromeChecker(n_object_shards=4)
        checker.run(trace)
        fraction = checker.stats.remote_fraction()
        assert 0.0 < fraction < 1.0

    def test_empty_trace_remote_fraction_zero(self):
        checker = ShardedAeroDromeChecker()
        assert checker.stats.remote_fraction() == 0.0

    def test_shard_routing_is_stable(self):
        checker = ShardedAeroDromeChecker(n_object_shards=4)
        assert checker.shard_of("x") is checker.shard_of("x")

    def test_load_spreads_across_shards(self):
        trace = random_trace(
            11,
            RandomTraceConfig(n_threads=3, n_vars=12, n_locks=0, length=300),
        )
        checker = ShardedAeroDromeChecker(n_object_shards=4)
        checker.run(trace)
        loaded = {s for s, n in checker.stats.per_shard.items() if n > 0}
        assert len(loaded) >= 2
