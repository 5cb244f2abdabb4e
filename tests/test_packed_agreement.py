"""The packed fast path agrees with the string path, event for event.

For basic, optimized and sharded AeroDrome, a packed trace must produce
exactly the string path's verdict *and* violating event index (and
thread and site) on randomized traces — this is what CI's benchmark
smoke gates on, and what licenses every epoch/SWAR shortcut in the
packed handlers. The epoch-fallback unit tests at the bottom pin the
cases the memoization must not break: clocks growing when threads
appear mid-trace, re-publication after end-event propagation, and the
report-and-continue stream.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import check, conflict_serializable, make_checker
from repro.core.multi import find_all_violations
from repro.sim.random_traces import RandomTraceConfig, random_trace
from repro.trace.packed import pack
from repro.trace.trace import Trace
from repro.trace.events import begin, end, fork, join, read, write

FAST_PATH_ALGORITHMS = ["aerodrome", "aerodrome-basic", "aerodrome-sharded"]


def assert_packed_agrees(trace, algorithm):
    string_checker = make_checker(algorithm)
    packed_checker = make_checker(algorithm)
    string_result = string_checker.run(trace)
    packed_result = packed_checker.run_packed(pack(trace))
    assert packed_result.serializable == string_result.serializable, (
        f"{algorithm} packed/string verdict mismatch on {trace.name}:\n"
        + "\n".join(str(e) for e in trace)
    )
    sv, pv = string_result.violation, packed_result.violation
    if sv is not None:
        assert pv is not None
        assert (pv.event_idx, pv.thread, pv.site) == (sv.event_idx, sv.thread, sv.site)
    assert packed_result.events_processed == string_result.events_processed
    # The sharded checker's whole output is its communication profile —
    # the packed path must not change the accounting either.
    if hasattr(string_checker, "stats"):
        ss, ps = string_checker.stats, packed_checker.stats
        assert (ss.local_accesses, ss.remote_accesses, ss.end_broadcasts) == (
            ps.local_accesses, ps.remote_accesses, ps.end_broadcasts
        )
        assert ss.per_shard == ps.per_shard


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from(FAST_PATH_ALGORITHMS),
)
def test_packed_agreement_dense(seed, algorithm):
    trace = random_trace(
        seed,
        RandomTraceConfig(
            n_threads=3, n_vars=2, n_locks=1, length=30, p_begin=0.25, p_end=0.2
        ),
    )
    assert_packed_agrees(trace, algorithm)


@settings(max_examples=75, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from(FAST_PATH_ALGORITHMS),
)
def test_packed_agreement_with_forks(seed, algorithm):
    trace = random_trace(
        seed,
        RandomTraceConfig(n_threads=4, n_vars=3, n_locks=2, length=60, with_forks=True),
    )
    assert_packed_agrees(trace, algorithm)


@settings(max_examples=75, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_packed_agrees_with_oracle(seed):
    trace = random_trace(
        seed,
        RandomTraceConfig(n_threads=3, n_vars=3, n_locks=1, length=40),
    )
    expected = conflict_serializable(trace)
    for algorithm in FAST_PATH_ALGORITHMS:
        result = make_checker(algorithm).run_packed(pack(trace))
        assert result.serializable == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_packed_report_and_continue_matches_string(seed):
    trace = random_trace(
        seed,
        RandomTraceConfig(
            n_threads=3, n_vars=2, n_locks=1, length=35, p_begin=0.3, p_end=0.2
        ),
    )
    for dedupe in (False, True):
        via_string = find_all_violations(trace, dedupe=dedupe)
        via_packed = find_all_violations(pack(trace), dedupe=dedupe)
        assert [(v.event_idx, v.thread, v.site) for v in via_string] == [
            (v.event_idx, v.thread, v.site) for v in via_packed
        ]


def test_check_accepts_packed():
    trace = Trace(
        [
            begin("t1"), write("t1", "x"),
            begin("t2"), read("t2", "x"), write("t2", "y"), end("t2"),
            read("t1", "y"), end("t1"),
        ]
    )
    result = check(pack(trace))
    assert not result.serializable
    assert result.violation.event_idx == 6


class TestEpochFallback:
    """Clock growth and memo invalidation corner cases."""

    def test_thread_appearing_mid_trace_grows_clocks(self):
        # t3's first event arrives after t1/t2 have built up state: every
        # lane layout (and the SWAR guard mask) must grow on demand.
        trace = Trace(
            [
                begin("t1"), write("t1", "x"), end("t1"),
                begin("t2"), read("t2", "x"), end("t2"),
                begin("t3"), read("t3", "x"), write("t3", "z"), end("t3"),
                begin("t1"), read("t1", "z"), end("t1"),
            ]
        )
        for algorithm in FAST_PATH_ALGORITHMS:
            assert_packed_agrees(trace, algorithm)
            assert make_checker(algorithm).run(trace).serializable

    def test_fork_into_new_lane(self):
        # Forking a brand-new thread after substantial history exercises
        # joins between clocks of different lane counts.
        events = [begin("t0"), write("t0", "a"), end("t0")]
        for i in range(1, 6):
            events.append(fork("t0", f"child{i}"))
            events.append(begin(f"child{i}"))
            events.append(read(f"child{i}", "a"))
            events.append(end(f"child{i}"))
            events.append(join("t0", f"child{i}"))
        trace = Trace(events)
        for algorithm in FAST_PATH_ALGORITHMS:
            assert_packed_agrees(trace, algorithm)

    def test_write_epoch_invalidated_by_end_propagation(self):
        # t2's write to x is published, then t1's transaction end joins
        # into W_x; a stale epoch must not suppress the refreshed clock.
        # The crossed read afterwards must still be flagged.
        trace = Trace(
            [
                begin("t1"), write("t1", "g"),
                write("t2", "x"),     # unary publish of W_x
                read("t2", "g"),      # unary: t2 now after t1's open txn
                end("t1"),
                begin("t3"), read("t3", "x"), write("t3", "y"), end("t3"),
                begin("t2"), read("t2", "y"), write("t2", "x"), end("t2"),
            ]
        )
        for algorithm in FAST_PATH_ALGORITHMS:
            assert_packed_agrees(trace, algorithm)

    def test_repeated_unary_reads_hit_flush_memo(self):
        # Same thread re-reading the same variable with an unchanged
        # clock takes the memoized no-op path; a clock change in between
        # (via the lock) must fall back to a real flush.
        trace = Trace(
            [
                write("t1", "x"),
                read("t2", "x"), read("t2", "x"), read("t2", "x"),
                begin("t1"), write("t1", "x"), end("t1"),
                read("t2", "x"),
            ]
        )
        for algorithm in FAST_PATH_ALGORITHMS:
            assert_packed_agrees(trace, algorithm)

    def test_string_then_packed_on_same_checker(self):
        # A checker may consume string events and then a packed suffix:
        # interners must line up by name, not by position.
        trace = Trace(
            [
                begin("t1"), write("t1", "x"),
                begin("t2"), read("t2", "x"), write("t2", "y"), end("t2"),
                read("t1", "y"), end("t1"),
            ]
        )
        packed = pack(trace)
        for algorithm in FAST_PATH_ALGORITHMS:
            checker = make_checker(algorithm)
            for event in list(trace)[:4]:
                checker.process(event)
            result = checker.run_packed(packed, start=4)
            assert not result.serializable
            assert result.violation.event_idx == 6
