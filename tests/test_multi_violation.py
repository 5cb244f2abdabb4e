"""Report-and-continue tests (violation_stream / find_all_violations)."""

from repro import Trace, begin, check, end, read, write
from repro.core.multi import find_all_violations, violation_stream


def two_independent_cycles() -> Trace:
    """Two disjoint ρ2-shaped violations on separate variable pairs and
    separate thread pairs."""
    return Trace(
        [
            # cycle 1: t1/t2 over x,y
            begin("t1"),
            begin("t2"),
            write("t1", "x"),
            read("t2", "x"),
            write("t2", "y"),
            read("t1", "y"),  # idx 5: first violation
            end("t2"),
            end("t1"),
            # cycle 2: t3/t4 over a,b
            begin("t3"),
            begin("t4"),
            write("t3", "a"),
            read("t4", "a"),
            write("t4", "b"),
            read("t3", "b"),  # idx 13: second violation
            end("t4"),
            end("t3"),
        ]
    )


def test_serializable_trace_yields_nothing(rho1):
    assert find_all_violations(rho1) == []


def test_first_report_matches_check(rho2):
    stream = list(violation_stream(rho2))
    expected = check(rho2).violation
    assert stream[0].event_idx == expected.event_idx
    assert stream[0].thread == expected.thread
    assert stream[0].site == expected.site


def test_two_independent_cycles_both_reported():
    trace = two_independent_cycles()
    violations = find_all_violations(trace)
    indices = [v.event_idx for v in violations]
    assert 5 in indices
    assert 13 in indices
    threads = {v.thread for v in violations}
    assert {"t1", "t3"} <= threads


def test_limit_stops_early():
    trace = two_independent_cycles()
    violations = find_all_violations(trace, limit=1)
    assert len(violations) == 1
    assert violations[0].event_idx == 5


def test_stream_is_lazy():
    trace = two_independent_cycles()
    stream = violation_stream(trace)
    first = next(stream)
    assert first.event_idx == 5
    rest = list(stream)
    assert any(v.event_idx == 13 for v in rest)


def test_dedupe_mutes_repeats_within_a_transaction():
    # One open transaction in t1 keeps tripping the read check on y and z
    # against t2's completed transaction; dedupe collapses the repeats.
    trace = Trace(
        [
            begin("t1"),
            write("t1", "x"),
            begin("t2"),
            read("t2", "x"),
            write("t2", "y"),
            write("t2", "z"),
            end("t2"),
            read("t1", "y"),  # violation (read site)
            read("t1", "z"),  # same (thread, site): muted under dedupe
            end("t1"),
        ]
    )
    noisy = find_all_violations(trace)
    quiet = find_all_violations(trace, dedupe=True)
    assert len(noisy) >= 2
    assert len(quiet) < len(noisy)
    assert quiet[0].event_idx == noisy[0].event_idx


def test_dedupe_unmutes_at_transaction_boundary():
    trace = two_independent_cycles()
    quiet = find_all_violations(trace, dedupe=True)
    # The two cycles involve different threads, so dedupe keeps both.
    assert {v.event_idx for v in quiet} >= {5, 13}


def test_works_with_velodrome():
    trace = two_independent_cycles()
    violations = find_all_violations(trace, algorithm="velodrome")
    assert violations, "graph checker must also stream violations"
    assert violations[0].event_idx == 5
