"""Atomizer (Lipton reduction) baseline tests.

The interesting properties are the *disagreements* with conflict
serializability: Atomizer's false positives (reducibility failures on
serializable traces, caused by lockset imprecision) and false negatives
(lock-free cycles it cannot see). Both directions are pinned down here,
because they are the reason the field moved to Velodrome-style checking
(paper §1, §6).
"""

from repro import (
    Trace,
    acquire,
    begin,
    check,
    conflict_serializable,
    end,
    fork,
    join,
    read,
    release,
    write,
)
from repro.baselines.atomizer import (
    AtomizerChecker,
    Mover,
    atomizer_warnings,
)


def run_atomizer(trace):
    return AtomizerChecker().run(trace)


# -- reducible blocks are accepted ------------------------------------------


def test_empty_trace_is_clean():
    assert run_atomizer(Trace([])).serializable


def test_single_locked_block_reduces():
    trace = Trace(
        [
            begin("t1"),
            acquire("t1", "l"),
            read("t1", "x"),
            write("t1", "x"),
            release("t1", "l"),
            end("t1"),
        ]
    )
    assert run_atomizer(trace).serializable


def test_two_disjoint_locked_blocks_in_one_transaction_fail():
    """acquire-release-acquire inside one block breaks (R|B)*[N](L|B)*."""
    trace = Trace(
        [
            begin("t1"),
            acquire("t1", "l1"),
            release("t1", "l1"),
            acquire("t1", "l2"),  # right-mover after the commit point
            release("t1", "l2"),
            end("t1"),
        ]
    )
    result = run_atomizer(trace)
    assert not result.serializable
    assert result.violation.site == "reduction"
    assert result.violation.event_idx == 3


def test_nested_locks_reduce():
    trace = Trace(
        [
            begin("t1"),
            acquire("t1", "l1"),
            acquire("t1", "l2"),
            write("t1", "x"),
            release("t1", "l2"),
            release("t1", "l1"),
            end("t1"),
        ]
    )
    assert run_atomizer(trace).serializable


def test_events_outside_blocks_are_never_flagged():
    trace = Trace(
        [
            acquire("t1", "l1"),
            release("t1", "l1"),
            acquire("t1", "l2"),
            release("t1", "l2"),
        ]
    )
    assert run_atomizer(trace).serializable


def test_racy_access_as_commit_point_is_allowed():
    # One unprotected shared access inside the block: exactly the single
    # permitted non-mover.
    trace = Trace(
        [
            write("t2", "x"),
            begin("t1"),
            write("t1", "x"),  # racy (no common lock) -> non-mover
            end("t1"),
        ]
    )
    assert run_atomizer(trace).serializable


def test_two_racy_accesses_fail():
    trace = Trace(
        [
            write("t2", "x"),
            write("t2", "y"),
            begin("t1"),
            write("t1", "x"),  # non-mover #1: commit
            write("t1", "y"),  # non-mover #2: violation
            end("t1"),
        ]
    )
    result = run_atomizer(trace)
    assert not result.serializable
    assert result.violation.event_idx == 4
    assert "second racy access" in result.violation.details


def test_acquire_after_racy_access_fails():
    trace = Trace(
        [
            write("t2", "x"),
            begin("t1"),
            write("t1", "x"),  # non-mover: commit
            acquire("t1", "l"),  # right-mover after commit
            release("t1", "l"),
            end("t1"),
        ]
    )
    result = run_atomizer(trace)
    assert not result.serializable
    assert "right-mover" in result.violation.details


# -- disagreements with conflict serializability -----------------------------


def test_false_positive_from_fork_join_blindness():
    """Serializable trace flagged by Atomizer.

    The child's write is ordered by fork, so the oracle and AeroDrome are
    happy; the lockset analysis marks x racy, making the second access in
    t2's block a post-commit non-mover.
    """
    trace = Trace(
        [
            write("t1", "x"),
            write("t1", "y"),
            fork("t1", "t2"),
            begin("t2"),
            acquire("t2", "l"),
            release("t2", "l"),  # commit point (left-mover)
            write("t2", "x"),  # lockset-racy -> non-mover after commit
            end("t2"),
            join("t1", "t2"),
        ]
    )
    assert conflict_serializable(trace)
    assert check(trace).serializable
    assert not run_atomizer(trace).serializable


def test_false_negative_on_lock_free_cycle(rho2):
    """The paper's ρ2 violation is invisible to Atomizer.

    Both transactions interleave writes with no locks anywhere; the two
    racy accesses in each block occur pre-commit/at-commit, so reduction
    never fails — but the trace is not conflict serializable.
    """
    assert not conflict_serializable(rho2)
    assert run_atomizer(rho2).serializable


def test_mover_classification():
    checker = AtomizerChecker()
    trace = Trace(
        [
            acquire("t1", "l"),
            release("t1", "l"),
            write("t1", "x"),
            write("t2", "x"),
        ]
    )
    movers = []
    for event in trace:
        checker.process(event)
        movers.append(checker.classify(event))
    assert movers == [Mover.RIGHT, Mover.LEFT, Mover.BOTH, Mover.NON]


def test_atomizer_warnings_collects_all():
    trace = Trace(
        [
            write("t2", "x"),
            write("t2", "y"),
            # block 1: two post-commit failures
            begin("t1"),
            acquire("t1", "l"),
            release("t1", "l"),
            write("t1", "x"),
            write("t1", "y"),
            end("t1"),
            # block 2: one failure
            begin("t1"),
            acquire("t1", "l"),
            release("t1", "l"),
            acquire("t1", "l"),
            release("t1", "l"),
            end("t1"),
        ]
    )
    warnings = atomizer_warnings(trace)
    assert [w.event_idx for w in warnings] == [5, 6, 11]
    assert {w.thread for w in warnings} == {"t1"}


def test_run_stops_at_first_violation():
    trace = Trace(
        [
            write("t2", "x"),
            begin("t1"),
            acquire("t1", "l"),
            release("t1", "l"),
            write("t1", "x"),
            write("t1", "x"),
            end("t1"),
        ]
    )
    result = run_atomizer(trace)
    assert result.events_processed == 5
