"""Theorem 3's caveat: witnesses with at most one incomplete transaction.

AeroDrome reports a violation iff the trace has a witness cycle in which
every transaction, except possibly one, is complete. On the prefix σ6 of
ρ3 the (only) cycle runs between two still-open transactions — plain
Definition 1 (the oracle, and an eager graph checker like Velodrome)
already calls it non-serializable, but AeroDrome stays silent until the
first end event arrives. On full traces, where everything completes, the
notions coincide (the agreement property test).
"""

from repro import check, conflict_serializable


def test_sigma6_cycle_with_two_open_transactions(rho3):
    sigma6 = rho3.prefix(6)
    # Definition 1 on the prefix: already a cycle.
    assert not conflict_serializable(sigma6)
    # Velodrome's eager edge insertion sees it immediately ...
    assert not check(sigma6, algorithm="velodrome").serializable
    # ... but both incomplete transactions put it outside Theorem 3's
    # guarantee, and basic AeroDrome is silent on the prefix. (The
    # optimized variant's lazy write clock stands in the whole open
    # writer transaction, so it does fire here — a sound superset; see
    # test_aerodrome_opt.TestAgreesWithBasicOnPaperTraces.)
    assert check(sigma6, algorithm="aerodrome-basic").serializable
    assert not check(sigma6, algorithm="aerodrome").serializable


def test_one_end_event_restores_detection(rho3):
    sigma7 = rho3.prefix(7)  # t1's end: now only T2 is incomplete
    assert not check(sigma7, algorithm="aerodrome-basic").serializable
    assert not check(sigma7, algorithm="aerodrome").serializable


def test_rho4_prefix_with_one_active_witness(rho4):
    # At e11, T2 and T3 are complete and only T1 is active: within the
    # guarantee, so AeroDrome detects on the prefix.
    sigma11 = rho4.prefix(11)
    assert not check(sigma11, algorithm="aerodrome-basic").serializable
    assert not check(sigma11, algorithm="aerodrome").serializable


def test_rho2_detected_while_both_open(rho2):
    # ρ2's cycle is also between two open transactions, yet AeroDrome
    # reports at e6: Theorem 2's condition (T⊲ ⋖E e and e ⋖E f) holds
    # because the ⋖E path into t1's transaction is direct (no completed
    # mediator needed). The "at most one incomplete" clause of Theorem 3
    # is about what is guaranteed, not an upper bound on what is found.
    sigma6 = rho2.prefix(6)
    assert not check(sigma6, algorithm="aerodrome-basic").serializable
