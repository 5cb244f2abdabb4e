"""Live-monitor tests: online detection in real Python threads.

Thread interleavings are pinned down with `threading.Event` gates, so
the violating order is deterministic despite real concurrency.
"""

import threading

import pytest

from repro import AtomicityViolationError, check
from repro.instrument.monitor import LiveMonitor, monitored_run


def test_rejects_unknown_policy():
    with pytest.raises(ValueError, match="policy"):
        LiveMonitor(policy="explode")


def test_clean_single_thread_run():
    monitor = LiveMonitor()
    x = monitor.shared("x", initial=0)
    with monitor.atomic("inc"):
        x.set(x.get() + 1)
    assert monitor.clean
    assert monitor.first_violation() is None
    assert check(monitor.trace()).serializable


def _run_rho2_shape(monitor):
    """Two live threads interleaving the paper's ρ2 pattern, with
    event gates forcing w(x) -> r(x),w(y) -> r(y)."""
    x = monitor.shared("x", initial=0)
    y = monitor.shared("y", initial=0)
    first_write_done = threading.Event()
    second_txn_done = threading.Event()
    failures = []

    def worker1():
        try:
            with monitor.atomic("t1"):
                x.set(1)
                first_write_done.set()
                assert second_txn_done.wait(timeout=5)
                y.get()
        except AtomicityViolationError as error:
            failures.append(error)

    def worker2():
        assert first_write_done.wait(timeout=5)
        with monitor.atomic("t2"):
            x.get()
            y.set(1)
        second_txn_done.set()

    threads = [monitor.spawn(worker1), monitor.spawn(worker2)]
    for thread in threads:
        monitor.join(thread)
    return failures


def test_record_policy_collects_violation():
    monitor = LiveMonitor(policy="record")
    failures = _run_rho2_shape(monitor)
    assert failures == []  # record policy never raises
    assert not monitor.clean
    violation = monitor.first_violation()
    assert violation is not None
    # The cycle closes at worker1's read of y.
    assert monitor.trace()[violation.event_idx].target == "y"
    # Post-mortem agrees with the online verdict.
    assert not check(monitor.trace(), algorithm="aerodrome-basic").serializable


def test_raise_policy_fails_the_offending_thread():
    monitor = LiveMonitor(policy="raise")
    failures = _run_rho2_shape(monitor)
    assert len(failures) == 1
    assert isinstance(failures[0], AtomicityViolationError)
    assert monitor.violations  # still recorded


def test_callback_policy():
    seen = []
    monitor = LiveMonitor(policy=seen.append)
    _run_rho2_shape(monitor)
    assert len(seen) >= 1
    assert seen[0] is monitor.violations[0]


def test_locked_threads_stay_clean():
    monitor = LiveMonitor()
    counter = monitor.shared("counter", initial=0)
    guard = monitor.lock("guard")

    def worker():
        for _ in range(5):
            with monitor.atomic("inc"):
                with guard:
                    counter.set(counter.get() + 1)

    threads = [monitor.spawn(worker) for _ in range(4)]
    for thread in threads:
        monitor.join(thread)
    assert monitor.clean
    assert counter.get() == 20
    assert check(monitor.trace()).serializable


def test_monitored_run_harness():
    def scenario(monitor):
        x = monitor.shared("x")
        with monitor.atomic("a"):
            x.set(1)

    monitor = monitored_run(scenario)
    assert monitor.clean
    assert monitor.algorithm == "aerodrome"


def test_monitor_with_velodrome_engine():
    monitor = LiveMonitor(algorithm="velodrome")
    failures = _run_rho2_shape(monitor)
    assert failures == []
    assert not monitor.clean
