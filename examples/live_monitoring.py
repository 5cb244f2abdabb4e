#!/usr/bin/env python3
"""Policing real threads online, then inferring the right specification.

Two acts:

**Act 1 — online detection.** A `LiveMonitor` hosts AeroDrome inside
the instrumentation layer, so the atomicity violation in a broken
read-modify-write is reported *while the threads are running* — at the
exact operation that closes the cycle — not in a post-mortem replay.
(The interleaving is forced with gates so the demo is deterministic;
in the wild you would run under many schedules, as
``examples/schedule_exploration.py`` does.)

**Act 2 — specification inference.** The paper notes that atomicity
specifications "are hard to come by". Given the recorded trace, whose
atomic blocks carry method labels, `infer_spec` greedily refutes
methods until the remaining specification is consistent with the
execution — telling you *which* intended-atomic block is broken.

Run:  python examples/live_monitoring.py
"""

import threading

from repro import LiveMonitor, check
from repro.spec.inference import infer_spec
from repro.trace.filters import apply_spec


def run_broken_cache(monitor: LiveMonitor) -> None:
    """A tiny read-through cache with a TOCTOU bug.

    ``lookup`` checks the cache and, on a miss, computes and fills it —
    but the check and the fill live in the same atomic block while a
    concurrent ``invalidate`` (correctly locked, but a *different*
    lock discipline) slips between them.
    """
    cache = monitor.shared("cache", initial=None)
    stats = monitor.shared("stats", initial=0)
    gate_checked = threading.Event()
    gate_invalidated = threading.Event()

    def lookup():
        with monitor.atomic("lookup"):
            cache.get()  # check
            gate_checked.set()
            assert gate_invalidated.wait(timeout=5)
            cache.set("value")  # fill — stale by now
            stats.set(stats.get() + 1)

    def invalidate():
        assert gate_checked.wait(timeout=5)
        with monitor.atomic("invalidate"):
            cache.set(None)
            stats.get()
        gate_invalidated.set()

    threads = [monitor.spawn(lookup), monitor.spawn(invalidate)]
    for thread in threads:
        monitor.join(thread)


def main() -> None:
    print("Act 1 — online detection")
    monitor = LiveMonitor(policy="record")
    run_broken_cache(monitor)
    print(f"  events recorded : {len(monitor)}")
    print(f"  clean           : {monitor.clean}")
    for violation in monitor.violations:
        print(f"  live report     : {violation}")
    print()

    print("Act 2 — specification inference")
    trace = monitor.trace()
    inferred = infer_spec(trace)
    print(f"  {inferred}")
    for method, violation in inferred.removed:
        print(f"  blamed {method!r} via: {violation}")
    repaired = apply_spec(trace, inferred.spec)
    print(
        "  filtered trace under inferred spec: "
        f"{check(repaired)}"
    )


if __name__ == "__main__":
    main()
