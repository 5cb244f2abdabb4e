#!/usr/bin/env python3
"""A tour of the atomicity-checker landscape on one set of traces.

Section 6 of the paper situates AeroDrome among its neighbours:
Velodrome (graph-based, sound and precise), DoubleChecker (two-phase),
Atomizer (Lipton reduction — unsound, the reason the field moved to
conflict serializability), and Farzan–Madhusudan (lock-unaware conflict
model). This example runs all of them over the trace zoo and prints a
verdict matrix, making the two classic disagreements visible:

* Atomizer flags a *serializable* fork/join hand-off (false positive)
  and misses the lock-free ρ2 cycle (false negative);
* the lock-ignoring FM model misses the cycle that closes through a
  lock.

Run:  python examples/related_work.py
"""

from repro import check, conflict_serializable
from repro.baselines.atomizer import AtomizerChecker
from repro.baselines.lock_models import FarzanMadhusudanChecker, LockModel
from repro.sim import trace_zoo

#: (column label, function building a fresh checker-result verdict)
CHECKERS = [
    ("oracle", lambda t: conflict_serializable(t)),
    ("aerodrome", lambda t: check(t, algorithm="aerodrome").serializable),
    ("velodrome", lambda t: check(t, algorithm="velodrome").serializable),
    ("velodr-pk", lambda t: check(t, algorithm="velodrome-pk").serializable),
    ("dblcheck", lambda t: check(t, algorithm="doublechecker").serializable),
    ("atomizer", lambda t: AtomizerChecker().run(t).serializable),
    ("fm-nolock", lambda t: FarzanMadhusudanChecker(LockModel.IGNORED).run(t).serializable),
]

SHOWCASE = [
    "paper-rho1",
    "paper-rho2",
    "paper-rho4",
    "lock-cycle",
    "fork-join-handoff",
    "reduction-false-alarm",
    "three-party-cycle",
    "unlocked-counter",
    "locked-counter",
]


def main() -> None:
    header = f"{'specimen':<20}" + "".join(f"{name:>11}" for name, _ in CHECKERS)
    print(header)
    print("-" * len(header))
    disagreements = []
    for name in SHOWCASE:
        specimen = trace_zoo.get(name)
        row = [f"{name:<20}"]
        truth = None
        for label, verdict_of in CHECKERS:
            verdict = verdict_of(specimen.trace())
            if label == "oracle":
                truth = verdict
            mark = "✓" if verdict else "✗"
            if verdict != truth:
                mark += "!"
                disagreements.append((name, label, verdict, truth))
            row.append(f"{mark:>11}")
        print("".join(row))

    print()
    print("Disagreements with the oracle (sound checkers never appear here):")
    for name, label, verdict, truth in disagreements:
        kind = "false negative" if verdict and not truth else "false positive"
        print(f"  {label:<10} on {name:<20} -> {kind}")
    if not disagreements:
        print("  none (unexpected — atomizer/fm should disagree somewhere)")


if __name__ == "__main__":
    main()
