#!/usr/bin/env python3
"""Finding (and fixing) an atomicity bug in a simulated bank.

The scenario from the paper's introduction: transfers between accounts
are *meant* to be atomic, but the unguarded implementation lets two
tellers interleave their balance reads and writes — a classic lost
update. We simulate both implementations under many schedules, check
every execution with AeroDrome, and show that the locked variant is
serializable under every schedule while the racy one is caught.

Run:  python examples/bank_accounts.py
"""

from repro import check
from repro.sim.runtime import execute
from repro.sim.scheduler import RandomScheduler
from repro.sim.workloads.patterns import bank_transfer


def survey(guarded: bool, schedules: int = 25) -> None:
    program = bank_transfer(guarded=guarded)
    label = "locked" if guarded else "racy"
    violations = 0
    first_witness = None
    for seed in range(schedules):
        trace = execute(program, RandomScheduler(seed=seed))
        result = check(trace)
        if not result.serializable:
            violations += 1
            if first_witness is None:
                first_witness = (seed, trace, result)
    print(f"{label:7s}: {violations}/{schedules} schedules violate atomicity")
    if first_witness is not None:
        seed, trace, result = first_witness
        print(f"  first caught under seed {seed}: {result.violation}")
        idx = result.violation.event_idx
        print("  the interleaving around the violation:")
        for event in trace.events[max(0, idx - 6): idx + 1]:
            marker = "  -> " if event.idx == idx else "     "
            print(f"{marker}e{event.idx}: {event}")
    print()


def main() -> None:
    print("Checking bank transfers under 25 random schedules each.\n")
    survey(guarded=False)
    survey(guarded=True)
    print(
        "The lock makes each transfer's read-modify-write indivisible, so\n"
        "every interleaving is equivalent to a serial one — exactly what\n"
        "conflict serializability certifies."
    )


if __name__ == "__main__":
    main()
