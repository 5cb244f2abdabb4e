#!/usr/bin/env python3
"""From verdict to diagnosis: witness cycles, reports, and pictures.

A checker saying "not serializable" is the start of debugging, not the
end. This example takes a racy map-reduce workload, finds a violating
execution, then:

1. profiles the trace (which variables are hot? where is the first
   cross-thread conflict?);
2. extracts the witness cycle with per-edge ≤CHB event pairs
   (``repro.analysis.explain``);
3. streams *all* violation reports, not just the first
   (``repro.core.multi``);
4. writes Graphviz DOT files of the transaction graph (witness cycle
   highlighted) and the paper-style event-level conflict graph.

Run:  python examples/witness_and_dot.py [output-dir]
"""

import sys
from pathlib import Path

from repro import (
    check,
    event_graph_dot,
    find_all_violations,
    format_profile,
    profile_trace,
    transaction_graph_dot,
)
from repro.analysis.explain import explain
from repro.analysis.graph_export import save_dot
from repro.sim.runtime import execute
from repro.sim.scheduler import RandomScheduler
from repro.sim.workloads.patterns import map_reduce


def find_violating_execution():
    """Scan seeds until the racy fold interleaves into a cycle."""
    program = map_reduce(n_mappers=3, guarded=False)
    for seed in range(100):
        trace = execute(program, RandomScheduler(seed=seed))
        if not check(trace).serializable:
            return seed, trace
    raise SystemExit("no violating schedule in 100 seeds (unexpected)")


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    seed, trace = find_violating_execution()
    print(f"violating schedule found at seed {seed}: {len(trace)} events\n")

    print("== workload shape " + "=" * 40)
    print(format_profile(profile_trace(trace), top=5))
    print()

    print("== witness cycle " + "=" * 41)
    explanation = explain(trace)
    assert explanation is not None
    print(explanation.render())
    print()

    print("== all violation reports (report-and-continue) " + "=" * 11)
    for violation in find_all_violations(trace, dedupe=True):
        print(f"  {violation}")
    print()

    txn_path = out_dir / "map_reduce_transactions.dot"
    ev_path = out_dir / "map_reduce_events.dot"
    save_dot(transaction_graph_dot(trace), txn_path)
    save_dot(event_graph_dot(trace), ev_path)
    print(f"wrote {txn_path} (render with: dot -Tsvg {txn_path})")
    print(f"wrote {ev_path}")


if __name__ == "__main__":
    main()
