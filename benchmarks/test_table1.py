"""E1 — Table 1: realistic (DoubleChecker) atomicity specifications.

One benchmark pair (AeroDrome, Velodrome) per paper row. The paper's
qualitative claim: on these workloads violations appear late, transaction
graphs grow large, and AeroDrome's linear-time analysis wins by large
factors on the coordinator-shaped rows while staying at parity on the
rows whose graphs stay small under garbage collection.

Run with ``pytest benchmarks/test_table1.py --benchmark-only``; compare
against the paper's Table 1 via ``python -m repro.cli table1``.
"""

import pytest

from repro.api import make_checker
from repro.sim.workloads.benchmarks import TABLE1

from benchmarks.conftest import trace_for


def _run(algorithm, trace):
    checker = make_checker(algorithm)
    return checker.run(trace)


@pytest.mark.parametrize("case", TABLE1, ids=lambda c: c.name)
@pytest.mark.benchmark(group="table1-aerodrome")
def test_aerodrome(benchmark, case):
    trace = trace_for(case.name)
    result = benchmark.pedantic(
        _run, args=("aerodrome", trace), rounds=1, iterations=1
    )
    assert result.serializable == (case.violation_at is None)


@pytest.mark.parametrize("case", TABLE1, ids=lambda c: c.name)
@pytest.mark.benchmark(group="table1-velodrome")
def test_velodrome(benchmark, case):
    trace = trace_for(case.name)
    result = benchmark.pedantic(
        _run, args=("velodrome", trace), rounds=1, iterations=1
    )
    assert result.serializable == (case.violation_at is None)
