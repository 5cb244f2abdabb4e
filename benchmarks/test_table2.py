"""E2 — Table 2: naive atomicity specifications (every method atomic).

Violations surface within the first ~2% of each trace, transaction graphs
stay tiny, and the two algorithms run at parity — the regime where the
paper reports speed-ups of 0.75–4 and Velodrome often edges out
AeroDrome because vector-clock maintenance does not pay off.
"""

import pytest

from repro.api import make_checker
from repro.sim.workloads.benchmarks import TABLE2

from benchmarks.conftest import trace_for


def _run(algorithm, trace):
    checker = make_checker(algorithm)
    return checker.run(trace)


@pytest.mark.parametrize("case", TABLE2, ids=lambda c: c.name)
@pytest.mark.benchmark(group="table2-aerodrome")
def test_aerodrome(benchmark, case):
    trace = trace_for(case.name)
    result = benchmark.pedantic(
        _run, args=("aerodrome", trace), rounds=3, iterations=1
    )
    assert result.serializable == (case.violation_at is None)


@pytest.mark.parametrize("case", TABLE2, ids=lambda c: c.name)
@pytest.mark.benchmark(group="table2-velodrome")
def test_velodrome(benchmark, case):
    trace = trace_for(case.name)
    result = benchmark.pedantic(
        _run, args=("velodrome", trace), rounds=3, iterations=1
    )
    assert result.serializable == (case.violation_at is None)
