"""E6 — the DoubleChecker comparison (paper §5.1, narrative only).

The paper reports DoubleChecker "slower by an order of magnitude" on a
benchmark subset but excludes the numbers as not apples-to-apples (it
cannot run on logged traces). Our miniature two-phase variant *can* run
on logged traces, so the comparison becomes reproducible: its buffering
plus second pass should cost noticeably more than single-pass AeroDrome
on violating workloads.
"""

import pytest

from repro.api import make_checker

from benchmarks.conftest import trace_for

SUBSET = ["sunflow", "luindex", "crypt"]


def _run(algorithm, trace):
    return make_checker(algorithm).run(trace)


@pytest.mark.parametrize("name", SUBSET)
@pytest.mark.benchmark(group="doublechecker")
def test_doublechecker(benchmark, name):
    trace = trace_for(name, scale=0.4)
    benchmark.pedantic(
        _run, args=("doublechecker", trace), rounds=1, iterations=1
    )


@pytest.mark.parametrize("name", SUBSET)
@pytest.mark.benchmark(group="doublechecker")
def test_aerodrome_reference(benchmark, name):
    trace = trace_for(name, scale=0.4)
    benchmark.pedantic(
        _run, args=("aerodrome", trace), rounds=1, iterations=1
    )
