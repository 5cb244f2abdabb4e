"""E8 — throughput of the §6 related-work analyses.

Not a fairness contest (Atomizer and the FM lock models answer
different questions than conflict serializability); this bench records
the per-event cost of each analysis family on the same trace so the
"vector clocks are worth it" narrative has numbers behind it:

* aerodrome — vector-clock conflict serializability (the paper);
* atomizer — lockset + two-phase reduction automaton (cheap state,
  no clocks);
* fm-ignored / fm-as-writes — the lock-unaware conflict models run
  through the AeroDrome engine;
* lockset — the raw Eraser pass (lower bound for anything built on it).
"""

import pytest

from repro.analysis.lockset import LocksetAnalyzer
from repro.baselines.atomizer import AtomizerChecker
from repro.baselines.lock_models import FarzanMadhusudanChecker, LockModel
from repro.api import make_checker

from benchmarks.conftest import trace_for

#: A serializable, lock-heavy workload so every analysis consumes the
#: entire trace (no early exit skews the comparison).
CASE, SCALE = "philo", 40.0


def _consume(checker, trace):
    for event in trace:
        checker.process(event)
    return checker


@pytest.mark.benchmark(group="related-work")
def test_aerodrome(benchmark):
    trace = trace_for(CASE, scale=SCALE)
    benchmark.pedantic(
        lambda: make_checker("aerodrome").run(trace), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="related-work")
def test_atomizer(benchmark):
    trace = trace_for(CASE, scale=SCALE)
    result = benchmark.pedantic(
        lambda: AtomizerChecker().run(trace), rounds=1, iterations=1
    )
    assert result.serializable


@pytest.mark.parametrize(
    "model", [LockModel.IGNORED, LockModel.AS_WRITES], ids=lambda m: m.value
)
@pytest.mark.benchmark(group="related-work")
def test_farzan_madhusudan(benchmark, model):
    trace = trace_for(CASE, scale=SCALE)
    benchmark.pedantic(
        lambda: FarzanMadhusudanChecker(model).run(trace),
        rounds=1,
        iterations=1,
    )


@pytest.mark.benchmark(group="related-work")
def test_lockset_pass(benchmark):
    trace = trace_for(CASE, scale=SCALE)
    analyzer = benchmark.pedantic(
        lambda: _consume(LocksetAnalyzer(), trace), rounds=1, iterations=1
    )
    assert analyzer.warnings == []  # philo is fully lock-protected
