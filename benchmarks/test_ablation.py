"""E5 — ablations of the design choices DESIGN.md calls out.

* Basic Algorithm 1 vs. the Appendix C optimized AeroDrome (lazy clocks,
  read-clock reduction, update sets, GC).
* Velodrome with vs. without garbage collection.
* The vector-clock primitives themselves (join / leq / copy), since the
  paper's complexity argument counts them as the per-event unit cost.
"""

import pytest

from repro.api import make_checker
from repro.core.vector_clock import VectorClock

from benchmarks.conftest import trace_for

#: A coordinator workload at a size where algorithmic differences are
#: visible but the slowest variant still finishes in seconds.
CASE, SCALE = "elevator", 0.6


def _run(algorithm, trace):
    return make_checker(algorithm).run(trace)


@pytest.mark.parametrize(
    "algorithm",
    ["aerodrome", "aerodrome-basic", "velodrome", "velodrome-nogc"],
)
@pytest.mark.benchmark(group="ablation-checkers")
def test_checker_variants(benchmark, algorithm):
    trace = trace_for(CASE, scale=SCALE)
    result = benchmark.pedantic(
        _run, args=(algorithm, trace), rounds=1, iterations=1
    )
    assert result.serializable


@pytest.mark.parametrize("algorithm", ["aerodrome", "aerodrome-basic"])
@pytest.mark.benchmark(group="ablation-read-clocks")
def test_read_clock_reduction(benchmark, algorithm):
    """Many threads reading many variables: the O(|Thr|·V) read clocks of
    Algorithm 1 vs. the O(V) clocks of Algorithm 2/3."""
    trace = trace_for("lusearch", scale=0.4)
    benchmark.pedantic(_run, args=(algorithm, trace), rounds=1, iterations=1)


@pytest.mark.benchmark(group="ablation-vc-ops")
@pytest.mark.parametrize("size", [4, 16, 64])
def test_vector_clock_join(benchmark, size):
    a = VectorClock(range(size))
    b = VectorClock(range(size, 0, -1))
    benchmark(a.joined, b)


@pytest.mark.benchmark(group="ablation-vc-ops")
@pytest.mark.parametrize("size", [4, 16, 64])
def test_vector_clock_leq(benchmark, size):
    a = VectorClock([1] * size)
    b = VectorClock([2] * size)
    benchmark(a.leq, b)
