"""E7 — cycle-detection strategy ablation for the graph baseline.

The paper's central complexity claim is that *any* per-edge cycle check
keeps the graph approach super-linear. This bench fields the strongest
graph opponent we can build — Velodrome with Pearce–Kelly incremental
topological ordering (``velodrome-pk``) — against plain Velodrome and
AeroDrome.

Measured shape (recorded in EXPERIMENTS.md): on the benchmark analogs
the *plain* DFS check with garbage collection beats Pearce–Kelly — GC
keeps the live graph small and forward-dominated, so each DFS probe is
cheap while PK pays order-maintenance constants on every insertion.
PK's asymptotic advantage is real but needs graphs DFS probes keep
re-walking; ``test_shortcut_chain`` below isolates exactly that regime
(forward shortcuts on a deep chain: DFS pays O(n) per probe walking the
chain tail, PK answers in O(1) from the order index) and PK wins it by
~two orders of magnitude. AeroDrome beats both on traces, which is the
paper's point: the right fix is not a better cycle detector.
"""

import random

import pytest

from repro.api import make_checker

from benchmarks.conftest import trace_for

CASE = "elevator"


def _run(algorithm, trace):
    return make_checker(algorithm).run(trace)


@pytest.mark.parametrize(
    "algorithm", ["aerodrome", "velodrome", "velodrome-pk"]
)
@pytest.mark.benchmark(group="cycle-strategies")
def test_strategy(benchmark, algorithm):
    trace = trace_for(CASE, scale=0.6)
    result = benchmark.pedantic(
        _run, args=(algorithm, trace), rounds=1, iterations=1
    )
    assert result.serializable  # elevator analog is atomic (Table 1 ✓)


@pytest.mark.parametrize("algorithm", ["velodrome", "velodrome-pk"])
@pytest.mark.parametrize("scale", [0.2, 0.4, 0.8])
@pytest.mark.benchmark(group="cycle-strategies-scaling")
def test_strategy_scaling(benchmark, algorithm, scale):
    """How each graph variant's cost grows with trace length."""
    trace = trace_for(CASE, scale=scale)
    benchmark.pedantic(_run, args=(algorithm, trace), rounds=1, iterations=1)


def _shortcut_chain(graph_factory, n: int, seed: int) -> None:
    """Deep chain + random forward shortcuts — the DFS-adversarial shape."""
    graph = graph_factory()
    for i in range(n - 1):
        if not graph.creates_cycle(i, i + 1):
            graph.add_edge(i, i + 1)
    rng = random.Random(seed)
    for _ in range(n):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        if not graph.creates_cycle(i, j):
            graph.add_edge(i, j)


@pytest.mark.parametrize("strategy", ["dfs", "pearce-kelly"])
@pytest.mark.benchmark(group="cycle-strategies-adversarial")
def test_shortcut_chain(benchmark, strategy):
    from repro.baselines.graph import Digraph
    from repro.baselines.online_cycles import IncrementalTopoDigraph

    factory = Digraph if strategy == "dfs" else IncrementalTopoDigraph
    benchmark.pedantic(
        _shortcut_chain, args=(factory, 3000, 3), rounds=1, iterations=1
    )
