"""Pearce–Kelly incremental topological order tests.

Cross-checked against the DFS-based :class:`Digraph` on random edge
sequences, plus the Velodrome-with-PK checker against the oracle.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import check, conflict_serializable
from repro.baselines.graph import Digraph
from repro.baselines.online_cycles import (
    CycleClosedError,
    IncrementalTopoDigraph,
)
from repro.baselines.velodrome import VelodromeChecker
from repro.sim.random_traces import RandomTraceConfig, random_trace


def test_forward_edge_is_cheap_and_ordered():
    g = IncrementalTopoDigraph()
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    assert g.is_topological()
    assert g.order_index(1) < g.order_index(2) < g.order_index(3)
    assert g.reorders == 0


def test_back_edge_triggers_reorder():
    g = IncrementalTopoDigraph()
    # Insert nodes so that 3 gets a smaller index than 1 would like.
    g.add_node(3)
    g.add_node(1)
    g.add_edge(1, 3)  # goes against insertion order
    assert g.reorders == 1
    assert g.is_topological()


def test_creates_cycle_detects_two_cycle():
    g = IncrementalTopoDigraph()
    g.add_edge("a", "b")
    assert g.creates_cycle("b", "a")
    assert not g.creates_cycle("a", "b")


def test_creates_cycle_detects_long_cycle():
    g = IncrementalTopoDigraph()
    for i in range(9):
        g.add_edge(i, i + 1)
    assert g.creates_cycle(9, 0)
    assert not g.creates_cycle(0, 9)


def test_add_edge_raises_on_cycle():
    g = IncrementalTopoDigraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    with pytest.raises(CycleClosedError):
        g.add_edge("c", "a")


def test_self_loop_rejected_quietly():
    g = IncrementalTopoDigraph()
    g.add_node("a")
    assert not g.add_edge("a", "a")
    assert not g.creates_cycle("a", "a")


def test_duplicate_edge_is_noop():
    g = IncrementalTopoDigraph()
    assert g.add_edge(1, 2)
    assert not g.add_edge(1, 2)
    assert g.edge_count() == 1
    assert g.edges_added == 1


def test_remove_node_reports_zeroed_successors():
    g = IncrementalTopoDigraph()
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    g.add_edge("x", "c")
    zeroed = g.remove_node("a")
    assert set(zeroed) == {"b"}  # c still has x as predecessor
    assert "a" not in g
    assert g.in_degree("c") == 1


def test_in_degree_and_len():
    g = IncrementalTopoDigraph()
    g.add_edge(1, 3)
    g.add_edge(2, 3)
    assert g.in_degree(3) == 2
    assert len(g) == 3
    assert set(g.nodes()) == {1, 2, 3}
    assert g.successors(1) == {3}


def test_has_cycle_is_always_false():
    g = IncrementalTopoDigraph()
    g.add_edge(1, 2)
    assert not g.has_cycle()


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    n_nodes=st.integers(2, 12),
    n_edges=st.integers(1, 40),
)
def test_agrees_with_dfs_digraph(seed, n_nodes, n_edges):
    """Both graphs must flag exactly the same edge as cycle-closing."""
    rng = random.Random(seed)
    dfs: Digraph = Digraph()
    pk: IncrementalTopoDigraph = IncrementalTopoDigraph()
    for _ in range(n_edges):
        src = rng.randrange(n_nodes)
        dst = rng.randrange(n_nodes)
        expected = dfs.creates_cycle(src, dst)
        assert pk.creates_cycle(src, dst) == expected
        if not expected:
            assert dfs.add_edge(src, dst) == pk.add_edge(src, dst)
            assert pk.is_topological()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_agrees_with_dfs_under_removals(seed):
    """Removal is only defined for in-degree-0 nodes (the GC contract:
    Velodrome collects sources only), so the random mix honours that."""
    rng = random.Random(seed)
    dfs: Digraph = Digraph()
    pk: IncrementalTopoDigraph = IncrementalTopoDigraph()
    live = set()
    removed = set()
    for _ in range(60):
        sources = [n for n in sorted(live) if dfs.in_degree(n) == 0]
        if sources and rng.random() < 0.2:
            node = rng.choice(sources)
            live.discard(node)
            removed.add(node)
            assert sorted(dfs.remove_node(node)) == sorted(pk.remove_node(node))
        else:
            src, dst = rng.randrange(10), rng.randrange(10)
            if src == dst or src in removed or dst in removed:
                # Self-loops are no-ops; re-adding a collected node would
                # resurrect dangling references (Velodrome never does —
                # TxnNode ids are fresh).
                continue
            expected = dfs.creates_cycle(src, dst)
            assert pk.creates_cycle(src, dst) == expected
            if not expected:
                dfs.add_edge(src, dst)
                pk.add_edge(src, dst)
                live.update({src, dst})
                assert pk.is_topological()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_velodrome_pk_matches_oracle(seed):
    cfg = RandomTraceConfig(
        n_threads=3, n_vars=3, n_locks=1, length=40, p_begin=0.2, p_end=0.2
    )
    trace = random_trace(seed, cfg)
    result = VelodromeChecker(incremental_topology=True).run(trace)
    assert result.serializable == conflict_serializable(trace)
    assert result.algorithm == "velodrome-pk"


def test_velodrome_pk_on_paper_traces(paper_traces):
    for trace, serializable in paper_traces:
        result = check(trace, algorithm="velodrome-pk")
        assert result.serializable == serializable, trace.name
