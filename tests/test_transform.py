"""Trace-transformation tests (rename / concat / interleave)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Trace, check, fork, is_well_formed, join, write
from repro.sim.random_traces import RandomTraceConfig, random_trace
from repro.sim.trace_zoo import get as zoo_get
from repro.trace.transform import (
    concat,
    interleave,
    relabel_disjoint,
    rename,
)


class TestRename:
    def test_threads_variables_locks(self):
        trace = zoo_get("lock-cycle").trace()
        renamed = rename(
            trace,
            threads={"t1": "alice", "t2": "bob"},
            variables={"x": "balance"},
            locks={"l": "mutex"},
        )
        assert {e.thread for e in renamed} == {"alice", "bob"}
        assert any(e.target == "balance" for e in renamed)
        assert any(e.target == "mutex" for e in renamed)

    def test_fork_join_targets_renamed(self):
        trace = Trace([fork("t1", "t2"), write("t2", "x"), join("t1", "t2")])
        renamed = rename(trace, threads={"t2": "child"})
        assert renamed[0].target == "child"
        assert renamed[2].target == "child"
        assert is_well_formed(renamed)

    def test_rejects_merging_map(self):
        trace = Trace([write("t1", "x"), write("t2", "y")])
        with pytest.raises(ValueError, match="not injective"):
            rename(trace, threads={"t1": "t", "t2": "t"})

    def test_rejects_merge_into_existing(self):
        trace = Trace([write("t1", "x"), write("t2", "y")])
        with pytest.raises(ValueError, match="merges into existing"):
            rename(trace, threads={"t1": "t2"})

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_verdict_preserved(self, seed):
        trace = random_trace(
            seed, RandomTraceConfig(n_threads=3, n_vars=3, n_locks=1, length=30)
        )
        renamed = rename(
            trace,
            threads={"t0": "alpha", "t1": "beta"},
            variables={"x0": "v_zero"},
            locks={"l0": "guard"},
        )
        assert (
            check(renamed).serializable
            == check(trace).serializable
        )


class TestConcat:
    def test_disjoint_verdict_is_disjunction(self):
        good = relabel_disjoint([zoo_get("paper-rho1").trace()], prefix="a")[0]
        bad = relabel_disjoint([zoo_get("paper-rho2").trace()], prefix="b")[0]
        assert check(concat([good])).serializable
        assert not check(concat([good, bad])).serializable
        assert not check(concat([bad, good])).serializable

    def test_shared_threads_rejected(self):
        rho1 = zoo_get("paper-rho1").trace()
        with pytest.raises(ValueError, match="share thread"):
            concat([rho1, zoo_get("paper-rho2").trace()])

    def test_unchecked_mode_allows_sharing(self):
        part = Trace([write("t1", "x")])
        merged = concat([part, part], disjoint_threads=False)
        assert len(merged) == 2


class TestInterleave:
    def test_round_robin_order(self):
        a = Trace([write("a", "x"), write("a", "y")])
        b = Trace([write("b", "p"), write("b", "q")])
        merged = interleave([a, b])
        assert [e.thread for e in merged] == ["a", "b", "a", "b"]

    def test_chunked(self):
        a = Trace([write("a", "x"), write("a", "y")])
        b = Trace([write("b", "p")])
        merged = interleave([a, b], chunk=2)
        assert [e.thread for e in merged] == ["a", "a", "b"]

    def test_rejects_zero_chunk(self):
        with pytest.raises(ValueError, match="chunk"):
            interleave([Trace([])], chunk=0)

    def test_disjoint_groups_keep_their_verdicts(self):
        groups = relabel_disjoint(
            [zoo_get("paper-rho2").trace() for _ in range(3)]
        )
        merged = interleave(groups)
        assert is_well_formed(merged)
        assert not check(merged).serializable

    def test_serializable_groups_stay_serializable(self):
        groups = relabel_disjoint(
            [zoo_get("paper-rho1").trace() for _ in range(3)]
        )
        merged = interleave(groups)
        assert check(merged).serializable


class TestRelabel:
    def test_namespaces_are_disjoint(self):
        groups = relabel_disjoint([zoo_get("lock-cycle").trace()] * 2)
        names_a = {e.thread for e in groups[0]}
        names_b = {e.thread for e in groups[1]}
        assert not names_a & names_b
        for group in groups:
            assert not check(group).serializable  # verdict kept
