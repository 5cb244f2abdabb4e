"""Violation-explanation tests: extracted witnesses must be genuine."""

from hypothesis import given, settings, strategies as st

from repro import check, explain
from repro.analysis.chb import compute_chb
from repro.sim.random_traces import RandomTraceConfig, random_trace


class TestUnitCases:
    def test_serializable_yields_none(self, rho1):
        assert explain(rho1) is None

    def test_rho2_witness(self, rho2):
        explanation = explain(rho2)
        assert explanation is not None
        assert explanation.prefix_length == 6
        assert len(explanation.cycle) == 2
        assert len(explanation.edges) == 2
        rendering = explanation.render()
        assert "≤CHB" in rendering
        assert "witness cycle" in rendering

    def test_rho4_witness_edges_are_real(self, rho4):
        explanation = explain(rho4)
        assert explanation is not None
        chb = compute_chb(rho4)
        for edge in explanation.edges:
            assert edge.src_event.idx < edge.dst_event.idx
            assert chb.ordered(edge.src_event.idx, edge.dst_event.idx)
            assert edge.src_event.idx in edge.src.event_indices
            assert edge.dst_event.idx in edge.dst.event_indices

    def test_prefix_matches_checker_stop_point(self, rho2):
        explanation = explain(rho2)
        result = check(rho2, algorithm="aerodrome-basic")
        # The oracle's shortest violating prefix is where the streaming
        # checker stops (or earlier, for end-event detections).
        assert explanation.prefix_length <= result.events_processed + 1


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_explanations_are_consistent(seed):
    trace = random_trace(
        seed, RandomTraceConfig(n_threads=3, n_vars=2, n_locks=1, length=30)
    )
    explanation = explain(trace)
    verdict = check(trace)
    assert (explanation is None) == verdict.serializable
    if explanation is not None:
        assert len(explanation.edges) == len(explanation.cycle)
        # Distinct transactions around the cycle.
        tids = [txn.tid for txn in explanation.cycle]
        assert len(set(tids)) == len(tids)
