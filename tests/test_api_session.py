"""Session API tests: co-run agreement, registry discovery, JSON schema.

The acceptance bar for the session engine: every analysis co-run in one
pass must yield verdicts and payloads identical to its standalone run,
on both the string and packed paths.
"""

import json

import pytest

from repro import Session, run
from repro.api import (
    CheckerAnalysis,
    Report,
    SCHEMA,
    available_analyses,
    check,
    create_analysis,
    make_checker,
    register_analysis,
    unregister_analysis,
    validate_report,
)
from repro.api.analysis import Analysis
from repro.analysis.causal import check_causal_atomicity
from repro.analysis.lockset import lockset_analysis
from repro.analysis.profile import profile_trace
from repro.analysis.races import find_races
from repro.analysis.view_serializability import serializing_order
from repro.core.multi import find_all_violations
from repro.sim import trace_zoo
from repro.trace.packed import pack

#: The ≥6 analyses the acceptance criteria name, co-run in one sweep.
CO_RUN_CHECKERS = ("aerodrome", "aerodrome-basic", "velodrome")
CO_RUN_ANALYSES = CO_RUN_CHECKERS + ("races", "lockset", "profile")

SPECIMENS = (
    "paper-rho1",
    "paper-rho2",
    "paper-rho4",
    "lock-cycle",
    "fork-join-handoff",
    "three-party-cycle",
    "unlocked-counter",
)


def _zoo(name):
    return trace_zoo.get(name).trace()


@pytest.mark.parametrize("specimen", SPECIMENS)
@pytest.mark.parametrize("packed", [False, True], ids=["string", "packed"])
class TestCoRunAgreement:
    """One ingest, six analyses — identical to each standalone run."""

    def _session(self, specimen, packed):
        trace = _zoo(specimen)
        events = pack(trace) if packed else trace
        return trace, run(events, list(CO_RUN_ANALYSES))

    def test_checkers_match_standalone(self, specimen, packed):
        trace, result = self._session(specimen, packed)
        for algorithm in CO_RUN_CHECKERS:
            solo = make_checker(algorithm)
            if packed:
                expected = solo.run_packed(pack(trace))
            else:
                expected = solo.run(trace)
            assert result[algorithm].native == expected
            assert result[algorithm].events_processed == expected.events_processed

    def test_races_match_standalone(self, specimen, packed):
        trace, result = self._session(specimen, packed)
        assert result["races"].native == find_races(trace)

    def test_lockset_matches_standalone(self, specimen, packed):
        trace, result = self._session(specimen, packed)
        expected = lockset_analysis(trace)
        assert result["lockset"].native.warnings == expected.warnings
        assert result["lockset"].native.final_states == expected.final_states

    def test_profile_matches_standalone(self, specimen, packed):
        trace, result = self._session(specimen, packed)
        assert result["profile"].native == profile_trace(trace)

    def test_string_and_packed_reports_agree(self, specimen, packed):
        trace, result = self._session(specimen, packed)
        other = run(trace if packed else pack(trace), list(CO_RUN_ANALYSES))
        for name in CO_RUN_ANALYSES:
            assert result[name].verdict == other[name].verdict
            assert result[name].violations == other[name].violations


@pytest.mark.parametrize("packed", [False, True], ids=["string", "packed"])
class TestOfflineAnalyses:
    def test_causal_and_viewserial_and_explain(self, rho2, packed):
        events = pack(rho2) if packed else rho2
        result = run(events, ["causal", "viewserial", "explain"])
        causal = check_causal_atomicity(rho2)
        assert result["causal"].native.all_atomic == causal.all_atomic
        assert [t.tid for t in result["causal"].native.violating] == [
            t.tid for t in causal.violating
        ]
        assert result["viewserial"].native == serializing_order(rho2)
        assert result["explain"].native is not None
        assert not result["explain"].ok

    def test_clean_trace_explain_passes(self, rho1, packed):
        events = pack(rho1) if packed else rho1
        result = run(events, ["explain", "viewserial"])
        assert result["explain"].ok
        assert result["viewserial"].ok
        assert result.ok


class TestRunModes:
    def test_report_all_matches_find_all_violations(self, rho2):
        analysis = CheckerAnalysis("aerodrome", mode="report_all")
        result = run(rho2, [analysis])
        assert [v.event_idx for v in result["aerodrome"].native] == [
            v.event_idx for v in find_all_violations(rho2)
        ]

    def test_report_all_limit_finishes_early(self, rho2):
        analysis = CheckerAnalysis("aerodrome", mode="report_all", limit=1)
        result = run(rho2, [analysis])
        assert len(result["aerodrome"].native) == 1
        assert result.events_swept < len(rho2)

    def test_stop_first_stops_sweep(self, rho2):
        result = run(rho2, ["aerodrome"])
        assert result.events_swept == 6  # violation at event index 5

    def test_sample_mode_full_rate_equals_stop_first(self, rho2):
        sampled = CheckerAnalysis("aerodrome", mode="sample", sample_every=1)
        result = run(rho2, [sampled])
        expected = check(rho2)
        assert result["aerodrome"].native.violation == expected.violation
        assert result["aerodrome"].payload["sample_every"] == 1

    def test_sample_mode_skips_accesses(self, rho2):
        sampled = CheckerAnalysis("aerodrome", mode="sample", sample_every=1000)
        result = run(pack(rho2), [sampled])
        # With every access but the first sampled out, the cycle is
        # invisible: screening mode trades soundness for speed.
        assert result["aerodrome"].native.serializable

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            CheckerAnalysis("aerodrome", mode="everything")


class TestSessionPlumbing:
    def test_session_is_single_use(self, rho1):
        session = Session(rho1, ["aerodrome"])
        session.run()
        with pytest.raises(RuntimeError, match="single-use"):
            session.run()

    def test_needs_at_least_one_analysis(self, rho1):
        with pytest.raises(ValueError, match="at least one analysis"):
            Session(rho1, [])

    def test_accepts_bare_iterators(self, rho2):
        result = run(iter(rho2), ["aerodrome", "races"])
        assert not result.ok
        assert result.events is None

    def test_duplicate_analysis_names_keyed_separately(self, rho2):
        result = run(
            rho2,
            [CheckerAnalysis("aerodrome"),
             CheckerAnalysis("aerodrome", mode="report_all")],
        )
        assert set(result.reports) == {"aerodrome", "aerodrome#2"}

    def test_api_check_matches_checker_run(self, rho2, rho1):
        for trace in (rho1, rho2):
            assert check(trace) == make_checker("aerodrome").run(trace)

    def test_api_check_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            check([], algorithm="quantumdrome")


class TestRegistry:
    def test_checkers_and_analyses_discoverable(self):
        names = available_analyses()
        assert {"aerodrome", "velodrome", "doublechecker"} <= set(names)
        assert {"races", "lockset", "profile", "viewserial", "causal",
                "explain"} <= set(names)

    def test_unknown_analysis(self):
        with pytest.raises(ValueError, match="unknown analysis"):
            create_analysis("quantum-races")

    def test_checker_names_reserved(self):
        with pytest.raises(ValueError, match="checker algorithm name"):
            register_analysis("aerodrome", lambda: None)

    def test_plugin_registration_round_trip(self, rho2):
        class CountingAnalysis(Analysis):
            name = "event-count"
            kind = "plugin"

            def __init__(self):
                super().__init__()
                self.count = 0

            def step(self, event):
                self.count += 1

            def finish(self):
                return Report(
                    analysis=self.name, kind=self.kind, mode="stream",
                    verdict=True, payload={"events": self.count},
                    events_processed=self.count,
                    summary=f"{self.count} events", native=self.count,
                )

        register_analysis("event-count", CountingAnalysis, kind="plugin")
        try:
            assert "event-count" in available_analyses()
            result = run(rho2, ["event-count", "aerodrome"])
            assert result["event-count"].native == len(rho2)
        finally:
            unregister_analysis("event-count")
        assert "event-count" not in available_analyses()


class TestJsonSchema:
    def test_round_trip_validates(self, rho2):
        result = run(pack(rho2), list(CO_RUN_ANALYSES), path="rho2.std")
        document = json.loads(json.dumps(result.to_json()))
        validate_report(document)  # must not raise
        assert document["schema"] == SCHEMA
        assert document["trace"]["path"] == "rho2.std"
        assert document["verdict"] == "fail"
        assert [a["analysis"] for a in document["analyses"]] == list(
            CO_RUN_ANALYSES
        )
        for entry in document["analyses"]:
            assert entry["verdict"] in {"pass", "fail", "undecided"}

    def test_undecided_analysis_is_not_a_session_fail(self):
        from repro import Trace, begin, end, write

        events = []
        for i in range(12):  # > MAX_TRANSACTIONS: viewserial undecided
            events += [begin("t1"), write("t1", f"x{i}"), end("t1")]
        trace = Trace(events, name="many-txns")
        result = run(trace, ["aerodrome", "viewserial"])
        assert result["aerodrome"].verdict is True
        assert result["viewserial"].verdict is None
        assert result.verdict_label == "undecided"
        assert not result.ok
        assert result.to_json()["verdict"] == "undecided"

    def test_fail_outranks_undecided(self):
        from repro import Trace, begin, end, read, write

        events = [
            begin("t1"), begin("t2"),
            write("t1", "x"), read("t2", "x"),
            write("t2", "y"), read("t1", "y"),
            end("t2"), end("t1"),
        ]
        for i in range(12):  # push viewserial over its bound
            events += [begin("t3"), write("t3", f"z{i}"), end("t3")]
        trace = Trace(events, name="fail-and-undecided")
        result = run(trace, ["aerodrome", "viewserial"])
        assert result["aerodrome"].verdict is False
        assert result["viewserial"].verdict is None
        assert result.verdict_label == "fail"

    def test_malformed_documents_rejected(self, rho1):
        good = run(rho1, ["aerodrome"]).to_json()
        for mutate in (
            lambda d: d.pop("schema"),
            lambda d: d.update(schema="repro-report/0"),
            lambda d: d.update(verdict="maybe"),
            lambda d: d.update(analyses="nope"),
            lambda d: d["analyses"][0].pop("payload"),
            lambda d: d["analyses"][0].update(verdict="meh"),
        ):
            document = json.loads(json.dumps(good))
            mutate(document)
            with pytest.raises(ValueError, match="repro-report/1"):
                validate_report(document)


def test_top_level_reexports_the_api_front_door():
    import repro
    import repro.api

    assert repro.check is repro.api.check
    assert repro.make_checker is repro.api.make_checker
