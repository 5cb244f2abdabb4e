"""Benchmark-analog generator tests (the Table 1/2 workloads)."""

import pytest

from repro import check, metainfo, validate
from repro.sim.workloads.benchmarks import (
    ALL_CASES,
    CASES_BY_NAME,
    TABLE1,
    TABLE2,
    get_case,
)

SMALL = 0.05  # scale factor keeping each trace around a thousand events


class TestCatalogue:
    def test_all_rows_present(self):
        assert len(TABLE1) == 14
        assert len(TABLE2) == 7
        assert {c.name for c in TABLE1} == {
            "avrora", "elevator", "hedc", "luindex", "lusearch", "moldyn",
            "montecarlo", "philo", "pmd", "raytracer", "sor", "sunflow",
            "tsp", "xalan",
        }
        assert {c.name for c in TABLE2} == {
            "batik", "crypt", "fop", "lufact", "series", "sparsematmult",
            "tomcat",
        }

    def test_paper_verdicts_recorded(self):
        # ✓ rows in the paper: elevator, philo, raytracer (T1), fop (T2).
        serializable = {c.name for c in ALL_CASES if c.paper.atomic}
        assert serializable == {"elevator", "philo", "raytracer", "fop"}

    def test_violation_flag_consistent_with_paper(self):
        for case in ALL_CASES:
            assert (case.violation_at is None) == case.paper.atomic, case.name

    def test_get_case(self):
        assert get_case("avrora").table == 1
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_case("nonesuch")

    def test_unknown_style_rejected(self):
        import dataclasses

        broken = dataclasses.replace(CASES_BY_NAME["avrora"], style="bogus")
        with pytest.raises(ValueError, match="unknown style"):
            broken.generate()


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
class TestEveryCase:
    def test_trace_well_formed(self, case):
        trace = case.generate(seed=3, scale=SMALL)
        validate(trace, allow_held_locks=False)

    def test_verdict_matches_design(self, case):
        trace = case.generate(seed=3, scale=SMALL)
        result = check(trace, algorithm="aerodrome")
        assert result.serializable == (case.violation_at is None), case.name

    def test_checkers_agree(self, case):
        trace = case.generate(seed=3, scale=SMALL)
        aero = check(trace, algorithm="aerodrome")
        basic = check(trace, algorithm="aerodrome-basic")
        velo = check(trace, algorithm="velodrome")
        assert aero.serializable == basic.serializable == velo.serializable

    def test_deterministic(self, case):
        assert case.generate(seed=5, scale=SMALL) == case.generate(
            seed=5, scale=SMALL
        )

    def test_thread_count_matches_paper(self, case):
        trace = case.generate(seed=3, scale=SMALL)
        assert metainfo(trace).threads <= case.threads
        # Within a small tolerance: tiny scales may not touch every thread.
        assert metainfo(trace).threads >= min(case.threads, 2)


class TestViolationPlacement:
    def test_late_violation_found_late(self):
        case = get_case("avrora")
        trace = case.generate(seed=3, scale=0.2)
        result = check(trace, algorithm="aerodrome")
        assert result.violation is not None
        assert result.violation.event_idx > 0.8 * len(trace) * 0.9

    def test_early_violation_found_early(self):
        case = get_case("crypt")
        trace = case.generate(seed=3, scale=0.2)
        result = check(trace, algorithm="aerodrome")
        assert result.violation is not None
        assert result.violation.event_idx < 0.1 * len(trace)

    def test_velodrome_graph_grows_on_coordinator_shape(self):
        from repro.baselines.velodrome import VelodromeChecker

        case = get_case("raytracer")
        trace = case.generate(seed=3, scale=0.1)
        checker = VelodromeChecker()
        checker.run(trace)
        # The open coordinator transaction pins every reader transaction.
        assert checker.peak_graph_size > 100

    def test_velodrome_graph_small_on_independent_shape(self):
        from repro.baselines.velodrome import VelodromeChecker

        case = get_case("pmd")
        trace = case.generate(seed=3, scale=0.1)
        checker = VelodromeChecker()
        checker.run(trace)
        assert checker.peak_graph_size < 60
