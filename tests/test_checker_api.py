"""Checker front-door tests: check, registry, error handling."""

import pytest

from repro import AtomicityViolationError, check, make_checker
from repro.api import checker_names
from repro.core.checker import StreamingChecker


class TestRegistry:
    def test_checker_names(self):
        names = checker_names()
        assert names == sorted(names)
        assert {
            "aerodrome",
            "aerodrome-basic",
            "velodrome",
            "velodrome-nogc",
            "doublechecker",
        } <= set(names)

    def test_make_checker_returns_fresh_instances(self):
        a = make_checker("aerodrome")
        b = make_checker("aerodrome")
        assert a is not b
        assert isinstance(a, StreamingChecker)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_checker("quantumdrome")
        with pytest.raises(ValueError, match="unknown algorithm"):
            check([], algorithm="quantumdrome")


class TestCheckTrace:
    def test_default_is_optimized_aerodrome(self, rho2):
        result = check(rho2)
        assert result.algorithm == "aerodrome"
        assert not result.serializable

    def test_accepts_iterables(self, rho2):
        result = check(iter(rho2))
        assert not result.serializable

    def test_raise_on_violation(self, rho2):
        with pytest.raises(AtomicityViolationError) as excinfo:
            check(rho2, raise_on_violation=True)
        assert excinfo.value.violation.thread == "t1"

    def test_no_raise_when_serializable(self, rho1):
        result = check(rho1, raise_on_violation=True)
        assert result.serializable


class TestResultObjects:
    def test_result_str(self, rho1, rho2):
        good = check(rho1)
        bad = check(rho2)
        assert "✓" in str(good)
        assert "✗" in str(bad)
        assert "read check" in str(bad.violation)

    def test_events_processed_counts(self, rho1):
        result = check(rho1)
        assert result.events_processed == len(rho1)
