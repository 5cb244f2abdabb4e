"""Shared fixtures: the paper's example traces ρ1–ρ4 and helpers."""

from __future__ import annotations

import warnings

import pytest

# When a property fails, Hypothesis's pytest plugin imports its patch
# writer, which imports libcst, which raises a mypy_extensions
# DeprecationWarning at import time. pytest.ini turns that warning into
# an error, so the failure report itself crashed (INTERNALERROR) and
# the failing example was lost. Importing it once here, with the
# warning silenced, keeps the normal FAILED report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst absent: the plugin skips the patch
        pass

from repro import Trace, begin, end, read, write


def _rho1() -> Trace:
    """Figure 1: three transactions, conflict serializable (T3 T1 T2)."""
    return Trace(
        [
            begin("t1"),       # e1
            write("t1", "x"),  # e2
            begin("t2"),       # e3
            read("t2", "x"),   # e4
            end("t2"),         # e5
            begin("t3"),       # e6
            write("t3", "z"),  # e7
            end("t3"),         # e8
            read("t1", "z"),   # e9
            end("t1"),         # e10
        ],
        name="rho1",
    )


def _rho2() -> Trace:
    """Figure 2: T1 and T2 mutually ordered — violation (found at e6)."""
    return Trace(
        [
            begin("t1"),       # e1
            begin("t2"),       # e2
            write("t1", "x"),  # e3
            read("t2", "x"),   # e4
            write("t2", "y"),  # e5
            read("t1", "y"),   # e6
            end("t2"),         # e7
            end("t1"),         # e8
        ],
        name="rho2",
    )


def _rho3() -> Trace:
    """Figure 3: violation with no ≤CHB path returning to one transaction
    (found at the end event e7)."""
    return Trace(
        [
            begin("t1"),       # e1
            begin("t2"),       # e2
            write("t1", "x"),  # e3
            write("t2", "y"),  # e4
            read("t1", "y"),   # e5
            read("t2", "x"),   # e6
            end("t1"),         # e7
            end("t2"),         # e8
        ],
        name="rho3",
    )


def _rho4() -> Trace:
    """Figure 4: violation through a completed mediating transaction
    (found at e11)."""
    return Trace(
        [
            begin("t1"),       # e1
            write("t1", "x"),  # e2
            begin("t2"),       # e3
            write("t2", "y"),  # e4
            read("t2", "x"),   # e5
            end("t2"),         # e6
            begin("t3"),       # e7
            read("t3", "y"),   # e8
            write("t3", "z"),  # e9
            end("t3"),         # e10
            read("t1", "z"),   # e11
            end("t1"),         # e12
        ],
        name="rho4",
    )


@pytest.fixture
def rho1() -> Trace:
    return _rho1()


@pytest.fixture
def rho2() -> Trace:
    return _rho2()


@pytest.fixture
def rho3() -> Trace:
    return _rho3()


@pytest.fixture
def rho4() -> Trace:
    return _rho4()


@pytest.fixture
def paper_traces(rho1, rho2, rho3, rho4):
    """All four example traces with their expected serializability."""
    return [
        (rho1, True),
        (rho2, False),
        (rho3, False),
        (rho4, False),
    ]
