"""Spec-inference tests: greedy refutation over labeled traces."""

import pytest

from repro import Trace, begin, check, end, read, write
from repro.sim.runtime import execute
from repro.sim.scheduler import RoundRobinScheduler
from repro.sim.workloads.patterns import (
    locked_counter,
    producer_consumer,
    unprotected_counter,
)
from repro.spec.inference import (
    InferenceError,
    infer_spec,
    labeled_methods,
)
from repro.trace.filters import apply_spec

FINE = RoundRobinScheduler(quantum=1)


def labeled_rho2(label1: str = "m1", label2: str = "m2") -> Trace:
    return Trace(
        [
            begin("t1", label1),
            begin("t2", label2),
            write("t1", "x"),
            read("t2", "x"),
            write("t2", "y"),
            read("t1", "y"),
            end("t2", label2),
            end("t1", label1),
        ]
    )


def test_labeled_methods_extraction():
    assert labeled_methods(labeled_rho2()) == {"m1", "m2"}


def test_serializable_trace_keeps_everything(rho1):
    # Unlabeled markers: no candidates, and the trace already passes.
    inferred = infer_spec(rho1)
    assert inferred.iterations == 1
    assert inferred.removed == ()


def test_rho2_shape_drops_exactly_one_method():
    inferred = infer_spec(labeled_rho2())
    assert inferred.iterations == 2
    assert len(inferred.refuted_methods) == 1
    # Dropping either side of a two-cycle breaks it; the kept one must
    # make the filtered trace serializable.
    assert inferred.atomic_methods | set(inferred.refuted_methods) == {
        "m1",
        "m2",
    }
    filtered = apply_spec(labeled_rho2(), inferred.spec)
    assert check(filtered).serializable


def test_inferred_spec_is_consistent_with_trace():
    trace = execute(unprotected_counter(n_threads=3, increments=3), FINE)
    inferred = infer_spec(trace)
    filtered = apply_spec(trace, inferred.spec)
    assert check(filtered).serializable
    # The one candidate ("increment") is the culprit.
    assert inferred.refuted_methods == ["increment"]
    assert inferred.atomic_methods == set()


def test_locked_counter_keeps_its_method():
    trace = execute(locked_counter(n_threads=3, increments=3), FINE)
    inferred = infer_spec(trace)
    assert inferred.atomic_methods == {"increment"}
    assert inferred.removed == ()


def test_producer_consumer_refutes_until_clean():
    trace = execute(producer_consumer(items=4, guarded=False), FINE)
    inferred = infer_spec(trace)
    filtered = apply_spec(trace, inferred.spec)
    assert check(filtered).serializable
    assert set(inferred.refuted_methods) <= {"produce", "consume"}
    assert inferred.refuted_methods  # the racy variant must drop something
    assert inferred.iterations == len(inferred.refuted_methods) + 1


def test_unlabeled_violation_is_an_error(rho2):
    # rho2's markers carry no labels: nothing can be removed.
    with pytest.raises(InferenceError, match="cannot"):
        infer_spec(rho2)


def test_velodrome_engine_also_works():
    inferred = infer_spec(labeled_rho2(), algorithm="velodrome")
    filtered = apply_spec(labeled_rho2(), inferred.spec)
    assert check(filtered).serializable


def test_str_summary():
    summary = str(infer_spec(labeled_rho2()))
    assert "refuted" in summary
    assert "pass(es)" in summary
