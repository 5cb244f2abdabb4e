"""E3 — the scaling claim: AeroDrome linear, Velodrome superlinear.

Sweeps the raytracer analog (serializable, so both algorithms must
process every event) over doubling trace sizes. AeroDrome's time should
roughly double per step while Velodrome's roughly quadruples.
"""

import pytest

from repro.api import make_checker

from benchmarks.conftest import trace_for

SIZES = [4_000, 8_000, 16_000, 32_000]
BASE_EVENTS = 50_000  # the raytracer case's nominal size


def _scale(size: int) -> float:
    return size / BASE_EVENTS


def _run(algorithm, trace):
    return make_checker(algorithm).run(trace)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.benchmark(group="scaling-aerodrome")
def test_aerodrome_scaling(benchmark, size):
    trace = trace_for("raytracer", scale=_scale(size))
    result = benchmark.pedantic(
        _run, args=("aerodrome", trace), rounds=1, iterations=1
    )
    assert result.serializable


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.benchmark(group="scaling-velodrome")
def test_velodrome_scaling(benchmark, size):
    trace = trace_for("raytracer", scale=_scale(size))
    result = benchmark.pedantic(
        _run, args=("velodrome", trace), rounds=1, iterations=1
    )
    assert result.serializable
