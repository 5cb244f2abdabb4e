"""IO benchmarks: text vs. binary trace formats, and streaming analysis.

The paper's trace logs reach ~100 GB as text (Appendix D); format
throughput matters for any tool that replays logs. Compares parse/dump
throughput of the ``.std`` text format against the ``.rtb`` binary one,
plus the end-to-end "load + check" path.
"""

import io

import pytest

from repro.api import make_checker
from repro.trace.binary import read_binary, write_binary
from repro.trace.parser import parse_trace
from repro.trace.writer import dump_trace

from benchmarks.conftest import trace_for

NAME, SCALE = "moldyn", 0.2


@pytest.fixture(scope="module")
def sample_trace():
    return trace_for(NAME, scale=SCALE)


@pytest.fixture(scope="module")
def sample_text(sample_trace):
    return dump_trace(sample_trace)


@pytest.fixture(scope="module")
def sample_binary(sample_trace):
    buffer = io.BytesIO()
    write_binary(sample_trace, buffer)
    return buffer.getvalue()


@pytest.mark.benchmark(group="io-serialize")
def test_dump_text(benchmark, sample_trace):
    benchmark(dump_trace, sample_trace)


@pytest.mark.benchmark(group="io-serialize")
def test_dump_binary(benchmark, sample_trace):
    def dump():
        buffer = io.BytesIO()
        write_binary(sample_trace, buffer)
        return buffer

    benchmark(dump)


@pytest.mark.benchmark(group="io-parse")
def test_parse_text(benchmark, sample_text):
    benchmark(parse_trace, sample_text)


@pytest.mark.benchmark(group="io-parse")
def test_parse_binary(benchmark, sample_binary):
    benchmark(lambda: read_binary(io.BytesIO(sample_binary)))


@pytest.mark.benchmark(group="io-end-to-end")
def test_parse_then_check(benchmark, sample_text):
    def run():
        checker = make_checker("aerodrome")
        return checker.run(parse_trace(sample_text))

    benchmark.pedantic(run, rounds=1, iterations=1)
