"""E9 — operational-mode overheads: checkpoints, sharding,
report-and-continue.

Quantifies what the deployment-facing extensions cost relative to the
plain single-pass run:

* checkpoint overhead — same stream with a snapshot every N events;
* sharded simulation — Algorithm 1 through the shard-access accounting
  layer (the bookkeeping is the cost; the verdict is identical);
* violation streaming — report-and-continue over a trace with many
  violations vs. stop-at-first.
"""

import pytest

from repro.api import make_checker
from repro.core.multi import find_all_violations
from repro.core.sharded import ShardedAeroDromeChecker
from repro.core.snapshot import snapshot

from benchmarks.conftest import trace_for

CASE, SCALE = "elevator", 0.5


def _plain_run(trace):
    return make_checker("aerodrome").run(trace)


def _checkpointed_run(trace, every):
    checker = make_checker("aerodrome")
    taken = 0
    for event in trace:
        if checker.events_processed and checker.events_processed % every == 0:
            snapshot(checker)
            taken += 1
        if checker.process(event) is not None:
            break
    return taken


@pytest.mark.benchmark(group="streaming-checkpoint")
def test_no_checkpoints(benchmark):
    trace = trace_for(CASE, scale=SCALE)
    result = benchmark.pedantic(_plain_run, args=(trace,), rounds=1, iterations=1)
    assert result.serializable


@pytest.mark.parametrize("every", [500, 2000])
@pytest.mark.benchmark(group="streaming-checkpoint")
def test_with_checkpoints(benchmark, every):
    trace = trace_for(CASE, scale=SCALE)
    taken = benchmark.pedantic(
        _checkpointed_run, args=(trace, every), rounds=1, iterations=1
    )
    assert taken > 0


@pytest.mark.parametrize("shards", [1, 4, 16])
@pytest.mark.benchmark(group="streaming-sharded")
def test_sharded_simulation(benchmark, shards):
    trace = trace_for(CASE, scale=SCALE)
    result = benchmark.pedantic(
        lambda: ShardedAeroDromeChecker(n_object_shards=shards).run(trace),
        rounds=1,
        iterations=1,
    )
    assert result.serializable


@pytest.mark.benchmark(group="streaming-violations")
def test_stop_at_first(benchmark):
    trace = trace_for("sunflow", scale=0.1)
    result = benchmark.pedantic(_plain_run, args=(trace,), rounds=1, iterations=1)
    assert not result.serializable


@pytest.mark.benchmark(group="streaming-violations")
def test_report_and_continue(benchmark):
    trace = trace_for("sunflow", scale=0.1)
    violations = benchmark.pedantic(
        lambda: find_all_violations(trace, dedupe=True),
        rounds=1,
        iterations=1,
    )
    assert violations
