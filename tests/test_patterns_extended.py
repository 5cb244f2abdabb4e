"""Tests for the extended workload patterns (reader/writer, barriers,
work stealing, lazy init, pipelines, map-reduce)."""

import pytest

from repro import check, conflict_serializable, metainfo
from repro.sim.runtime import execute
from repro.sim.scheduler import RandomScheduler, RoundRobinScheduler
from repro.sim.workloads.patterns import (
    barrier_phases,
    lazy_initialization,
    map_reduce,
    pipeline_stages,
    reader_writer,
    work_stealing,
)

FINE = RoundRobinScheduler(quantum=1)


def verdicts(program, scheduler):
    trace = execute(program, scheduler, validate_output=True)
    oracle = conflict_serializable(trace)
    aero = check(trace, algorithm="aerodrome").serializable
    velo = check(trace, algorithm="velodrome").serializable
    assert aero == velo == oracle
    return oracle


class TestSerializablePatterns:
    @pytest.mark.parametrize("seed", range(5))
    def test_guarded_reader_writer(self, seed):
        assert verdicts(reader_writer(guarded=True), RandomScheduler(seed=seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_barrier_phases(self, seed):
        assert verdicts(barrier_phases(), RandomScheduler(seed=seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_guarded_lazy_init(self, seed):
        assert verdicts(
            lazy_initialization(guarded=True), RandomScheduler(seed=seed)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_pipeline_stages(self, seed):
        assert verdicts(pipeline_stages(), RandomScheduler(seed=seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_guarded_map_reduce(self, seed):
        assert verdicts(map_reduce(guarded=True), RandomScheduler(seed=seed))


class TestViolatingPatterns:
    def test_racy_reader_writer_some_schedule_violates(self):
        # The lockstep round-robin happens to serialize this pattern
        # (the writer always moves first in each rotation); a random
        # schedule where a reader slips between the two record writes
        # closes the cycle.
        outcomes = [
            verdicts(reader_writer(guarded=False), RandomScheduler(seed=seed))
            for seed in range(10)
        ]
        assert not all(outcomes)

    def test_work_stealing_some_schedule_violates(self):
        outcomes = [
            verdicts(work_stealing(), RandomScheduler(seed=seed))
            for seed in range(10)
        ]
        assert not all(outcomes)

    def test_racy_lazy_init_fine_grained(self):
        assert not verdicts(lazy_initialization(guarded=False), FINE)

    def test_racy_map_reduce_some_schedule_violates(self):
        outcomes = [
            verdicts(map_reduce(guarded=False), RandomScheduler(seed=seed))
            for seed in range(10)
        ]
        assert not all(outcomes)


class TestShapes:
    def test_reader_writer_shape(self):
        trace = execute(reader_writer(n_readers=3, rounds=2), FINE)
        info = metainfo(trace)
        assert info.threads == 4
        assert info.transactions == 8  # 2 updates + 3*2 scans

    def test_barrier_uses_one_lock(self):
        trace = execute(barrier_phases(n_threads=3, phases=2), FINE)
        assert metainfo(trace).locks == 1

    def test_pipeline_locks_per_slot(self):
        trace = execute(pipeline_stages(stages=3), FINE)
        assert metainfo(trace).locks == 3

    def test_map_reduce_forks_workers(self):
        trace = execute(map_reduce(n_mappers=3), FINE)
        info = metainfo(trace)
        assert info.threads == 4

    def test_program_names_encode_guardedness(self):
        assert reader_writer(guarded=False).name.endswith("racy")
        assert lazy_initialization(guarded=True).name.endswith("locked")
