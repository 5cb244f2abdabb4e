"""Workload-pattern tests: known verdicts under known schedules."""

import pytest

from repro import check, conflict_serializable, metainfo
from repro.sim.runtime import execute
from repro.sim.scheduler import RandomScheduler, RoundRobinScheduler
from repro.sim.workloads.patterns import (
    bank_transfer,
    dining_philosophers,
    double_checked_flag,
    fork_join_pipeline,
    locked_counter,
    producer_consumer,
    read_shared_write_private,
    unprotected_counter,
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
    def test_locked_counter_any_schedule(self, seed):
        assert verdicts(locked_counter(), RandomScheduler(seed=seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_guarded_bank_transfer(self, seed):
        assert verdicts(bank_transfer(guarded=True), RandomScheduler(seed=seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_guarded_producer_consumer(self, seed):
        assert verdicts(
            producer_consumer(guarded=True), RandomScheduler(seed=seed)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_dining_philosophers(self, seed):
        assert verdicts(dining_philosophers(), RandomScheduler(seed=seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_fork_join_pipeline(self, seed):
        assert verdicts(fork_join_pipeline(), RandomScheduler(seed=seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_read_shared_write_private(self, seed):
        assert verdicts(
            read_shared_write_private(), RandomScheduler(seed=seed)
        )


class TestViolatingPatterns:
    def test_unprotected_counter_fine_grained(self):
        assert not verdicts(unprotected_counter(), RoundRobinScheduler(quantum=1))

    def test_unprotected_counter_serial_schedule_ok(self):
        # Coarse scheduling runs each block to completion: serializable.
        assert verdicts(unprotected_counter(), RoundRobinScheduler(quantum=1000))

    def test_racy_bank_transfer_some_schedule_violates(self):
        # Atomicity violations are schedule-dependent (the lockstep
        # round-robin interleaving happens to serialize this one); some
        # random schedule must expose the lost-update cycle.
        outcomes = [
            verdicts(bank_transfer(guarded=False), RandomScheduler(seed=seed))
            for seed in range(10)
        ]
        assert not all(outcomes)

    def test_racy_producer_consumer_fine_grained(self):
        assert not verdicts(producer_consumer(guarded=False), FINE)

    def test_double_checked_flag_fine_grained(self):
        assert not verdicts(double_checked_flag(), FINE)


class TestShapes:
    def test_locked_counter_trace_shape(self):
        trace = execute(locked_counter(n_threads=2, increments=3), FINE)
        info = metainfo(trace)
        assert info.threads == 2
        assert info.transactions == 6
        assert info.locks == 1

    def test_philo_shape(self):
        trace = execute(dining_philosophers(n=5, bites=1), FINE)
        info = metainfo(trace)
        assert info.threads == 5
        assert info.locks == 5
