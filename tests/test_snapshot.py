"""Checkpoint/restore tests: splitting a stream at any point must not
change the verdict, for every registered algorithm."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import check, checker_names, make_checker
from repro.core.snapshot import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from repro.sim.random_traces import RandomTraceConfig, random_trace

#: Atomizer is registered but deliberately unsound; it still must be
#: checkpointable like the rest.
ALGORITHMS = checker_names()


def run_split(trace, algorithm, split):
    """Run with a snapshot/restore boundary after ``split`` events."""
    checker = make_checker(algorithm)
    events = list(trace)
    for event in events[:split]:
        if checker.process(event) is not None:
            return checker.result()
    resumed = restore(snapshot(checker))
    for event in events[split:]:
        if resumed.process(event) is not None:
            break
    return resumed.result()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_split_preserves_verdict_on_paper_traces(algorithm, paper_traces):
    for trace, _ in paper_traces:
        expected = check(trace, algorithm=algorithm)
        for split in range(len(trace) + 1):
            result = run_split(trace, algorithm, split)
            assert result.serializable == expected.serializable
            if expected.violation is not None:
                assert result.violation.event_idx == expected.violation.event_idx


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    split_frac=st.floats(0.0, 1.0),
    algorithm=st.sampled_from(["aerodrome", "aerodrome-basic", "velodrome"]),
)
def test_split_preserves_verdict_on_random_traces(seed, split_frac, algorithm):
    trace = random_trace(
        seed, RandomTraceConfig(n_threads=3, n_vars=3, n_locks=1, length=40)
    )
    split = int(split_frac * len(trace))
    expected = check(trace, algorithm=algorithm)
    result = run_split(trace, algorithm, split)
    assert result.serializable == expected.serializable


def test_snapshot_does_not_disturb_the_original(rho2):
    checker = make_checker("aerodrome")
    events = list(rho2)
    for event in events[:3]:
        checker.process(event)
    checkpoint = snapshot(checker)
    # Original keeps processing to the violation...
    for event in events[3:]:
        if checker.process(event) is not None:
            break
    assert checker.violation is not None
    # ...while the checkpoint still describes the old position.
    assert checkpoint.events_processed == 3
    resumed = restore(checkpoint)
    assert resumed.violation is None
    assert resumed.events_processed == 3


def test_restored_checker_is_independent(rho2):
    checker = make_checker("aerodrome")
    events = list(rho2)
    for event in events[:4]:
        checker.process(event)
    first = restore(snapshot(checker))
    second = restore(snapshot(checker))
    for event in events[4:]:
        if first.process(event) is not None:
            break
    assert first.violation is not None
    assert second.violation is None  # untouched sibling


def test_checkpoint_metadata(rho1):
    checker = make_checker("velodrome")
    for event in rho1:
        checker.process(event)
    checkpoint = snapshot(checker)
    assert checkpoint.algorithm == "velodrome"
    assert checkpoint.events_processed == len(rho1)
    assert checkpoint.version == CHECKPOINT_VERSION
    assert len(checkpoint) == len(checkpoint.payload) > 0


def test_file_round_trip(tmp_path, rho2):
    checker = make_checker("aerodrome")
    events = list(rho2)
    for event in events[:4]:
        checker.process(event)
    path = tmp_path / "analysis.ckpt"
    save_checkpoint(checker, path)
    resumed = load_checkpoint(path)
    for event in events[4:]:
        if resumed.process(event) is not None:
            break
    assert resumed.violation is not None


def test_version_mismatch_rejected():
    checkpoint = Checkpoint(
        algorithm="aerodrome",
        events_processed=0,
        payload=b"",
        version=CHECKPOINT_VERSION + 1,
    )
    with pytest.raises(CheckpointError, match="version"):
        restore(checkpoint)


def test_corrupt_payload_rejected():
    checkpoint = Checkpoint(
        algorithm="aerodrome", events_processed=0, payload=b"garbage"
    )
    with pytest.raises(CheckpointError, match="corrupt"):
        restore(checkpoint)


def test_non_checker_payload_rejected():
    payload = pickle.dumps({"not": "a checker"})
    checkpoint = Checkpoint(
        algorithm="aerodrome", events_processed=0, payload=payload
    )
    with pytest.raises(CheckpointError, match="not a StreamingChecker"):
        restore(checkpoint)


def test_load_rejects_wrong_file_contents(tmp_path, rho1):
    path = tmp_path / "bogus.ckpt"
    with open(path, "wb") as handle:
        pickle.dump([1, 2, 3], handle)
    with pytest.raises(CheckpointError, match="does not contain"):
        load_checkpoint(path)
    # A truncated checkpoint and plain garbage must fail as typed
    # CheckpointErrors too, never as raw unpickling errors.
    checker = make_checker("aerodrome")
    checker.run(rho1)
    save_checkpoint(checker, path)
    data = path.read_bytes()
    for damaged in (data[: len(data) // 2], b"\x00garbage\xff" * 8):
        path.write_bytes(damaged)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
