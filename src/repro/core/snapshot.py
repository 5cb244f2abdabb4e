"""Checkpoint / restore for streaming checkers.

The paper's target workloads are traces with *billions* of events
(Table 1), analyzed online as the program runs. For deployments of that
shape an analysis must be able to survive monitor restarts: persist the
vector-clock state, resume from where it left off. Because AeroDrome's
state is a constant number of vector clocks and scalars (Theorem 4's
space bound — not the trace itself), checkpoints are small and cheap,
which is itself a selling point over the graph-based baselines whose
live state (the transaction graph) can grow with the trace.

The implementation is deliberately algorithm-agnostic: any
:class:`~repro.core.checker.StreamingChecker` whose state is picklable
can be checkpointed, restored in the same process, or round-tripped
through a file. Equivalence — *checkpoint/restore anywhere in the
stream never changes the verdict* — is property-tested in
``tests/test_snapshot.py`` for every registered algorithm.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .checker import StreamingChecker

#: Format tag stored in every checkpoint, bumped on layout changes.
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """A frozen, self-describing checker state.

    Attributes:
        algorithm: Registry name of the checkpointed checker.
        events_processed: Stream position at checkpoint time.
        payload: Pickled checker (opaque).
        version: Format version (:data:`CHECKPOINT_VERSION`).
    """

    algorithm: str
    events_processed: int
    payload: bytes
    version: int = CHECKPOINT_VERSION

    def __len__(self) -> int:
        """Payload size in bytes — the state-size metric used by the
        ``examples/checkpoint_streaming.py`` walkthrough."""
        return len(self.payload)


class CheckpointError(RuntimeError):
    """A checkpoint could not be taken or restored."""


def freeze(state: object, what: str = "state") -> bytes:
    """Pickle any checkpointable state, wrapping failures uniformly.

    The serialization core shared by checker checkpoints here and the
    streaming-service session checkpoints
    (:mod:`repro.service.recovery`). ``what`` names the object in the
    :class:`CheckpointError` message.

    Raises:
        CheckpointError: If the state is not picklable.
    """
    try:
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointError(f"cannot checkpoint {what}: {exc}") from exc


def thaw(payload: bytes, what: str = "state") -> object:
    """Inverse of :func:`freeze`; corrupt payloads raise uniformly.

    Raises:
        CheckpointError: On any unpickling failure.
    """
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(f"corrupt {what} payload: {exc}") from exc


def snapshot(checker: StreamingChecker) -> Checkpoint:
    """Freeze ``checker``'s full analysis state into a :class:`Checkpoint`.

    The checker itself is untouched and can keep processing events.

    Raises:
        CheckpointError: If the checker state is not picklable.
    """
    payload = freeze(checker, what=checker.algorithm)
    return Checkpoint(
        algorithm=checker.algorithm,
        events_processed=checker.events_processed,
        payload=payload,
    )


def restore(checkpoint: Checkpoint) -> StreamingChecker:
    """Rebuild a checker from a :class:`Checkpoint`.

    The returned checker is independent of the original: both can
    process further events without affecting each other.

    Raises:
        CheckpointError: On version mismatch or a corrupt payload.
    """
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {checkpoint.version} != "
            f"supported {CHECKPOINT_VERSION}"
        )
    checker = thaw(checkpoint.payload, what="checkpoint")
    if not isinstance(checker, StreamingChecker):
        raise CheckpointError(
            f"checkpoint payload is a {type(checker).__name__}, "
            "not a StreamingChecker"
        )
    return checker


def save_checkpoint(
    checker: StreamingChecker, path: Union[str, Path]
) -> Checkpoint:
    """Snapshot ``checker`` and write the checkpoint to ``path``."""
    checkpoint = snapshot(checker)
    Path(path).write_bytes(freeze(checkpoint, what="checkpoint file"))
    return checkpoint


def load_checkpoint(path: Union[str, Path]) -> StreamingChecker:
    """Load a checkpoint file written by :func:`save_checkpoint`.

    Raises:
        CheckpointError: If the file is truncated, corrupt, or holds
            anything but a :class:`Checkpoint`.
    """
    checkpoint = thaw(Path(path).read_bytes(), what=f"checkpoint file {path}")
    if not isinstance(checkpoint, Checkpoint):
        raise CheckpointError(f"{path} does not contain a Checkpoint")
    return restore(checkpoint)
