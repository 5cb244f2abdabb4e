"""The paper's contribution: AeroDrome vector-clock atomicity checking."""

from .aerodrome import AeroDromeChecker
from .aerodrome_opt import OptimizedAeroDromeChecker
from .checker import StreamingChecker
from .multi import find_all_violations, violation_stream
from .sharded import ShardedAeroDromeChecker, SyncStats
from .snapshot import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from .vector_clock import ThreadRegistry, VectorClock
from .violations import AtomicityViolationError, CheckResult, Violation

__all__ = [
    "AeroDromeChecker",
    "OptimizedAeroDromeChecker",
    "ShardedAeroDromeChecker",
    "SyncStats",
    "StreamingChecker",
    "violation_stream",
    "find_all_violations",
    "snapshot",
    "restore",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
    "CheckpointError",
    "VectorClock",
    "ThreadRegistry",
    "Violation",
    "CheckResult",
    "AtomicityViolationError",
]
