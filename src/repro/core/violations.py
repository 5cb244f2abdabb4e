"""Violation reports shared by all checkers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Violation:
    """A detected violation of conflict serializability.

    Attributes:
        event_idx: Index in the trace of the event at which the violation
            was detected (checkers stop at the first violation, so this is
            the length of the shortest violating prefix minus one).
        thread: The thread whose active transaction closes the cycle.
        site: Which check fired — one of ``"acquire"``, ``"read"``,
            ``"write-write"``, ``"write-read"``, ``"join"``, ``"end"``,
            ``"cycle"`` (graph-based checkers).
        details: Free-form human-readable explanation.
    """

    event_idx: int
    thread: str
    site: str
    details: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.details})" if self.details else ""
        return (
            f"conflict serializability violation at event {self.event_idx} "
            f"in thread {self.thread} [{self.site} check]{suffix}"
        )


class AtomicityViolationError(RuntimeError):
    """Raised by ``repro.api.check(..., raise_on_violation=True)``."""

    def __init__(self, violation: Violation) -> None:
        self.violation = violation
        super().__init__(str(violation))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of running a checker over a trace.

    Attributes:
        algorithm: Name of the algorithm that produced the result.
        violation: The first violation found, or ``None``.
        events_processed: Number of events consumed (checkers stop at the
            first violation, matching the paper's algorithms which exit
            as soon as a violation is declared).
    """

    algorithm: str
    violation: Optional[Violation]
    events_processed: int

    @property
    def serializable(self) -> bool:
        """True iff no violation was found (Column 7 ✓ in the tables)."""
        return self.violation is None

    def __str__(self) -> str:
        verdict = "✓ serializable" if self.serializable else f"✗ {self.violation}"
        return f"[{self.algorithm}] {verdict} after {self.events_processed} events"
