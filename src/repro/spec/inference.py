"""Atomicity-specification inference from traces.

The paper's evaluation hinges on a practical pain the introduction
spells out: "Atomicity specifications (i.e., which blocks of code
should be regarded as atomic) are hard to come by." Given a raw trace
whose begin/end markers carry method labels (what RoadRunner logs),
this module infers a specification that the trace *satisfies*, by
greedy refutation:

1. start with every labeled method atomic (the naive Table 2 spec);
2. filter the trace and run a checker;
3. on a violation, blame the method whose block the reporting thread
   had open at the violation, remove it from the candidate set;
4. repeat until the filtered trace is conflict serializable.

The result is a specification consistent with the observed execution —
the dynamic-analysis analog of the type-inference approaches the paper
cites ([17]: "constraint based type system inference for inferring
atomicity specifications"). Two honest caveats, also in the result
object: the spec is witnessed by *this* trace only (another schedule
may violate it — combine with :mod:`repro.sim.explore` for small
programs), and greedy blame is not guaranteed minimal (the cycle
involves at least two transactions; we drop the one AeroDrome reports,
which is the one whose check fired).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.violations import Violation
from ..trace.events import Op
from ..trace.trace import Trace
from .atomicity_spec import AtomicitySpec

# NOTE: ``repro.trace.filters`` imports this package for the spec model,
# so its ``apply_spec`` is imported lazily inside :func:`infer_spec`.


class InferenceError(RuntimeError):
    """The blame step could not identify a method to remove."""


@dataclass(frozen=True)
class InferredSpec:
    """Result of :func:`infer_spec`.

    Attributes:
        spec: The inferred specification (explicit method set).
        removed: Methods refuted, in removal order, each with the
            violation that blamed it.
        iterations: Number of check passes (``len(removed) + 1``).
        candidates: The initial labeled-method universe.
    """

    spec: AtomicitySpec
    removed: Tuple[Tuple[str, Violation], ...]
    iterations: int
    candidates: Tuple[str, ...]

    @property
    def atomic_methods(self) -> Set[str]:
        return set(self.spec.atomic_methods)

    @property
    def refuted_methods(self) -> List[str]:
        return [method for method, _ in self.removed]

    def __str__(self) -> str:
        kept = ", ".join(sorted(self.spec.atomic_methods)) or "(none)"
        dropped = ", ".join(self.refuted_methods) or "(none)"
        return (
            f"inferred spec after {self.iterations} pass(es): "
            f"atomic = {kept}; refuted = {dropped}"
        )


def labeled_methods(trace: Trace) -> Set[str]:
    """All method labels appearing on begin markers in ``trace``."""
    return {
        event.target
        for event in trace
        if event.op is Op.BEGIN and event.target is not None
    }


def _blame(filtered: Trace, violation: Violation) -> Optional[str]:
    """The label of the block the violating thread had open.

    Replays the filtered trace's markers up to the violation event and
    returns the *outermost* open label of the reporting thread — the
    outermost pair defines the transaction (§4.1.4), so it is the
    transaction on the cycle.
    """
    stack: Dict[str, List[Optional[str]]] = {}
    limit = violation.event_idx
    for event in filtered:
        if event.idx > limit:
            break
        if event.op is Op.BEGIN:
            stack.setdefault(event.thread, []).append(event.target)
        elif event.op is Op.END:
            frames = stack.get(event.thread)
            if frames:
                frames.pop()
    frames = stack.get(violation.thread) or []
    return frames[0] if frames else None


def infer_spec(
    trace: Trace,
    algorithm: str = "aerodrome",
    name: str = "inferred",
) -> InferredSpec:
    """Infer a trace-consistent atomicity specification (greedy).

    Args:
        trace: Raw trace with labeled begin/end markers.
        algorithm: Checker used for each pass. Must be one whose
            violations carry the reporting thread's active transaction
            (the AeroDrome and Velodrome families qualify).
        name: Name of the resulting specification.

    Raises:
        InferenceError: If a violation cannot be blamed on a labeled
            method (unlabeled markers, or a cycle purely among unary
            transactions) — no spec over the labels can fix those.
    """
    from ..trace.filters import apply_spec

    candidates = sorted(labeled_methods(trace))
    atomic: Set[str] = set(candidates)
    removed: List[Tuple[str, Violation]] = []
    iterations = 0
    while True:
        iterations += 1
        spec = AtomicitySpec.of(atomic, name=name)
        filtered = apply_spec(trace, spec)
        from ..api.session import check

        result = check(filtered, algorithm=algorithm)
        if result.serializable:
            return InferredSpec(
                spec=spec,
                removed=tuple(removed),
                iterations=iterations,
                candidates=tuple(candidates),
            )
        assert result.violation is not None
        method = _blame(filtered, result.violation)
        if method is None or method not in atomic:
            raise InferenceError(
                f"violation at event {result.violation.event_idx} cannot "
                "be blamed on a removable labeled method; the trace is "
                "non-serializable under the empty specification's residue"
            )
        atomic.discard(method)
        removed.append((method, result.violation))
