"""Violation minimization by structure-aware delta debugging.

A violating benchmark trace has tens of thousands of events; the cycle
that matters usually involves a handful. This module shrinks a
violating trace to a *1-minimal* one (at transaction granularity):
removing any single remaining unit makes the violation disappear — the
trace-level analog of Zeller's ddmin, specialised to our domain:

* the removable **units** are whole transactions (a unary transaction
  is its single event), so begin/end pairs never split;
* every candidate is gated by the well-formedness validator — a
  candidate that breaks lock discipline or fork/join order is simply
  treated as "does not reproduce" and never produced as output;
* the reproduction predicate is "some checker reports a violation",
  with the checker pluggable.

The result composes with :mod:`repro.analysis.explain` and
:mod:`repro.analysis.timeline`: minimize first, then render the
few-event core and its witness cycle (that is exactly what
``repro minimize`` does).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..trace.events import Event
from ..trace.trace import Trace
from ..trace.transactions import extract_transactions
from ..trace.wellformed import is_well_formed

#: Predicate deciding whether a candidate trace still "reproduces".
Reproduces = Callable[[Trace], bool]


def _subtrace(trace: Trace, units: Sequence[List[int]], keep: Sequence[bool]) -> Trace:
    """The trace restricted to the units marked ``keep`` (order kept)."""
    wanted = set()
    for unit, kept in zip(units, keep):
        if kept:
            wanted.update(unit)
    result = Trace(name=f"{trace.name}-min")
    for event in trace:
        if event.idx in wanted:
            result.append(Event(event.thread, event.op, event.target))
    return result


def _violates(trace: Trace, algorithm: str) -> bool:
    from ..api.session import check

    return not check(trace, algorithm=algorithm).serializable


def minimize_violation(
    trace: Trace,
    algorithm: str = "aerodrome",
    reproduces: Optional[Reproduces] = None,
) -> Trace:
    """Shrink a violating trace to a 1-minimal violating subtrace.

    Args:
        trace: A well-formed trace on which ``reproduces`` holds.
        algorithm: Checker used by the default predicate.
        reproduces: Custom predicate (default: ``algorithm`` reports a
            violation). Candidates that are not well-formed never reach
            it.

    Returns:
        A well-formed trace on which the predicate still holds and from
        which no single transaction unit can be removed — usually the
        bare witness cycle plus whatever orders it.

    Raises:
        ValueError: If the predicate does not hold on ``trace`` itself.
    """
    predicate: Reproduces = reproduces or (lambda t: _violates(t, algorithm))
    if not predicate(trace):
        raise ValueError("the input trace does not reproduce the violation")

    units = [txn.event_indices for txn in extract_transactions(trace).transactions]
    keep = [True] * len(units)

    def holds(candidate_keep: Sequence[bool]) -> bool:
        candidate = _subtrace(trace, units, candidate_keep)
        return is_well_formed(candidate) and predicate(candidate)

    # Phase 1 — coarse ddmin: try dropping exponentially shrinking
    # chunks of units until single-unit granularity.
    chunk = max(1, sum(keep) // 2)
    while chunk >= 1:
        changed = False
        start = 0
        while start < len(units):
            if not any(keep[start:start + chunk]):
                start += chunk
                continue
            trial = keep[:]
            trial[start:start + chunk] = [False] * len(trial[start:start + chunk])
            if holds(trial):
                keep = trial
                changed = True
            start += chunk
        if chunk == 1 and not changed:
            break
        if not changed:
            chunk //= 2
        # On progress, retry at the same granularity: dropping one
        # chunk often unlocks its neighbours.
    return _subtrace(trace, units, keep)


def is_one_minimal(
    trace: Trace,
    algorithm: str = "aerodrome",
    reproduces: Optional[Reproduces] = None,
) -> bool:
    """Whether no single transaction unit of ``trace`` can be dropped.

    The postcondition of :func:`minimize_violation`, exposed for tests.
    """
    predicate: Reproduces = reproduces or (lambda t: _violates(t, algorithm))
    units = [txn.event_indices for txn in extract_transactions(trace).transactions]
    for skip in range(len(units)):
        keep = [i != skip for i in range(len(units))]
        candidate = _subtrace(trace, units, keep)
        if is_well_formed(candidate) and predicate(candidate):
            return False
    return True
