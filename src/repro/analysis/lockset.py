"""Eraser-style lockset analysis.

Savage et al.'s Eraser is the classic *lockset* race detector: every
shared variable ``x`` carries a candidate set ``C(x)`` of locks that
protected every access so far; an access by thread ``t`` refines
``C(x) := C(x) ∩ locks_held(t)``, and an empty candidate set on a
write-shared variable means no single lock protects ``x`` — a potential
data race.

The analysis is *unsound* in the dynamic-analysis sense used by the
AeroDrome paper (footnote 1): it reports false alarms, because it does
not understand fork/join or other non-lock synchronization. We implement
it here because

* the Atomizer baseline (:mod:`repro.baselines.atomizer`) classifies
  memory accesses as movers/non-movers based on lockset race information,
  and the AeroDrome paper's related-work section (§6) contrasts precisely
  this reduction-based family against conflict serializability;
* it makes a sharp test fixture: traces synchronized only by fork/join
  are race-free under happens-before (:mod:`repro.analysis.races`) yet
  flagged by the lockset analysis, which is the canonical false positive.

The state machine per variable follows the original paper: ``VIRGIN →
EXCLUSIVE(t) → SHARED → SHARED_MODIFIED``; candidate-set refinement only
happens in the shared states, and races are only reported in
``SHARED_MODIFIED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from ..core.checker import make_packed_step
from ..trace.events import Event, Op
from ..trace.packed import PackedTrace


class VarState(Enum):
    """Eraser's per-variable ownership states."""

    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared-modified"


@dataclass(frozen=True)
class LocksetWarning:
    """A potential race reported by the lockset analysis.

    Attributes:
        event_idx: Trace index of the access that emptied the lockset.
        variable: The variable whose candidate set became empty.
        thread: The accessing thread.
        is_write: Whether the offending access was a write.
    """

    event_idx: int
    variable: str
    thread: str
    is_write: bool

    def __init__(
        self, event_idx: int, variable: str, thread: str, is_write: bool
    ) -> None:
        # As Race's: stored through __dict__, in field order, in place of
        # the generated frozen __init__'s object.__setattr__ per field.
        values = self.__dict__
        values["event_idx"] = event_idx
        values["variable"] = variable
        values["thread"] = thread
        values["is_write"] = is_write

    def __str__(self) -> str:
        kind = "write" if self.is_write else "read"
        return (
            f"lockset: no common lock protects {self.variable} "
            f"({kind} by {self.thread} at event {self.event_idx})"
        )


_VIRGIN, _EXCLUSIVE = VarState.VIRGIN, VarState.EXCLUSIVE
_SHARED, _SHARED_MODIFIED = VarState.SHARED, VarState.SHARED_MODIFIED
_READ, _WRITE, _ACQUIRE, _RELEASE = Op.READ, Op.WRITE, Op.ACQUIRE, Op.RELEASE


class _ThreadState:
    """Per-thread state: the locks the thread holds right now."""

    __slots__ = ("name", "held")

    def __init__(self, name: str) -> None:
        self.name = name
        self.held: FrozenSet[str] = frozenset()


class _VarInfo:
    """Per-variable state: ownership state, owner and candidate set."""

    __slots__ = ("name", "state", "owner", "candidates", "reported")

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = VarState.VIRGIN
        self.owner: Optional[_ThreadState] = None
        self.candidates: Optional[FrozenSet[str]] = None  # None = "all locks"
        self.reported = False


@dataclass
class LocksetReport:
    """Result of :func:`lockset_analysis`.

    Attributes:
        warnings: All distinct-variable warnings, in detection order.
        final_states: Per-variable final ownership state.
    """

    warnings: List[LocksetWarning] = field(default_factory=list)
    final_states: Dict[str, VarState] = field(default_factory=dict)

    @property
    def racy_variables(self) -> Set[str]:
        return {w.variable for w in self.warnings}


class LocksetAnalyzer:
    """Streaming Eraser analysis.

    Feed events with :meth:`process`; warnings accumulate in
    :attr:`warnings` (one per variable — Eraser reports each variable at
    most once). :meth:`is_racy` answers "has this variable ever been
    flagged", which is what Atomizer's mover classification consumes.

    Per-op handlers take ``(thread_state, target_state, idx)``:
    :meth:`process` interns an event's names and calls them, and
    :meth:`packed_step` hands the same handlers to
    :func:`~repro.core.checker.make_packed_step`. Each thread keeps its
    held locks as a frozenset replaced on acquire/release, so an access
    to a known variable allocates nothing unless it shrinks ``C(x)``.
    """

    #: Attributes a checkpointed analyzer must carry (see __setstate__).
    _LAYOUT = frozenset({"warnings", "events_processed", "_threads", "_vars"})

    def __init__(self) -> None:
        self._threads: Dict[str, _ThreadState] = {}
        self._vars: Dict[str, _VarInfo] = {}
        self.warnings: List[LocksetWarning] = []
        self.events_processed = 0

    def __setstate__(self, state) -> None:
        missing = self._LAYOUT - state.keys()
        if missing:
            raise ValueError(
                "LocksetAnalyzer state predates per-thread lock sets "
                f"(missing {', '.join(sorted(missing))})"
            )
        self.__dict__.update(state)

    # -- queries ---------------------------------------------------------

    def locks_held(self, thread: str) -> FrozenSet[str]:
        """The lock set currently held by ``thread``."""
        state = self._threads.get(thread)
        return state.held if state is not None else frozenset()

    def is_racy(self, variable: str) -> bool:
        """Whether ``variable`` has been flagged by the analysis."""
        info = self._vars.get(variable)
        return info is not None and info.reported

    def candidate_set(self, variable: str) -> Optional[FrozenSet[str]]:
        """Current candidate lockset of ``variable``.

        ``None`` means "still the universal set" (no shared access yet).
        """
        info = self._vars.get(variable)
        if info is None:
            return None
        return info.candidates

    def state_of(self, variable: str) -> VarState:
        info = self._vars.get(variable)
        return info.state if info is not None else VarState.VIRGIN

    # -- interning ---------------------------------------------------------

    def _thread(self, name: str) -> _ThreadState:
        state = self._threads.get(name)
        if state is None:
            state = self._threads[name] = _ThreadState(name)
        return state

    def _var(self, name: str) -> _VarInfo:
        info = self._vars.get(name)
        if info is None:
            info = self._vars[name] = _VarInfo(name)
        return info

    @staticmethod
    def _lock(name: str) -> str:
        # A lock carries no state of its own: held sets hold its name.
        return name

    # -- the state machine -------------------------------------------------

    def _access(
        self, ts: _ThreadState, info: _VarInfo, idx: int, is_write: bool
    ) -> Optional[LocksetWarning]:
        self.events_processed += 1
        state = info.state
        if state is _EXCLUSIVE:
            if info.owner is ts:
                return None
            # First genuinely shared access: initialize the candidate
            # set from the locks held *now* and move to a shared state.
            info.candidates = ts.held
            state = info.state = _SHARED_MODIFIED if is_write else _SHARED
        elif state is _VIRGIN:
            info.state = _EXCLUSIVE
            info.owner = ts
            return None
        else:
            if not info.candidates <= ts.held:  # C(x) shrinks
                info.candidates = info.candidates & ts.held
            if is_write:
                state = info.state = _SHARED_MODIFIED

        if state is _SHARED_MODIFIED and not info.candidates and not info.reported:
            info.reported = True
            warning = LocksetWarning(idx, info.name, ts.name, is_write)
            self.warnings.append(warning)
            return warning
        return None

    def _read(self, ts: _ThreadState, info: _VarInfo, idx: int):
        return self._access(ts, info, idx, False)

    def _write(self, ts: _ThreadState, info: _VarInfo, idx: int):
        return self._access(ts, info, idx, True)

    def _acquire(self, ts: _ThreadState, lock: str, idx: int) -> None:
        self.events_processed += 1
        if lock not in ts.held:
            ts.held = ts.held | {lock}

    def _release(self, ts: _ThreadState, lock: str, idx: int) -> None:
        self.events_processed += 1
        if lock in ts.held:
            ts.held = ts.held - {lock}

    # fork/join/begin/end are invisible to Eraser — that blindness is
    # exactly what makes the analysis unsound (false positives on
    # fork/join-synchronized programs).

    def _thread_edge(self, ts: _ThreadState, child: _ThreadState, idx: int) -> None:
        self.events_processed += 1

    def _marker(self, ts: _ThreadState, idx: int) -> None:
        self.events_processed += 1

    # -- dispatch ----------------------------------------------------------

    def process(self, event: Event) -> Optional[LocksetWarning]:
        """Consume one event; return a warning iff this access is flagged."""
        threads = self._threads
        name = event.thread
        ts = threads[name] if name in threads else self._thread(name)
        op = event.op
        if op is _READ or op is _WRITE:
            target = event.target
            variables = self._vars
            info = variables[target] if target in variables else self._var(target)
            return self._access(ts, info, event.idx, op is _WRITE)
        if op is _ACQUIRE:
            self._acquire(ts, event.target, event.idx)
        elif op is _RELEASE:
            self._release(ts, event.target, event.idx)
        else:
            self._marker(ts, event.idx)
        return None

    def packed_step(self, packed: PackedTrace):
        """A ``step(op, thread, target, idx)`` over ``packed``'s records,
        dispatching to the same handlers as :meth:`process`."""
        return make_packed_step(
            packed, self._thread, self._var, self._lock,
            self._read, self._write, self._acquire, self._release,
            self._thread_edge, self._thread_edge, self._marker, self._marker,
        )

    def report(self) -> LocksetReport:
        """Snapshot the warnings and per-variable states."""
        return LocksetReport(
            warnings=self.warnings[:],
            final_states={v: info.state for v, info in self._vars.items()},
        )


def lockset_analysis(events: Iterable[Event]) -> LocksetReport:
    """Run the Eraser lockset analysis over a whole trace."""
    analyzer = LocksetAnalyzer()
    for event in events:
        analyzer.process(event)
    return analyzer.report()
