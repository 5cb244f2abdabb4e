"""Happens-before data race detection with FastTrack-style epochs.

The paper's future work (§7) suggests "improving the efficiency of the
proposed dynamic analysis for atomicity by incorporating ideas from data
race detection", citing FastTrack's classic epoch optimization [14].
This module implements that machinery in full on our trace substrate —
a sound and precise happens-before race detector whose per-access state
is an *epoch* (a single ``clock@thread`` pair) in the common case and a
full vector clock only where reads are genuinely concurrent.

Happens-before here is the standard synchronization order: program
order, release→acquire on a common lock, and fork/join edges — note it
does *not* include the variable-conflict edges of ≤CHB (those are what
race detection is checking, not what it assumes).

The detector runs on the same state shape as
:class:`~repro.core.aerodrome_opt.OptimizedAeroDromeChecker`:

* **Int clocks.** Thread and lock clocks are :mod:`repro.core.intclock`
  packed ints (one 64-bit lane per thread), so the release snapshot
  ``L_ℓ := C_t`` is an aliasing rebind and every join is the SWAR
  formula.
* **Epochs as (clock, lane) ints.** An epoch ``c@t`` is two small
  ints, the clock ``c`` and the bit offset of ``t``'s lane, so
  ``c@t ⊑ V`` is one shift, mask and compare
  (``c <= (V >> shift) & LANE_MASK``) and a checkpoint stores a few
  bytes per variable. Read-inflation packs the two concurrent read
  epochs into one int clock, and later reads are lane writes into it.
* **Per-op handlers** take ``(thread_state, target_state, idx)``;
  :meth:`FastTrackDetector.process` interns an event's names and calls
  them, and :meth:`FastTrackDetector.packed_step` hands the same
  handlers to :func:`~repro.core.checker.make_packed_step`.

:class:`Epoch` remains the readable form of an epoch for callers and
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..trace.events import Event, Op
from ..trace.packed import PackedTrace
from ..trace.trace import Trace
from ..core.checker import make_packed_step
from ..core.intclock import LANE_BITS, LANE_MASK, grow_guard, join
from ..core.vector_clock import VectorClock

_READ, _WRITE, _ACQUIRE, _RELEASE = Op.READ, Op.WRITE, Op.ACQUIRE, Op.RELEASE
_FORK, _JOIN = Op.FORK, Op.JOIN

#: Stores a frozen dataclass field (see ``Race.__init__``).
_set = object.__setattr__


@dataclass(frozen=True)
class Epoch:
    """``c@t`` — the access time ``c`` of one thread ``t`` (FastTrack)."""

    clock: int
    thread: int

    def leq(self, vc: VectorClock) -> bool:
        """``c@t ⊑ V`` iff ``c <= V(t)``."""
        return self.clock <= vc.get(self.thread)

    def __str__(self) -> str:
        return f"{self.clock}@{self.thread}"


@dataclass(frozen=True)
class Race:
    """A detected data race on one variable.

    Attributes:
        variable: The racy memory location.
        event_idx: Index of the second (racing) access.
        thread: The thread performing the second access.
        kind: ``"write-write"``, ``"write-read"`` or ``"read-write"``.
    """

    variable: str
    event_idx: int
    thread: str
    kind: str

    def __init__(self, variable: str, event_idx: int, thread: str, kind: str) -> None:
        # The generated frozen __init__ looks object.__setattr__ up per
        # field; a module-level alias is cheaper, and unlike a store
        # through __dict__ it keeps the values inline (no per-instance
        # dict), which makes every later field read cheaper too.
        _set(self, "variable", variable)
        _set(self, "event_idx", event_idx)
        _set(self, "thread", thread)
        _set(self, "kind", kind)

    def __str__(self) -> str:
        return (
            f"{self.kind} race on {self.variable!r} at event "
            f"{self.event_idx} in thread {self.thread}"
        )


class _ThreadState:
    """Per-thread state: the int clock ``C_t`` and its own component."""

    __slots__ = ("name", "shift", "unit", "vc", "clock")

    def __init__(self, index: int, name: str) -> None:
        self.name = name
        self.shift = LANE_BITS * index
        self.unit = 1 << self.shift
        self.vc = self.unit  # C_t = ⊥[1/t]
        #: ``C_t(t)``, the clock of the thread's current epoch.
        self.clock = 1


class _VarState:
    """Per-variable state: the write epoch and the adaptive read state.

    An epoch ``c@t`` is the pair ``(clock, shift)`` of small ints, with
    ``shift`` locating ``t``'s lane; a clock of ``0`` means "no access
    yet" (``0 ⊑`` every clock). ``r_vc`` is ``0`` until two concurrent
    reads inflate the read state to an int clock.
    """

    __slots__ = ("name", "w_clock", "w_shift", "r_clock", "r_shift", "r_vc")

    def __init__(self, name: str) -> None:
        self.name = name
        self.w_clock = 0
        self.w_shift = 0
        self.r_clock = 0
        self.r_shift = 0
        self.r_vc = 0


class _LockState:
    """Per-lock state: ``L_ℓ``, the clock of the last release."""

    __slots__ = ("vc",)

    def __init__(self) -> None:
        self.vc = 0


class FastTrackDetector:
    """Streaming happens-before race detector with epoch optimization.

    Unlike the atomicity checkers, race detection does not stop at the
    first finding: all races are collected (one report per racy access).
    """

    #: Attributes a checkpointed detector must carry (see __setstate__).
    _LAYOUT = frozenset({"races", "events_processed", "_threads", "_vars",
                         "_locks", "_H"})

    def __init__(self) -> None:
        self.races: List[Race] = []
        self._threads: Dict[str, _ThreadState] = {}
        self._vars: Dict[str, _VarState] = {}
        self._locks: Dict[str, _LockState] = {}
        #: SWAR guard mask covering one lane per interned thread.
        self._H = 0
        self.events_processed = 0

    def __setstate__(self, state) -> None:
        missing = self._LAYOUT - state.keys()
        if missing:
            raise ValueError(
                "FastTrackDetector state predates int clocks "
                f"(missing {', '.join(sorted(missing))})"
            )
        self.__dict__.update(state)

    # -- interning -----------------------------------------------------------

    def _thread(self, name: str) -> _ThreadState:
        state = self._threads.get(name)
        if state is None:
            state = self._threads[name] = _ThreadState(len(self._threads), name)
            self._H = grow_guard(self._H, len(self._threads))
        return state

    def _var(self, name: str) -> _VarState:
        state = self._vars.get(name)
        if state is None:
            state = self._vars[name] = _VarState(name)
        return state

    def _lock(self, name: str) -> _LockState:
        state = self._locks.get(name)
        if state is None:
            state = self._locks[name] = _LockState()
        return state

    # -- handlers ------------------------------------------------------------
    #
    # Each takes resolved states plus the event index and counts the
    # event; process() and the packed dispatch both call them.

    def _read(self, ts: _ThreadState, xs: _VarState, idx: int) -> None:
        self.events_processed += 1
        vc = ts.vc
        if xs.w_clock > (vc >> xs.w_shift) & LANE_MASK:
            self.races.append(Race(xs.name, idx, ts.name, "write-read"))
        # FastTrack's adaptive read state: same epoch / ordered epoch
        # stays an epoch; concurrent reads inflate to a vector clock.
        if xs.r_vc:
            shift = ts.shift
            xs.r_vc = xs.r_vc & ~(LANE_MASK << shift) | ts.clock << shift
        elif xs.r_clock <= (vc >> xs.r_shift) & LANE_MASK:
            xs.r_clock = ts.clock
            xs.r_shift = ts.shift
        else:  # the stored epoch is another thread's: distinct lanes
            xs.r_vc = xs.r_clock << xs.r_shift | ts.clock << ts.shift
            xs.r_clock = 0

    def _write(self, ts: _ThreadState, xs: _VarState, idx: int) -> None:
        self.events_processed += 1
        vc = ts.vc
        if xs.w_clock > (vc >> xs.w_shift) & LANE_MASK:
            self.races.append(Race(xs.name, idx, ts.name, "write-write"))
        if xs.r_clock > (vc >> xs.r_shift) & LANE_MASK:
            self.races.append(Race(xs.name, idx, ts.name, "read-write"))
        elif xs.r_vc:
            h = self._H
            if ((vc | h) - xs.r_vc) & h != h:  # not R_x ⊑ C_t
                self.races.append(Race(xs.name, idx, ts.name, "read-write"))
        xs.w_clock = ts.clock
        xs.w_shift = ts.shift
        xs.r_clock = 0
        xs.r_vc = 0

    def _acquire(self, ts: _ThreadState, ls: _LockState, idx: int) -> None:
        self.events_processed += 1
        ts.vc = join(ts.vc, ls.vc, self._H)

    def _release(self, ts: _ThreadState, ls: _LockState, idx: int) -> None:
        self.events_processed += 1
        ls.vc = ts.vc  # aliasing snapshot: L_ℓ := C_t
        ts.vc += ts.unit
        ts.clock += 1

    def _fork(self, ts: _ThreadState, child: _ThreadState, idx: int) -> None:
        self.events_processed += 1
        child.vc = join(child.vc, ts.vc, self._H)
        ts.vc += ts.unit
        ts.clock += 1

    def _join(self, ts: _ThreadState, child: _ThreadState, idx: int) -> None:
        self.events_processed += 1
        ts.vc = join(ts.vc, child.vc, self._H)

    def _marker(self, ts: _ThreadState, idx: int) -> None:
        # begin/end are atomicity markers: irrelevant to races.
        self.events_processed += 1

    # -- dispatch ------------------------------------------------------------

    def process(self, event: Event) -> None:
        """Consume one string event: intern its names, call its handler."""
        threads = self._threads
        name = event.thread
        ts = threads[name] if name in threads else self._thread(name)
        op = event.op
        target = event.target
        if op is _READ or op is _WRITE:
            variables = self._vars
            xs = variables[target] if target in variables else self._var(target)
            if op is _READ:
                self._read(ts, xs, event.idx)
            else:
                self._write(ts, xs, event.idx)
        elif op is _ACQUIRE:
            self._acquire(ts, self._lock(target), event.idx)
        elif op is _RELEASE:
            self._release(ts, self._lock(target), event.idx)
        elif op is _FORK:
            self._fork(ts, self._thread(target), event.idx)
        elif op is _JOIN:
            self._join(ts, self._thread(target), event.idx)
        else:
            self._marker(ts, event.idx)

    def packed_step(self, packed: PackedTrace):
        """A ``step(op, thread, target, idx)`` over ``packed``'s records,
        dispatching to the same handlers as :meth:`process`."""
        return make_packed_step(
            packed, self._thread, self._var, self._lock,
            self._read, self._write, self._acquire, self._release,
            self._fork, self._join, self._marker, self._marker,
        )

    def run(self, events) -> List[Race]:
        for event in events:
            self.process(event)
        return self.races

    @property
    def racy_variables(self) -> set:
        return {race.variable for race in self.races}


def find_races(trace: Trace) -> List[Race]:
    """All happens-before data races in ``trace``."""
    return FastTrackDetector().run(trace)
