"""Systematic and randomized schedule exploration.

Dynamic atomicity checkers only see the schedules that actually ran; the
related work the paper surveys (CTrigger [49], Penelope [58], CalFuzzer
[26], model checking [11, 55]) attacks the *interleaving explosion* by
searching the schedule space. This module provides both search modes on
our program model:

* :func:`enumerate_schedules` — exhaustive DFS over every scheduler
  choice of a (small) program, yielding each distinct trace once;
* :func:`explore` — run a checker over enumerated schedules and report
  how many violate atomicity, with a witness schedule;
* :func:`fuzz` — the CalFuzzer-style alternative: sample random
  schedules when the space is too large to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..api.session import check
from ..trace.events import Event, Op
from ..trace.trace import Trace
from .program import (
    Acquire,
    Begin,
    End,
    Fork,
    Join,
    Program,
    Read,
    Release,
    Write,
)
from .runtime import execute
from .scheduler import PCTScheduler, RandomScheduler, Scheduler


class _State:
    """A lightweight program-execution state for DFS exploration."""

    __slots__ = ("program", "pcs", "started", "lock_holder", "lock_depth")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.pcs: Dict[str, int] = {t.name: 0 for t in program.threads}
        roots = set(program.root_threads())
        self.started: Dict[str, bool] = {
            t.name: t.name in roots for t in program.threads
        }
        self.lock_holder: Dict[str, str] = {}
        self.lock_depth: Dict[str, int] = {}

    def clone(self) -> "_State":
        twin = _State.__new__(_State)
        twin.program = self.program
        twin.pcs = dict(self.pcs)
        twin.started = dict(self.started)
        twin.lock_holder = dict(self.lock_holder)
        twin.lock_depth = dict(self.lock_depth)
        return twin

    def _finished(self, name: str) -> bool:
        return self.pcs[name] >= len(self.program.body(name).statements)

    @property
    def done(self) -> bool:
        return all(self._finished(t.name) for t in self.program.threads)

    def runnable(self) -> List[str]:
        names = []
        for body in self.program.threads:
            name = body.name
            if not self.started[name] or self._finished(name):
                continue
            stmt = body.statements[self.pcs[name]]
            if isinstance(stmt, Acquire):
                holder = self.lock_holder.get(stmt.lock)
                if holder is not None and holder != name:
                    continue
            elif isinstance(stmt, Join):
                if not (self.started[stmt.thread] and self._finished(stmt.thread)):
                    continue
            names.append(name)
        return names

    def step(self, name: str) -> Event:
        """Execute one statement of ``name``; returns the logged event."""
        stmt = self.program.body(name).statements[self.pcs[name]]
        self.pcs[name] += 1
        if isinstance(stmt, Read):
            return Event(name, Op.READ, stmt.var)
        if isinstance(stmt, Write):
            return Event(name, Op.WRITE, stmt.var)
        if isinstance(stmt, Acquire):
            self.lock_holder[stmt.lock] = name
            self.lock_depth[stmt.lock] = self.lock_depth.get(stmt.lock, 0) + 1
            return Event(name, Op.ACQUIRE, stmt.lock)
        if isinstance(stmt, Release):
            depth = self.lock_depth.get(stmt.lock, 0) - 1
            self.lock_depth[stmt.lock] = depth
            if depth == 0:
                self.lock_holder.pop(stmt.lock, None)
            return Event(name, Op.RELEASE, stmt.lock)
        if isinstance(stmt, Fork):
            self.started[stmt.thread] = True
            return Event(name, Op.FORK, stmt.thread)
        if isinstance(stmt, Join):
            return Event(name, Op.JOIN, stmt.thread)
        if isinstance(stmt, Begin):
            return Event(name, Op.BEGIN, stmt.label)
        assert isinstance(stmt, End)
        return Event(name, Op.END, stmt.label)


def enumerate_schedules(
    program: Program, max_schedules: Optional[int] = None
) -> Iterator[Trace]:
    """Yield the trace of every maximal schedule of ``program`` (DFS).

    The number of schedules is exponential in the program size; cap it
    with ``max_schedules`` for anything but toy programs. Deadlocked
    schedules (no runnable thread before completion) are yielded as
    their partial traces — checkers handle prefixes fine.
    """
    produced = 0
    stack: List[tuple] = [(_State(program), [])]
    while stack:
        state, events = stack.pop()
        runnable = state.runnable()
        if not runnable:
            trace = Trace(name=f"{program.name}-schedule-{produced}")
            trace.extend(Event(e.thread, e.op, e.target) for e in events)
            yield trace
            produced += 1
            if max_schedules is not None and produced >= max_schedules:
                return
            continue
        # Reversed so DFS explores threads in declaration order first.
        for name in reversed(runnable):
            twin = state.clone() if len(runnable) > 1 else state
            event = twin.step(name)
            stack.append((twin, events + [event]))


@dataclass
class ExplorationResult:
    """Outcome of checking a schedule population.

    Attributes:
        schedules: Number of schedules checked.
        violating: Number of non-serializable schedules.
        witness: One violating trace (``None`` if all serializable).
        exhaustive: Whether the whole schedule space was covered.
    """

    schedules: int = 0
    violating: int = 0
    witness: Optional[Trace] = None
    exhaustive: bool = True

    @property
    def always_atomic(self) -> bool:
        """No explored schedule violates (a proof when ``exhaustive``)."""
        return self.violating == 0

    def __str__(self) -> str:
        kind = "all" if self.exhaustive else "sampled"
        return (
            f"{self.violating}/{self.schedules} {kind} schedules violate "
            "conflict serializability"
        )


def explore(
    program: Program,
    algorithm: str = "aerodrome",
    max_schedules: Optional[int] = 10_000,
) -> ExplorationResult:
    """Check every schedule of ``program`` (up to ``max_schedules``)."""
    result = ExplorationResult()
    for trace in enumerate_schedules(program, max_schedules=max_schedules):
        result.schedules += 1
        verdict = check(trace, algorithm=algorithm)
        if not verdict.serializable:
            result.violating += 1
            if result.witness is None:
                result.witness = trace
    if max_schedules is not None and result.schedules >= max_schedules:
        result.exhaustive = False
    return result


def fuzz(
    program: Program,
    schedules: int = 100,
    algorithm: str = "aerodrome",
    seed: int = 0,
    strategy: str = "uniform",
    pct_depth: int = 3,
) -> ExplorationResult:
    """Sample random schedules instead of enumerating.

    Args:
        program: The program to fuzz.
        schedules: Number of sampled runs.
        algorithm: Checker for each run.
        seed: Base PRNG seed (run ``i`` uses ``seed + i``).
        strategy: ``"uniform"`` (CalFuzzer-style uniform scheduling) or
            ``"pct"`` (probabilistic concurrency testing with the steps
            bound set to the program length — better odds for bugs
            needing few ordering constraints).
        pct_depth: The PCT bug-depth parameter (``strategy="pct"``).
    """
    if strategy not in ("uniform", "pct"):
        raise ValueError(f"unknown strategy {strategy!r}")
    steps_bound = program.total_statements()

    def make_scheduler(run_seed: int) -> Scheduler:
        if strategy == "pct":
            return PCTScheduler(
                seed=run_seed, depth=pct_depth, max_steps=steps_bound
            )
        return RandomScheduler(seed=run_seed)

    result = ExplorationResult(exhaustive=False)
    for i in range(schedules):
        trace = execute(program, make_scheduler(seed + i))
        result.schedules += 1
        verdict = check(trace, algorithm=algorithm)
        if not verdict.serializable:
            result.violating += 1
            if result.witness is None:
                result.witness = trace
    return result
