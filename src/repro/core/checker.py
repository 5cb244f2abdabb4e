"""The streaming checker interface and the packed-step helpers every
checker shares.

Checkers are instantiated by registry name through
:func:`repro.api.make_checker`, and whole traces are checked with
:func:`repro.api.check`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, Optional

from ..trace.events import Event
from ..trace.packed import PackedTrace
from .violations import CheckResult, Violation


class StreamingChecker(ABC):
    """Base class for single-pass conflict-serializability checkers.

    Subclasses implement :meth:`process`; callers either stream events in
    (online setting) or use :meth:`run` over a whole trace. All checkers
    stop at the first violation, as the paper's algorithms do.

    Attributes:
        violation: The first violation found, or ``None`` so far.
        events_processed: Number of events consumed.
    """

    #: Registry name of the algorithm (also used in reports).
    algorithm: str = "abstract"

    def __init__(self) -> None:
        self.violation: Optional[Violation] = None
        self.events_processed: int = 0

    @abstractmethod
    def process(self, event: Event) -> Optional[Violation]:
        """Consume one event; return a violation iff this event closes one."""

    def run(self, events: Iterable[Event]) -> CheckResult:
        """Consume events until exhaustion or the first violation.

        Packed traces are routed to :meth:`run_packed`, the dense
        integer fast path; anything else is consumed event by event.
        """
        if isinstance(events, PackedTrace):
            return self.run_packed(events)
        for event in events:
            if self.process(event) is not None:
                break
        return self.result()

    def packed_step(self, packed: PackedTrace) -> Callable[[int, int, int, int], Optional[Violation]]:
        """A per-event step function over ``packed``'s integer records.

        The returned callable ``step(op, thread, target, idx)`` consumes
        one packed event and returns its violation, if any. Checkers
        with a packed fast path override this with a per-op dispatch
        table over dense state; those fast steps do **not** maintain
        :attr:`violation` / :attr:`events_processed` — the driving loop
        (:meth:`run_packed`, or report-and-continue in
        :mod:`repro.core.multi`) owns that bookkeeping. This generic
        fallback reconstructs events and delegates to :meth:`process`,
        which keeps its usual bookkeeping.
        """
        event_at = packed.event_at
        process = self.process

        def step(op: int, t: int, target: int, idx: int) -> Optional[Violation]:
            return process(event_at(idx))

        return step

    def run_packed(self, packed: PackedTrace, start: int = 0) -> CheckResult:
        """Consume a :class:`~repro.trace.packed.PackedTrace` from
        ``start`` until exhaustion or the first violation."""
        if self.violation is not None:
            raise RuntimeError("checker already found a violation; reset() first")
        sweep = packed_sweep(self.packed_step(packed))
        threads, ops, targets = packed.arrays()
        counted_before = self.events_processed
        stop, violation = sweep(threads, ops, targets, start, len(ops), 0)
        if self.events_processed == counted_before:
            # Fast steps leave the counter to us; the generic fallback
            # (via process) already counted each event.
            self.events_processed += stop - start
        if violation is not None:
            self.violation = violation
        return self.result()

    def result(self) -> CheckResult:
        """The verdict so far as a :class:`CheckResult`."""
        return CheckResult(
            algorithm=self.algorithm,
            violation=self.violation,
            events_processed=self.events_processed,
        )

    def reset(self) -> None:
        """Restore the initial state (forget all clocks and the verdict)."""
        self.__init__()  # type: ignore[misc]

    def state_summary(self) -> Dict[str, int]:
        """Live analysis-state size, in algorithm-specific units.

        Checkers override this to expose what Theorem 4 bounds — clock
        counts for the vector-clock algorithms, node/edge counts for
        the graph-based ones. The base implementation reports only the
        stream position. Used by :mod:`repro.bench.memory` to measure
        state growth along a trace.
        """
        return {"events_processed": self.events_processed}


def packed_sweep(step):
    """The batch form of a packed ``step`` (see :func:`make_packed_step`).

    Steps built by :func:`make_packed_step` carry their own inlined
    ``sweep``; any other step is looped event by event.
    """
    sweep = getattr(step, "sweep", None)
    if sweep is not None:
        return sweep

    def sweep(threads, ops, targets, lo: int, hi: int, base: int):
        for k in range(lo, hi):
            violation = step(ops[k], threads[k], targets[k], base + k)
            if violation is not None:
                return k + 1, violation
        return hi, None

    return sweep


def make_packed_step(
    packed: PackedTrace,
    thread_intern,
    var_intern,
    lock_intern,
    read, write, acquire, release, fork, join, begin, end,
):
    """Build the per-op dispatch every packed checker shares.

    The eight handlers receive ``(thread_state, target_state, idx)``
    with states resolved through the checker's own interners — whatever
    those interners return (dense ints for the basic checker, state
    objects elsewhere). Checkers pass their bound per-op methods; only
    the deliberately inlined hot loops (e.g. the optimized checker's
    ``run_packed``) bypass this.

    Returns ``step(op, thread, target, idx)``, one event, whose
    ``step.sweep(threads, ops, targets, lo, hi, base)`` is the batch
    form: one loop over the columns' positions ``[lo, hi)`` (stream
    index ``base + k``) with the state caches inlined, returning
    ``(stop, violation)`` at the first handler result that is not
    ``None`` (``stop`` is the position after it), else ``(hi, None)``.

    Both forms share the state caches. Names resolve lazily, on first
    use, so a run that stops early never interns names (or, for the
    sharded checker, creates thread shards) for events it did not
    reach. ``packed``'s tables may grow after binding (an incremental
    session absorbs new names mid-stream); the caches grow with them.
    """
    thread_names = packed.thread_names
    var_names = packed.variable_names
    lock_names = packed.lock_names
    tmap: list = []
    vmap: list = []
    lmap: list = []

    def sweep(threads, ops, targets, lo: int, hi: int, base: int):
        if len(tmap) < len(thread_names):
            tmap.extend([None] * (len(thread_names) - len(tmap)))
        if len(vmap) < len(var_names):
            vmap.extend([None] * (len(var_names) - len(vmap)))
        if len(lmap) < len(lock_names):
            lmap.extend([None] * (len(lock_names) - len(lmap)))
        if lo or hi != len(ops):
            threads, ops, targets = threads[lo:hi], ops[lo:hi], targets[lo:hi]
        for i, op, t, target in zip(range(base + lo, base + hi), ops,
                                    threads, targets):
            ts = tmap[t]
            if ts is None:
                ts = tmap[t] = thread_intern(thread_names[t])
            if op == 0:
                xs = vmap[target]
                if xs is None:
                    xs = vmap[target] = var_intern(var_names[target])
                violation = read(ts, xs, i)
            elif op == 1:
                xs = vmap[target]
                if xs is None:
                    xs = vmap[target] = var_intern(var_names[target])
                violation = write(ts, xs, i)
            elif op == 6:
                violation = begin(ts, i)
            elif op == 7:
                violation = end(ts, i)
            elif op == 2 or op == 3:
                ls = lmap[target]
                if ls is None:
                    ls = lmap[target] = lock_intern(lock_names[target])
                violation = (acquire if op == 2 else release)(ts, ls, i)
            else:
                us = tmap[target]
                if us is None:
                    us = tmap[target] = thread_intern(thread_names[target])
                violation = (fork if op == 4 else join)(ts, us, i)
            if violation is not None:
                return i - base + 1, violation
        return hi, None

    def state(cache: list, names, intern, k: int):
        try:
            found = cache[k]
        except IndexError:
            cache.extend([None] * (len(names) - len(cache)))
            found = cache[k]
        if found is None:
            found = cache[k] = intern(names[k])
        return found

    def step(op: int, t: int, target: int, idx: int) -> Optional[Violation]:
        ts = state(tmap, thread_names, thread_intern, t)
        if op < 2:
            xs = state(vmap, var_names, var_intern, target)
            return (read if op == 0 else write)(ts, xs, idx)
        if op < 4:
            ls = state(lmap, lock_names, lock_intern, target)
            return (acquire if op == 2 else release)(ts, ls, idx)
        if op < 6:
            us = state(tmap, thread_names, thread_intern, target)
            return (fork if op == 4 else join)(ts, us, idx)
        return (begin if op == 6 else end)(ts, idx)

    step.sweep = sweep
    return step
