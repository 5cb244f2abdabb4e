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
        step = self.packed_step(packed)
        threads, ops, targets = packed.arrays()
        n = len(ops)
        counted_before = self.events_processed
        i = start
        violation: Optional[Violation] = None
        while i < n:
            violation = step(ops[i], threads[i], targets[i], i)
            i += 1
            if violation is not None:
                break
        if self.events_processed == counted_before:
            # Fast steps leave the counter to us; the generic fallback
            # (via process) already counted each event.
            self.events_processed += i - start
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


def lazy_binder(names, intern) -> Callable[[int], object]:
    """A packed-namespace resolver: index -> interned checker state.

    Resolution is lazy and cached, so a run that stops early (or a
    report-and-continue stream over a violating prefix) never interns
    names — or, for the sharded checker, creates thread shards that
    would skew its access accounting — for events it did not reach.

    ``names`` may grow after binding: an incremental session
    (:meth:`repro.api.session.Session.feed`) keeps appending to the
    shared interner tables mid-stream, so the cache is resized on
    demand rather than fixed at bind time.
    """
    cache: list = [None] * len(names)

    def of(index: int):
        try:
            state = cache[index]
        except IndexError:
            cache.extend([None] * (len(names) - len(cache)))
            state = cache[index]
        if state is None:
            state = cache[index] = intern(names[index])
        return state

    return of


def make_packed_step(
    packed: PackedTrace,
    thread_intern,
    var_intern,
    lock_intern,
    read, write, acquire, release, fork, join, begin, end,
):
    """Build the per-op dispatch table every packed checker shares.

    The eight handlers receive ``(thread_state, target_state, idx)``
    with states resolved through the checker's own interners — whatever
    those interners return (dense ints for the basic checker, state
    objects elsewhere). Checkers pass their bound per-op methods; only
    the deliberately inlined hot loops (e.g. the optimized checker's
    ``run_packed``) bypass this.
    """
    thread_of = lazy_binder(packed.thread_names, thread_intern)
    var_of = lazy_binder(packed.variable_names, var_intern)
    lock_of = lazy_binder(packed.lock_names, lock_intern)
    handlers = (
        lambda t, v, i: read(thread_of(t), var_of(v), i),       # Op.READ
        lambda t, v, i: write(thread_of(t), var_of(v), i),      # Op.WRITE
        lambda t, l, i: acquire(thread_of(t), lock_of(l), i),   # Op.ACQUIRE
        lambda t, l, i: release(thread_of(t), lock_of(l), i),   # Op.RELEASE
        lambda t, u, i: fork(thread_of(t), thread_of(u), i),    # Op.FORK
        lambda t, u, i: join(thread_of(t), thread_of(u), i),    # Op.JOIN
        lambda t, _l, i: begin(thread_of(t), i),                # Op.BEGIN
        lambda t, _l, i: end(thread_of(t), i),                  # Op.END
    )

    def step(op: int, t: int, target: int, idx: int) -> Optional[Violation]:
        return handlers[op](t, target, idx)

    return step

