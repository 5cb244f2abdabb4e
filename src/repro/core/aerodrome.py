"""AeroDrome — Algorithm 1 of the paper, the basic vector-clock checker.

A single-pass, linear-time algorithm detecting violations of conflict
serializability. The state consists of vector clocks:

* ``C_t`` — timestamp of the last event of thread ``t`` (init ``⊥[1/t]``);
* ``C⊲_t`` — timestamp of the last begin event of ``t`` (init ``⊥``);
* ``L_ℓ`` — timestamp of the last release of lock ``ℓ``, with the scalar
  ``lastRelThr_ℓ`` remembering the releasing thread;
* ``W_x`` — timestamp of the last write to ``x``, with ``lastWThr_x``;
* ``R_{t,x}`` — timestamp of the last read of ``x`` by thread ``t``.

The timestamps implicitly capture the ⋖E relation (Definition 2): the
procedure ``checkAndGet(clk, t)`` declares a violation when ``C⊲_t ⊑ clk``
and ``t`` has an active transaction — i.e. when, per Theorem 2, some event
⋖E-after the begin of ``t``'s active transaction is ⋖E-before the current
event of ``t``, closing a cycle of transactions.

Nested transactions are flattened (only the outermost begin/end pair is
processed, Section 4.1.4) and unary transactions — events outside any
block — never trigger the violation check.

This module follows the paper's pseudocode line by line, trading speed for
auditability: every ⊑ check walks the full vector (no local-component
shortcut), and the end handler scans all clocks rather than keeping
update sets. Entities are interned to dense indices once (threads,
variables, locks each get their own namespace), ``checkAndGet`` uses the
fused single-pass
:meth:`~repro.core.vector_clock.VectorClock.join_into_and_check`, and
the eager ``V := C_t`` snapshots are version-memoized so an unchanged
clock is never re-copied — constant-factor engineering that leaves the
per-event logic exactly the paper's.
:mod:`repro.core.aerodrome_opt` implements the optimized variant
(Appendix C) used by the benchmark harness.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..trace.events import Event, Op
from ..trace.packed import Interner, PackedTrace
from .checker import StreamingChecker, make_packed_step
from .vector_clock import ThreadRegistry, VectorClock
from .violations import Violation


class AeroDromeChecker(StreamingChecker):
    """Streaming implementation of Algorithm 1.

    Feed events with :meth:`process` (or :meth:`run` over an iterable);
    the first violation is recorded in :attr:`violation` and processing
    stops.
    """

    algorithm = "aerodrome-basic"

    def __init__(self) -> None:
        super().__init__()
        self._threads = ThreadRegistry()
        self._var_names = Interner()
        self._lock_names = Interner()
        # Per-thread state, indexed by thread index.
        self._clock: List[VectorClock] = []  # C_t
        self._begin_clock: List[VectorClock] = []  # C⊲_t
        self._depth: List[int] = []  # transaction nesting depth
        # Per-lock state, indexed by lock index.
        self._lock_clock: List[Optional[VectorClock]] = []  # L_ℓ
        self._last_rel_thr: List[int] = []  # lastRelThr_ℓ (-1 = none)
        self._lock_pub: List[Optional[tuple]] = []  # release epoch memo
        # Per-variable state, indexed by variable index.
        self._write_clock: List[Optional[VectorClock]] = []  # W_x
        self._last_w_thr: List[int] = []  # lastWThr_x (-1 = none)
        self._write_pub: List[Optional[tuple]] = []  # write epoch memo
        self._read_clock: List[Optional[Dict[int, VectorClock]]] = []  # R_{t,x}
        self._read_pub: List[Optional[Dict[int, tuple]]] = []  # read epoch memos

    # -- state helpers -------------------------------------------------------

    def _thread(self, name: str) -> int:
        """Intern a thread name, initializing its clocks on first sight."""
        t = self._threads.index_of(name)
        if t == len(self._clock):
            self._clock.append(VectorClock.unit(t))
            self._begin_clock.append(VectorClock.bottom())
            self._depth.append(0)
        return t

    def _var(self, name: str) -> int:
        """Intern a variable name, initializing its state on first sight."""
        x = self._var_names.index_of(name)
        if x == len(self._write_clock):
            self._write_clock.append(None)
            self._last_w_thr.append(-1)
            self._write_pub.append(None)
            self._read_clock.append(None)
            self._read_pub.append(None)
        return x

    def _lock(self, name: str) -> int:
        """Intern a lock name, initializing its state on first sight."""
        l = self._lock_names.index_of(name)
        if l == len(self._lock_clock):
            self._lock_clock.append(None)
            self._last_rel_thr.append(-1)
            self._lock_pub.append(None)
        return l

    def thread_clock(self, name: str) -> VectorClock:
        """Read-only view of C_t (⊥ for threads not yet observed) —
        exposed for tests and expository code."""
        if name not in self._threads:
            return VectorClock.bottom()
        return self._clock[self._threads.index_of(name)].copy()

    def begin_clock(self, name: str) -> VectorClock:
        """Read-only view of C⊲_t (⊥ for threads not yet observed)."""
        if name not in self._threads:
            return VectorClock.bottom()
        return self._begin_clock[self._threads.index_of(name)].copy()

    def write_clock(self, variable: str) -> VectorClock:
        """Read-only view of W_x (⊥ if x has not been written)."""
        x = self._var_names.lookup(variable)
        clock = self._write_clock[x] if x is not None else None
        return clock.copy() if clock is not None else VectorClock.bottom()

    def lock_clock(self, lock: str) -> VectorClock:
        """Read-only view of L_ℓ (⊥ if ℓ has not been released)."""
        l = self._lock_names.lookup(lock)
        clock = self._lock_clock[l] if l is not None else None
        return clock.copy() if clock is not None else VectorClock.bottom()

    def read_clock(self, thread: str, variable: str) -> VectorClock:
        """Read-only view of R_{t,x} (⊥ if t has not read x)."""
        x = self._var_names.lookup(variable)
        if x is not None and thread in self._threads:
            per_thread = self._read_clock[x]
            if per_thread is not None:
                clock = per_thread.get(self._threads.index_of(thread))
                if clock is not None:
                    return clock.copy()
        return VectorClock.bottom()

    # -- checkAndGet (paper lines 9-12) -----------------------------------

    def _check_and_get(
        self, clk: VectorClock, t: int, idx: int, site: str
    ) -> Optional[Violation]:
        """``checkAndGet(clk, t)``: check C⊲_t ⊑ clk, then C_t ⊔= clk.

        The check and the join traverse the same operand, fused into one
        pass; the check's verdict only matters inside a transaction.
        """
        if self._depth[t] > 0:
            if self._clock[t].join_into_and_check(clk, self._begin_clock[t]):
                name = self._threads.name_of(t)
                return Violation(
                    event_idx=idx,
                    thread=name,
                    site=site,
                    details=(
                        f"C⊲_{name} ⊑ {clk!r} with an active transaction"
                    ),
                )
        else:
            self._clock[t].join(clk)
        return None

    # -- event handlers ------------------------------------------------------

    def _acquire(self, t: int, l: int, idx: int) -> Optional[Violation]:
        if self._last_rel_thr[l] != t:
            clock = self._lock_clock[l]
            if clock is not None:
                return self._check_and_get(clock, t, idx, "acquire")
        return None

    def _release(self, t: int, l: int, idx: int) -> None:
        clock = self._clock[t]
        old = self._lock_clock[l]
        memo = self._lock_pub[l]
        # Epoch memo: skip the snapshot when L_ℓ is already an untouched
        # copy of this exact clock state.
        if memo is None or old is None or memo != (t, clock.version, old.version):
            snap = clock.copy()
            self._lock_clock[l] = snap
            self._lock_pub[l] = (t, clock.version, snap.version)
        self._last_rel_thr[l] = t
        return None

    def _fork(self, t: int, u: int, idx: int) -> None:
        self._clock[u].join(self._clock[t])
        return None

    def _join(self, t: int, u: int, idx: int) -> Optional[Violation]:
        return self._check_and_get(self._clock[u], t, idx, "join")

    def _read(self, t: int, x: int, idx: int) -> Optional[Violation]:
        if self._last_w_thr[x] != t:
            clock = self._write_clock[x]
            if clock is not None:
                violation = self._check_and_get(clock, t, idx, "read")
                if violation is not None:
                    return violation
        per_thread = self._read_clock[x]
        if per_thread is None:
            per_thread = {}
            self._read_clock[x] = per_thread
        memos = self._read_pub[x]
        if memos is None:
            memos = {}
            self._read_pub[x] = memos
        clock = self._clock[t]
        old = per_thread.get(t)
        memo = memos.get(t)
        if memo is None or old is None or memo != (clock.version, old.version):
            snap = clock.copy()
            per_thread[t] = snap
            memos[t] = (clock.version, snap.version)
        return None

    def _write(self, t: int, x: int, idx: int) -> Optional[Violation]:
        if self._last_w_thr[x] != t:
            clock = self._write_clock[x]
            if clock is not None:
                violation = self._check_and_get(clock, t, idx, "write-write")
                if violation is not None:
                    return violation
        per_thread = self._read_clock[x]
        if per_thread:
            for u, read_clock in per_thread.items():
                if u != t:
                    violation = self._check_and_get(read_clock, t, idx, "write-read")
                    if violation is not None:
                        return violation
        clock = self._clock[t]
        old = self._write_clock[x]
        memo = self._write_pub[x]
        if memo is None or old is None or memo != (t, clock.version, old.version):
            snap = clock.copy()
            self._write_clock[x] = snap
            self._write_pub[x] = (t, clock.version, snap.version)
        self._last_w_thr[x] = t
        return None

    def _begin(self, t: int, idx: int) -> None:
        depth = self._depth[t]
        self._depth[t] = depth + 1
        if depth > 0:
            return None  # nested begin: only the outermost pair counts
        clock = self._clock[t]
        clock.increment(t)
        self._begin_clock[t] = clock.copy()
        return None

    def _end(self, t: int, idx: int) -> Optional[Violation]:
        depth = self._depth[t]
        if depth == 0:
            raise ValueError(
                f"end without matching begin at event {idx}; "
                "validate the trace with repro.trace.wellformed first"
            )
        self._depth[t] = depth - 1
        if depth > 1:
            return None  # nested end
        begin_clock = self._begin_clock[t]
        my_clock = self._clock[t]
        # Propagate the completed transaction's time into every thread
        # that already observed an event of this transaction (lines 38-40):
        # the checkAndGet there may discover a cycle closed by u's active
        # transaction.
        for u, u_clock in enumerate(self._clock):
            if u != t and begin_clock.leq(u_clock):
                violation = self._check_and_get(my_clock, u, idx, "end")
                if violation is not None:
                    return violation
        # ... and into every lock/write/read clock that is after the begin
        # (lines 41-46), so future readers of those clocks inherit the
        # ⋖E-edge through this now-completed transaction.
        for clock in self._lock_clock:
            if clock is not None and begin_clock.leq(clock):
                clock.join(my_clock)
        for clock in self._write_clock:
            if clock is not None and begin_clock.leq(clock):
                clock.join(my_clock)
        for per_thread in self._read_clock:
            if per_thread is not None:
                for u, clock in per_thread.items():
                    if begin_clock.leq(clock):
                        clock.join(my_clock)
        # The depth is already 0: t no longer has an active transaction.
        return None

    def state_summary(self) -> Dict[str, int]:
        """Clock counts — the Theorem 4 space bound, observable.

        ``read_clocks`` is the O(|Thr|·V) term that Algorithm 2
        eliminates; compare with the optimized checker's summary.
        """
        lock_clocks = sum(1 for clock in self._lock_clock if clock is not None)
        write_clocks = sum(1 for clock in self._write_clock if clock is not None)
        read_clocks = sum(
            len(per) for per in self._read_clock if per is not None
        )
        return {
            "events_processed": self.events_processed,
            "thread_clocks": 2 * len(self._clock),  # C_t and C⊲_t
            "lock_clocks": lock_clocks,
            "write_clocks": write_clocks,
            "read_clocks": read_clocks,
            "total_clocks": (
                2 * len(self._clock)
                + lock_clocks
                + write_clocks
                + read_clocks
            ),
        }

    # -- dispatch ------------------------------------------------------------

    def process(self, event: Event) -> Optional[Violation]:
        """Process one event; return the violation if this event closes one.

        After a violation has been found the checker is *stopped*:
        further calls raise :class:`RuntimeError` (the paper's algorithm
        exits at the first violation). This is the string adapter over
        the interned per-op handlers the packed path dispatches to.
        """
        if self.violation is not None:
            raise RuntimeError("checker already found a violation; reset() first")
        t = self._thread(event.thread)
        op = event.op
        violation: Optional[Violation]
        if op is Op.READ:
            violation = self._read(t, self._var(event.target), event.idx)
        elif op is Op.WRITE:
            violation = self._write(t, self._var(event.target), event.idx)
        elif op is Op.ACQUIRE:
            violation = self._acquire(t, self._lock(event.target), event.idx)
        elif op is Op.RELEASE:
            violation = self._release(t, self._lock(event.target), event.idx)
        elif op is Op.BEGIN:
            violation = self._begin(t, event.idx)
        elif op is Op.END:
            violation = self._end(t, event.idx)
        elif op is Op.FORK:
            violation = self._fork(t, self._thread(event.target), event.idx)
        elif op is Op.JOIN:
            violation = self._join(t, self._thread(event.target), event.idx)
        else:  # pragma: no cover - exhaustive over Op
            raise AssertionError(f"unhandled op {op}")
        self.events_processed += 1
        if violation is not None:
            self.violation = violation
        return violation

    def packed_step(self, packed: PackedTrace):
        """Per-op dispatch table over packed records (see base class)."""
        return make_packed_step(
            packed, self._thread, self._var, self._lock,
            self._read, self._write, self._acquire, self._release,
            self._fork, self._join, self._begin, self._end,
        )
