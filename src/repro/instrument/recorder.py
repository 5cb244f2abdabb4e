"""Live trace recording for real Python threads.

The paper logs traces from Java programs via RoadRunner's load-time
instrumentation. This module is the Python analog a downstream user
would actually adopt: wrap your shared state in :class:`SharedVar`, your
locks in :class:`TracedLock`, mark intended-atomic regions with
:meth:`TraceRecorder.atomic`, and spawn threads through the recorder —
every run of your *real threaded code* yields a well-formed trace ready
for :func:`repro.api.check`.

Event ordering is made consistent with the actual synchronization:

* variable accesses take the recorder's internal mutex around
  (access + log), so the logged order of conflicting accesses is the
  real one;
* lock acquires log *after* the OS-level acquire and releases log
  *before* the OS-level release, so a ``rel(l)`` always precedes the
  next ``acq(l)`` in the trace;
* forks log before ``Thread.start`` and joins log after ``Thread.join``
  returns, satisfying the paper's fork/join well-formedness rules.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

from ..trace.events import Event, Op
from ..trace.trace import Trace


class TraceRecorder:
    """Collects events from live threads into a well-formed trace."""

    def __init__(self, name: str = "recorded") -> None:
        self._mutex = threading.Lock()
        self._trace = Trace(name=name)
        self._thread_names: Dict[int, str] = {}
        self._next_thread = 0

    # -- thread naming -----------------------------------------------------

    def _register_current(self) -> str:
        ident = threading.get_ident()
        name = self._thread_names.get(ident)
        if name is None:
            name = f"T{self._next_thread}"
            self._next_thread += 1
            self._thread_names[ident] = name
        return name

    def current_thread_name(self) -> str:
        """The trace name of the calling thread (registering it if new)."""
        with self._mutex:
            return self._register_current()

    # -- recording ---------------------------------------------------------

    def _record(self, op: Op, target: Optional[str]) -> None:
        # Caller must hold self._mutex.
        thread = self._register_current()
        self._trace.append(Event(thread, op, target))

    def record(self, op: Op, target: Optional[str] = None) -> None:
        """Log one event for the calling thread (thread-safe)."""
        with self._mutex:
            self._record(op, target)

    # -- structured helpers ------------------------------------------------

    @contextmanager
    def atomic(self, label: Optional[str] = None) -> Iterator[None]:
        """Mark a region the specification intends to be atomic."""
        self.record(Op.BEGIN, label)
        try:
            yield
        finally:
            self.record(Op.END, label)

    def shared(self, name: str, initial: Any = None) -> "SharedVar":
        """Create an instrumented shared memory location."""
        return SharedVar(self, name, initial)

    def lock(self, name: str) -> "TracedLock":
        """Create an instrumented re-entrant lock."""
        return TracedLock(self, name)

    def spawn(
        self,
        target: Callable[..., Any],
        *args: Any,
        thread_name: Optional[str] = None,
    ) -> threading.Thread:
        """Start a thread, logging the fork edge first.

        The child's trace name is assigned by the parent (so the fork
        event can reference it) and claimed by the child before its
        first instruction; OS thread-id reuse is therefore harmless.
        """
        with self._mutex:
            parent = self._register_current()
            child = f"T{self._next_thread}"
            self._next_thread += 1
            self._trace.append(Event(parent, Op.FORK, child))

        def runner() -> None:
            ident = threading.get_ident()
            with self._mutex:
                self._thread_names[ident] = child
            try:
                target(*args)
            finally:
                # Drop the mapping so a reused OS thread id cannot be
                # mistaken for this (now finished) thread.
                with self._mutex:
                    self._thread_names.pop(ident, None)

        thread = threading.Thread(target=runner, name=thread_name)
        thread._repro_trace_name = child  # type: ignore[attr-defined]
        thread.start()
        return thread

    def join(self, thread: threading.Thread) -> None:
        """Join a spawned thread, logging the join edge afterwards."""
        child = getattr(thread, "_repro_trace_name", None)
        if child is None:
            raise ValueError("thread was not spawned through this recorder")
        thread.join()
        with self._mutex:
            parent = self._register_current()
            self._trace.append(Event(parent, Op.JOIN, child))

    # -- results -----------------------------------------------------------

    def trace(self) -> Trace:
        """A snapshot copy of everything recorded so far."""
        with self._mutex:
            snapshot = Trace(name=self._trace.name)
            for event in self._trace.events:
                snapshot.append(Event(event.thread, event.op, event.target))
            return snapshot

    def __len__(self) -> int:
        with self._mutex:
            return len(self._trace)


class SharedVar:
    """An instrumented shared memory location.

    Reads and writes take the recorder's mutex around access + log, so
    the trace reflects the true order of conflicting accesses.
    """

    def __init__(self, recorder: TraceRecorder, name: str, initial: Any = None):
        self._recorder = recorder
        self.name = name
        self._value = initial

    def get(self) -> Any:
        recorder = self._recorder
        with recorder._mutex:
            recorder._record(Op.READ, self.name)
            return self._value

    def set(self, value: Any) -> None:
        recorder = self._recorder
        with recorder._mutex:
            recorder._record(Op.WRITE, self.name)
            self._value = value

    value = property(get, set, doc="Instrumented access to the stored value.")


class TracedLock:
    """An instrumented re-entrant lock usable as a context manager."""

    def __init__(self, recorder: TraceRecorder, name: str) -> None:
        self._recorder = recorder
        self.name = name
        self._lock = threading.RLock()

    def acquire(self) -> None:
        self._lock.acquire()
        self._recorder.record(Op.ACQUIRE, self.name)

    def release(self) -> None:
        self._recorder.record(Op.RELEASE, self.name)
        self._lock.release()

    def __enter__(self) -> "TracedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()
