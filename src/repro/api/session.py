"""The one-pass analysis session: ingest a trace once, run everything.

A :class:`Session` takes one trace — a string-event
:class:`~repro.trace.trace.Trace`, a compiled
:class:`~repro.trace.packed.PackedTrace`, or any event iterable — and
any number of analyses (instances, or registry names resolved through
:mod:`repro.api.registry`), then drives them all over a **single**
event sweep:

* on the packed path, each checker, race and lockset analysis sweeps
  its per-op handlers over the integer columns in one loop per batch
  (analyses share no state, so sweeping them one after another is the
  same as interleaving them event by event), while event-based analyses
  receive each reconstructed event exactly once, shared among all of
  them;
* on the string path, every analysis steps on the same event object;
* an analysis that declares itself ``finished`` (a stop-first checker
  after its violation, a limited report-all run) drops out of the
  sweep, and the sweep stops early once every analysis is done.

When the session holds exactly one stop-first checker, it delegates to
the checker's own (possibly inlined) ``run``/``run_packed`` hot loop —
so :func:`check` loses nothing by routing through here.

Sessions can also run **incrementally**: construct one with
``trace=None`` and push events as they arrive with :meth:`Session.feed`
(any number of calls, any batch sizes), then :meth:`Session.finish` to
collect the reports. ``run()`` is exactly feed-everything-then-finish,
so the two lifecycles produce identical reports — the agreement the
streaming service (:mod:`repro.service`) is built on and
``tests/test_api_feed.py`` property-tests for every registered
analysis. A packed incremental session owns its store
(:class:`~repro.trace.packed.PackedStore`): batches' names are copied
into its tables, never the other way round, and it keeps no columns
past the batch being swept. A mid-stream session is picklable (its
state is the analyses' state, the store's name tables and counters),
which is what service checkpoints ride.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..core.snapshot import CheckpointError
from ..faults.injector import fire
from ..faults.plan import FaultInjected
from ..trace.events import Event, Op
from ..trace.packed import (
    _NAMESPACE_OF_OP, NO_TARGET, DeltaBatch, PackedStore, PackedTrace,
)
from .analysis import Analysis, CheckerAnalysis, TraceMeta
from .report import Report, SessionResult


class Session:
    """One trace ingest driving any number of registered analyses.

    Args:
        trace: The events to analyze — ``Trace``, ``PackedTrace`` or any
            iterable of events. A ``PackedTrace`` selects the packed
            dispatch sweep automatically. Pass ``None`` for a streaming
            session driven by :meth:`feed`/:meth:`finish` instead of
            :meth:`run`.
        analyses: Analysis instances or registry names (strings). A
            fresh instance is created for each name; instances are used
            as-is and must be fresh (single-use).
        name: Override the trace name in reports.
        path: Source file path recorded in the JSON report.
    """

    def __init__(
        self,
        trace: Union[Iterable[Event], PackedTrace, None],
        analyses: Sequence[Union[str, Analysis]],
        name: Optional[str] = None,
        path: Optional[str] = None,
    ) -> None:
        if not analyses:
            raise ValueError("a session needs at least one analysis")
        from .registry import create_analysis

        self.trace = trace
        self.path = path
        self.analyses: List[Analysis] = [
            create_analysis(a) if isinstance(a, str) else a for a in analyses
        ]
        self.name = name or getattr(trace, "name", None) or "trace"
        self._result: Optional[SessionResult] = None
        # -- incremental (feed/finish) state ------------------------------
        self._started = False
        self._mode: Optional[str] = None  # "string" | "packed"
        self._meta: Optional[TraceMeta] = None
        self._t0: Optional[float] = None
        self._elapsed = 0.0  # seconds accumulated before a checkpoint
        self._swept = 0
        self._string_live: List[tuple] = []
        self._packed_live: List[tuple] = []
        self._event_live: List[tuple] = []
        self._store: Optional[PackedTrace] = None
        self._offset = 0  # stream position of the next packed batch

    # -- one-shot driving --------------------------------------------------

    def run(self, jobs: int = 1) -> SessionResult:
        """Sweep the trace once and finish every analysis.

        Exactly equivalent to feeding the whole trace with :meth:`feed`
        and calling :meth:`finish` — the one-shot form additionally
        knows the trace up front, so whole-trace analyses can skip
        buffering and the lone-stop-first-checker fast path applies.

        Args:
            jobs: With the default ``1``, everything runs in-process on
                the existing (possibly inlined) hot loops. With ``2+``
                (or ``0`` = one per CPU), the analyses are fanned across
                worker processes by :class:`repro.api.parallel.
                ParallelExecutor` — under ``fork`` the trace columns are
                inherited zero-copy — and the per-worker reports are
                merged back into one :class:`SessionResult` (identical
                up to ``native``, which does not cross the process
                boundary). A session that cannot run in parallel (a
                single analysis, a one-shot iterator trace, unpicklable
                state under ``spawn``) silently degrades to the serial
                sweep.
        """
        if self._result is not None:
            raise RuntimeError("session already ran; sessions are single-use")
        if self._started:
            raise RuntimeError(
                "session is streaming (feed() was called); use finish()"
            )
        if self.trace is None:
            raise ValueError(
                "session has no trace; stream events with feed()/finish()"
            )
        if jobs != 1:
            result = self._run_parallel(jobs)
            if result is not None:
                self._result = result
                return result
        trace = self.trace
        packed = isinstance(trace, PackedTrace)
        try:
            total: Optional[int] = len(trace)  # type: ignore[arg-type]
        except TypeError:
            total = None
        meta = TraceMeta(
            name=self.name,
            events=total,
            packed=packed,
            source=trace if total is not None else None,
        )
        self._begin(meta, packed=packed)
        solo = self._solo_checker()
        if solo is not None:
            solo.run_solo(trace)
            self._swept = solo.checker.events_processed
        elif packed:
            self._bind_packed(trace)
            self._sweep(trace.arrays(), 0)
        else:
            self._string_live = [
                (a, a.step) for a in self.analyses if not a.finished
            ]
            self._pump_string(trace)
        return self.finish()

    def _run_parallel(self, jobs: int) -> Optional[SessionResult]:
        """Try the process-parallel executor; None = use the serial sweep.

        Not every session parallelizes: one analysis has nothing to fan
        out, and a bare iterator trace cannot be swept twice. Worker
        failures (e.g. unpicklable analyses under ``spawn``) degrade to
        the serial path with a warning rather than failing the run.
        """
        if len(self.analyses) < 2:
            return None
        try:
            len(self.trace)  # type: ignore[arg-type]
        except TypeError:
            return None  # one-shot iterator: only one sweep exists
        from .parallel import ParallelExecutionError, ParallelExecutor

        executor = ParallelExecutor(jobs=None if jobs == 0 else jobs)
        if executor.jobs < 2:
            return None
        try:
            return executor.run_session(self)
        except ParallelExecutionError as error:
            import warnings

            warnings.warn(
                f"parallel session degraded to serial: {error}",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    def _solo_checker(self) -> Optional[CheckerAnalysis]:
        """The lone stop-first checker, when its own hot loop applies."""
        if len(self.analyses) != 1:
            return None
        only = self.analyses[0]
        if isinstance(only, CheckerAnalysis) and only.can_run_solo():
            return only
        return None

    # -- incremental driving -----------------------------------------------

    def feed(self, events: Union[Iterable[Event], PackedTrace, DeltaBatch],
             packed: Optional[bool] = None) -> int:
        """Push one batch of events through every live analysis.

        The incremental half of the session lifecycle: any number of
        ``feed`` calls followed by one :meth:`finish` produces reports
        identical to a one-shot :meth:`run` over the concatenation.

        The first call fixes the sweep mode:

        * **string mode** (an event iterable, and ``packed`` falsy) —
          each batch's events are stepped directly. Events should carry
          their global stream position in ``idx`` (a
          :class:`~repro.trace.trace.Trace` stamps it) so violation
          indices match the offline run.
        * **packed mode** (a :class:`~repro.trace.packed.PackedTrace` or
          :class:`~repro.trace.packed.DeltaBatch` batch, or
          ``packed=True``) — the session keeps its own
          :class:`~repro.trace.packed.PackedStore`: each batch's names
          are absorbed into the store's tables and its columns swept
          there; the batch itself is never modified. Slices of one
          packed trace, and the batches of one delta stream, map onto
          the store in O(new names) per batch. Event iterables are
          interned into the store directly.

        Returns:
            The number of events actually swept by this call — less
            than the batch size once every analysis has finished.
        """
        if self._result is not None:
            raise RuntimeError("session already finished")
        action = fire("analysis.step", key=self.name)
        if action is not None and action.op == "raise":
            raise FaultInjected(
                f"[injected] analysis step raised in session {self.name!r}"
            )
        is_batch = isinstance(events, (PackedTrace, DeltaBatch))
        if not self._started:
            if not (is_batch or packed):
                self._begin(
                    TraceMeta(name=self.name, events=None,
                              packed=False, source=None),
                    packed=False,
                )
                self._string_live = [
                    (a, a.step) for a in self.analyses if not a.finished
                ]
                return self._feed_string(events)
            self.packed_store()
        if self._mode != "packed":
            if is_batch:
                raise ValueError(
                    "session is sweeping in string mode; feed event "
                    "iterables (or start with a PackedTrace batch)"
                )
            return self._feed_string(events)
        store = self._store
        if not is_batch:
            events = store.delta_of(events)
        columns = store.absorb(events)
        base = self._offset
        store.set_window(columns, base)
        before = self._swept
        self._sweep(columns, base)
        return self._swept - before

    def packed_store(self) -> PackedStore:
        """The session's own packed store, starting a packed incremental
        sweep if the session has not started yet."""
        if not self._started:
            self._begin(
                TraceMeta(name=self.name, events=None, packed=True,
                          source=None),
                packed=True,
            )
            self._bind_packed(PackedStore(self.name))
        if not isinstance(self._store, PackedStore):
            raise ValueError("session is not sweeping a packed store")
        return self._store

    def _feed_string(self, events: Iterable[Event]) -> int:
        before = self._swept
        self._pump_string(events)
        return self._swept - before

    def finish(self) -> SessionResult:
        """Finish every analysis and assemble the :class:`SessionResult`.

        Ends both lifecycles: ``run()`` calls it internally, streaming
        callers call it after their last :meth:`feed`.
        """
        if self._result is not None:
            raise RuntimeError("session already finished")
        if not self._started:
            # finish() with no events: an empty stream.
            self._begin(
                TraceMeta(name=self.name, events=None,
                          packed=False, source=None),
                packed=False,
            )
        reports: Dict[str, Report] = {}
        for analysis in self.analyses:
            report = analysis.finish()
            key = report.analysis
            serial = 2
            while key in reports:  # same analysis twice in one session
                key = f"{report.analysis}#{serial}"
                serial += 1
            reports[key] = report
        self._result = SessionResult(
            trace_name=self.name,
            events=self._meta.events,
            events_swept=self._swept,
            packed=self._mode == "packed",
            seconds=self._elapsed + (time.perf_counter() - self._t0),
            reports=reports,
            path=self.path,
        )
        return self._result

    @property
    def started(self) -> bool:
        """Whether the session has begun sweeping (run or first feed)."""
        return self._started

    @property
    def events_swept(self) -> int:
        """Events visited by the sweep so far (stops growing once every
        analysis has finished)."""
        return self._swept

    # -- sweep machinery ---------------------------------------------------

    def _begin(self, meta: TraceMeta, packed: bool) -> None:
        self._started = True
        self._mode = "packed" if packed else "string"
        self._meta = meta
        self._t0 = time.perf_counter()
        for analysis in self.analyses:
            analysis.begin(meta)

    def _bind_packed(self, store: PackedTrace) -> None:
        """Bind every analysis to the packed store (once per session)."""
        self._store = store
        packed_live: List[tuple] = []
        event_live: List[tuple] = []
        for analysis in self.analyses:
            if analysis.finished:  # done at begin(): nothing to feed
                continue
            bound = analysis.bind_sweep(store)
            if bound is None:
                event_live.append((analysis, analysis.step))
            else:
                packed_live.append((analysis, bound))
        self._packed_live = packed_live
        self._event_live = event_live

    def _pump_string(self, events: Iterable[Event]) -> None:
        # Analyses may finish at begin() (offline passes holding the
        # whole source already) — they need no sweep at all.
        live = self._string_live
        if not live:
            return
        swept = self._swept
        for event in events:
            swept += 1
            finished = False
            for analysis, step in live:
                step(event)
                finished = finished or analysis.finished
            if finished:
                live = [(a, s) for a, s in live if not a.finished]
                if not live:
                    break
        self._string_live = live
        self._swept = swept

    def _sweep(self, columns: tuple, base: int) -> None:
        """Sweep one batch of columns at stream positions ``base`` on:
        each packed analysis in one call, then the event-based ones over
        shared reconstructed events. The sweep reaches as far as the
        analysis that went furthest."""
        threads, ops, targets = columns
        n = len(ops)
        self._offset = base + n
        reached = 0
        packed_live = self._packed_live
        if packed_live:
            for _analysis, sweep in packed_live:
                stop = sweep(threads, ops, targets, 0, n, base)
                if stop > reached:
                    reached = stop
            self._packed_live = [
                (a, s) for a, s in packed_live if not a.finished
            ]
        if self._event_live:
            reached = max(reached, self._step_events(columns, base))
        if reached:
            self._swept = base + reached

    def _step_events(self, columns: tuple, base: int) -> int:
        """Step the event-based analyses over one shared event per
        index; returns how far they got."""
        threads, ops, targets = columns
        tables = self._store.name_tables()
        thread_names = tables[2]
        live = self._event_live
        k = 0
        for k, (t, op, target) in enumerate(zip(threads, ops, targets), 1):
            event = Event(
                thread_names[t], Op(op),
                None if target == NO_TARGET
                else tables[_NAMESPACE_OF_OP[op]][target],
                idx=base + k - 1,
            )
            finished = False
            for analysis, step in live:
                step(event)
                finished = finished or analysis.finished
            if finished:
                live = [(a, s) for a, s in live if not a.finished]
                if not live:
                    break
        self._event_live = live
        return k

    # -- checkpointing -----------------------------------------------------

    def __getstate__(self):
        # The live lists hold bound dispatch closures — rebuilt on
        # restore from the analyses' own state, never pickled.
        state = self.__dict__.copy()
        if self._t0 is not None:
            state["_elapsed"] = self._elapsed + (
                time.perf_counter() - self._t0
            )
        state["_t0"] = None
        state["_string_live"] = []
        state["_packed_live"] = []
        state["_event_live"] = []
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if self._started and self._result is None:
            if self._mode == "packed" and not isinstance(
                self._store, PackedStore
            ):
                raise CheckpointError(
                    "session state predates the session-owned packed store"
                )
            self._t0 = time.perf_counter()
            self._rebind()

    def _rebind(self) -> None:
        """Rebuild the live dispatch lists after a checkpoint restore."""
        if self._mode == "packed":
            self._bind_packed(self._store)
        else:
            self._string_live = [
                (a, a.step) for a in self.analyses if not a.finished
            ]

    @property
    def result(self) -> Optional[SessionResult]:
        return self._result


def run(
    trace: Union[Iterable[Event], PackedTrace],
    analyses: Sequence[Union[str, Analysis]],
    name: Optional[str] = None,
    path: Optional[str] = None,
    jobs: int = 1,
) -> SessionResult:
    """One-shot convenience: ``Session(trace, analyses).run(jobs=jobs)``."""
    return Session(trace, analyses, name=name, path=path).run(jobs=jobs)


def check(
    events: Union[Iterable[Event], PackedTrace],
    algorithm: str = "aerodrome",
    raise_on_violation: bool = False,
):
    """Check a trace for atomicity violations — the session-era front door.

    Returns the checker's :class:`~repro.core.violations.CheckResult`;
    with ``raise_on_violation`` a violation raises
    :class:`~repro.core.violations.AtomicityViolationError` instead.
    Runs through a single-analysis :class:`Session`, which delegates to
    the checker's own hot loop.
    """
    from ..core.violations import AtomicityViolationError

    analysis = CheckerAnalysis(algorithm)
    result = Session(events, [analysis]).run()
    check_result = result.reports[algorithm].native
    if raise_on_violation and check_result.violation is not None:
        raise AtomicityViolationError(check_result.violation)
    return check_result
