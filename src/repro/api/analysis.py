"""The ``Analysis`` protocol and adapters for every built-in analysis.

An analysis is anything that can ride the session's single event sweep:

* ``begin(meta)`` — called once before the sweep with the trace's
  :class:`TraceMeta`;
* ``step(event)`` — consume one string event (the session calls this on
  the string path, and on the packed path for analyses without a packed
  binding — the reconstructed event is shared across all such analyses);
* ``bind_packed(packed)`` — optionally return a
  ``step(op, thread, target, idx)`` callable over packed integer
  records; returning ``None`` keeps the event-object path;
* ``bind_sweep(packed)`` — the batch form the session drives: a
  ``sweep(threads, ops, targets, lo, hi, base)`` over column positions
  ``[lo, hi)`` (stream index ``base + k``) that returns the position it
  stopped at (``hi`` unless the analysis finished). The default loops
  the ``bind_packed`` step; checkers, races and lockset sweep their
  per-op handlers in one inlined loop;
* ``finish()`` — wrap up into a :class:`~repro.api.report.Report`;
* ``finished`` — set ``True`` to tell the session this analysis needs
  no more events (the sweep stops early once every analysis is done).

Adapters below wrap every existing entrypoint — the
:class:`~repro.core.checker.StreamingChecker` family (all ``repro.core``
and ``repro.baselines`` checkers), FastTrack races, the Eraser lockset,
the workload profile, view serializability, causal atomicity and the
witness-cycle explainer — so they co-run on one ingest with payloads
identical to their standalone runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Set, Tuple

from ..trace.events import Event, Op
from ..trace.packed import PackedTrace
from ..trace.trace import Trace
from ..core.checker import packed_sweep
from ..core.violations import CheckResult, Violation
from .report import Report, finding_dict

#: The run modes a checker analysis understands.
MODES = ("stop_first", "report_all", "sample")

_BEGIN, _END = int(Op.BEGIN), int(Op.END)
_READ, _WRITE = int(Op.READ), int(Op.WRITE)


@dataclass(frozen=True)
class TraceMeta:
    """What an analysis learns about the trace before the sweep.

    Attributes:
        name: Trace name.
        events: Event count, or ``None`` for bare iterables.
        packed: Whether the sweep runs over packed integer records.
        source: The trace object itself (``Trace``/``PackedTrace``), for
            offline analyses that postprocess the whole trace at
            ``finish()``; ``None`` when the session consumes a one-shot
            iterator.
    """

    name: str
    events: Optional[int]
    packed: bool
    source: Any = None


class Analysis:
    """Base class (and de-facto protocol) for session analyses.

    Instances are single-use: construct a fresh one per session, the way
    checkers are constructed fresh per run.
    """

    #: Registry name; also the report key.
    name: str = "abstract"
    #: Family tag for the JSON report.
    kind: str = "analysis"
    #: Run mode label for the JSON report.
    mode: str = "stream"

    def __init__(self) -> None:
        self.finished = False
        self.meta: Optional[TraceMeta] = None

    def begin(self, meta: TraceMeta) -> None:
        self.meta = meta

    def step(self, event: Event) -> None:
        raise NotImplementedError

    def bind_packed(
        self, packed: PackedTrace
    ) -> Optional[Callable[[int, int, int, int], None]]:
        """A packed-record step, or ``None`` to receive events instead."""
        return None

    def bind_sweep(self, packed: PackedTrace) -> Optional[Callable[..., int]]:
        """A batch sweep over ``packed``'s columns, or ``None`` to
        receive events instead (the default loops :meth:`bind_packed`)."""
        step = self.bind_packed(packed)
        if step is None:
            return None

        def sweep(threads, ops, targets, lo: int, hi: int, base: int) -> int:
            for k in range(lo, hi):
                step(ops[k], threads[k], targets[k], base + k)
                if self.finished:
                    return k + 1
            return hi

        return sweep

    def finish(self) -> Report:
        raise NotImplementedError


class CheckerAnalysis(Analysis):
    """Any :class:`~repro.core.checker.StreamingChecker` as an analysis.

    Modes:

    * ``stop_first`` — the paper's semantics: stop at the first
      violation; the report's ``native`` is the checker's
      :class:`~repro.core.violations.CheckResult`, identical to a
      standalone ``checker.run(...)``.
    * ``report_all`` — report-and-continue (the semantics previously
      private to :mod:`repro.core.multi`): clear the verdict after each
      hit and keep feeding, with optional ``dedupe`` (mute repeated
      (thread, site) pairs until that thread's next transaction
      boundary) and ``limit``.
    * ``sample`` — screening mode: only every ``sample_every``-th
      memory access is fed (synchronization and marker events always
      pass through), stopping at the first violation. Unsound and
      incomplete by construction — a cheap first look at huge traces.
    """

    kind = "checker"

    def __init__(
        self,
        algorithm: str = "aerodrome",
        checker: Any = None,
        mode: str = "stop_first",
        dedupe: bool = False,
        limit: Optional[int] = None,
        sample_every: int = 10,
    ) -> None:
        super().__init__()
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        if checker is None:
            from .registry import make_checker

            checker = make_checker(algorithm)
        self.checker = checker
        self.algorithm = algorithm
        self.name = algorithm
        self.mode = mode
        self.dedupe = dedupe
        self.limit = limit
        self.sample_every = max(1, sample_every)
        self.violations: List[Violation] = []
        self._muted: Set[Tuple[str, str]] = set()
        self._steps = 0
        self._counted_before = 0
        self._found: Optional[Violation] = None
        self._accesses = 0
        self._packed = False

    # -- string path -------------------------------------------------------

    def begin(self, meta: TraceMeta) -> None:
        super().begin(meta)
        self._counted_before = self.checker.events_processed

    def _sampled_out(self, is_access: bool) -> bool:
        if self.mode != "sample" or not is_access:
            return False
        keep = self._accesses % self.sample_every == 0
        self._accesses += 1
        return not keep

    def step(self, event: Event) -> None:
        op = event.op
        if self._sampled_out(op is Op.READ or op is Op.WRITE):
            return
        if self.mode == "report_all":
            if self.dedupe and (op is Op.BEGIN or op is Op.END):
                thread = event.thread
                self._muted = {k for k in self._muted if k[0] != thread}
            violation = self.checker.process(event)
            if violation is not None:
                self.checker.violation = None  # report-and-continue
                self._record(violation)
            return
        violation = self.checker.process(event)
        if violation is not None:
            self.finished = True

    def _record(self, violation: Violation) -> None:
        key = (violation.thread, violation.site)
        if self.dedupe:
            if key in self._muted:
                return
            self._muted.add(key)
        self.violations.append(violation)
        if self.limit is not None and len(self.violations) >= self.limit:
            self.finished = True

    # -- packed path -------------------------------------------------------

    def _bind_checker(self, packed: PackedTrace):
        if not self._packed:
            # First bind only: a rebind (checkpoint restore mid-stream)
            # must keep the original baseline, or finish() would add
            # the step count on top of a checker that already counted.
            self._packed = True
            self._counted_before = self.checker.events_processed
        return self.checker.packed_step(packed)

    def bind_sweep(self, packed: PackedTrace):
        """The checker's batch sweep in stop-first mode and in
        report-all mode without dedupe; sampling and dedupe step event
        by event (:meth:`bind_packed`)."""
        if self.mode == "sample" or self.dedupe:
            return super().bind_sweep(packed)
        batch = packed_sweep(self._bind_checker(packed))
        if self.mode == "report_all":

            def sweep(threads, ops, targets, lo: int, hi: int, base: int) -> int:
                while lo < hi:
                    stop, violation = batch(threads, ops, targets, lo, hi, base)
                    self._steps += stop - lo
                    lo = stop
                    if violation is not None:
                        self.checker.violation = None  # report-and-continue
                        self._record(violation)
                        if self.finished:
                            break
                return lo

            return sweep

        def sweep(threads, ops, targets, lo: int, hi: int, base: int) -> int:
            stop, violation = batch(threads, ops, targets, lo, hi, base)
            self._steps += stop - lo
            if violation is not None:
                self._found = violation
                self.finished = True
            return stop

        return sweep

    def bind_packed(self, packed: PackedTrace):
        inner = self._bind_checker(packed)
        if self.mode == "report_all":
            thread_names = packed.thread_names
            dedupe = self.dedupe

            def step(op: int, t: int, target: int, idx: int) -> None:
                self._steps += 1
                if dedupe and (op == _BEGIN or op == _END):
                    name = thread_names[t]
                    self._muted = {k for k in self._muted if k[0] != name}
                violation = inner(op, t, target, idx)
                if violation is not None:
                    self.checker.violation = None  # report-and-continue
                    self._record(violation)

            return step

        sampling = self.mode == "sample"

        def step(op: int, t: int, target: int, idx: int) -> None:
            if sampling and self._sampled_out(op == _READ or op == _WRITE):
                return
            self._steps += 1
            violation = inner(op, t, target, idx)
            if violation is not None:
                self._found = violation
                self.finished = True

        return step

    # -- solo fast path ----------------------------------------------------

    def can_run_solo(self) -> bool:
        """Whether the checker's own (possibly inlined) loop is usable."""
        return self.mode == "stop_first"

    def run_solo(self, events: Any) -> None:
        """Drive the checker's own ``run``/``run_packed`` hot loop."""
        self.checker.run(events)
        self.finished = True

    # -- wrap-up -----------------------------------------------------------

    def finish(self) -> Report:
        checker = self.checker
        if self._packed:
            # Mirror run_packed's bookkeeping contract: fast packed
            # steps leave the counter and the verdict to the driver.
            if checker.events_processed == self._counted_before:
                checker.events_processed += self._steps
            if self._found is not None and checker.violation is None:
                checker.violation = self._found
        result: CheckResult = checker.result()
        if self.mode == "report_all":
            verdict = not self.violations
            summary = (
                "✓ no violations"
                if verdict
                else f"✗ {len(self.violations)} violation report(s)"
            )
            return Report(
                analysis=self.name,
                kind=self.kind,
                mode=self.mode,
                verdict=verdict,
                violations=[finding_dict(v) for v in self.violations],
                payload={
                    "algorithm": self.algorithm,
                    "dedupe": self.dedupe,
                    "limit": self.limit,
                },
                events_processed=result.events_processed,
                summary=summary,
                native=list(self.violations),
            )
        verdict = result.serializable
        summary = (
            f"✓ serializable after {result.events_processed} events"
            if verdict
            else f"✗ {result.violation}"
        )
        payload = {"algorithm": self.algorithm}
        if self.mode == "sample":
            payload["sample_every"] = self.sample_every
            summary += " (sampled; screening only)"
        return Report(
            analysis=self.name,
            kind=self.kind,
            mode=self.mode,
            verdict=verdict,
            violations=(
                [] if result.violation is None else [finding_dict(result.violation)]
            ),
            payload=payload,
            events_processed=result.events_processed,
            summary=summary,
            native=result,
        )


class RacesAnalysis(Analysis):
    """FastTrack happens-before race detection as a session analysis."""

    name = "races"
    kind = "races"
    mode = "report_all"

    def __init__(self) -> None:
        super().__init__()
        from ..analysis.races import FastTrackDetector

        self.detector = FastTrackDetector()
        self.step = self.detector.process  # bound hot path

    def bind_sweep(self, packed: PackedTrace):
        return _sweep_all(self.detector.packed_step(packed))

    def finish(self) -> Report:
        races = self.detector.races
        verdict = not races
        summary = (
            "no happens-before data races"
            if verdict
            else f"{len(races)} race(s) on "
            f"{len(self.detector.racy_variables)} variable(s)"
        )
        return Report(
            analysis=self.name,
            kind=self.kind,
            mode=self.mode,
            verdict=verdict,
            violations=[finding_dict(r) for r in races],
            payload={"racy_variables": sorted(self.detector.racy_variables)},
            events_processed=self.detector.events_processed,
            summary=summary,
            native=races,
        )


class LocksetAnalysis(Analysis):
    """Eraser lockset warnings as a session analysis."""

    name = "lockset"
    kind = "lockset"
    mode = "report_all"

    def __init__(self) -> None:
        super().__init__()
        from ..analysis.lockset import LocksetAnalyzer

        self.analyzer = LocksetAnalyzer()
        self.step = self.analyzer.process

    def bind_sweep(self, packed: PackedTrace):
        return _sweep_all(self.analyzer.packed_step(packed))

    def finish(self) -> Report:
        report = self.analyzer.report()
        verdict = not report.warnings
        summary = f"{len(report.warnings)} lockset warning(s)"
        return Report(
            analysis=self.name,
            kind=self.kind,
            mode=self.mode,
            verdict=verdict,
            violations=[finding_dict(w) for w in report.warnings],
            payload={
                "racy_variables": sorted(report.racy_variables),
                "final_states": {
                    variable: state.value
                    for variable, state in sorted(report.final_states.items())
                },
            },
            events_processed=self.analyzer.events_processed,
            summary=summary,
            native=report,
        )


def _sweep_all(step):
    """A sweep that never stops early over a detector's packed step
    (handler results are findings the detector already keeps)."""
    batch = packed_sweep(step)

    def sweep(threads, ops, targets, lo: int, hi: int, base: int) -> int:
        while lo < hi:
            lo, _ = batch(threads, ops, targets, lo, hi, base)
        return hi

    return sweep


class BufferedAnalysis(Analysis):
    """Base for whole-trace analyses riding the sweep.

    When the session already holds the complete string trace
    (``meta.source``), the analysis uses it directly at ``finish()``
    and leaves the sweep immediately — a solo offline verb costs no
    per-event work at all. Otherwise (packed sweeps, one-shot
    iterators) it buffers the swept events (references only — on the
    packed path these are the session's shared reconstructed events)
    and rebuilds an equivalent trace at ``finish()``. Either way the
    offline computation runs once, composed with streaming analyses on
    the same ingest.
    """

    mode = "offline"

    def __init__(self) -> None:
        super().__init__()
        self._events: List[Event] = []
        self._source: Optional[Trace] = None
        self.step = self._events.append  # bound hot path

    def begin(self, meta: TraceMeta) -> None:
        super().begin(meta)
        if isinstance(meta.source, Trace):
            self._source = meta.source
            self.step = lambda event: None
            self.finished = True  # needs no events from the sweep

    def __getstate__(self):
        # ``step`` is a rebindable hot-path alias (possibly a lambda);
        # drop it so mid-stream sessions checkpoint cleanly.
        state = self.__dict__.copy()
        state.pop("step", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if self._source is not None:
            self.step = lambda event: None
        else:
            self.step = self._events.append

    def _buffered_trace(self) -> Trace:
        if self._source is not None:
            return self._source
        name = self.meta.name if self.meta is not None else "trace"
        return Trace(self._events, name=name)

    def events_seen(self) -> int:
        if self._source is not None:
            return len(self._source)
        return len(self._events)


class ProfileAnalysis(BufferedAnalysis):
    """Workload-shape profile (always passes; purely informational)."""

    name = "profile"
    kind = "profile"

    def __init__(self, top: int = 10) -> None:
        super().__init__()
        self.top = top

    def finish(self) -> Report:
        from ..analysis.profile import profile_trace

        profile = profile_trace(self._buffered_trace())
        payload = {
            "threads": len(profile.threads),
            "transactions": profile.transactions,
            "unary_transactions": profile.unary_transactions,
            "op_counts": {
                op.name.lower(): count
                for op, count in sorted(profile.op_counts.items())
            },
            "cross_thread_conflicts": profile.cross_thread_conflicts,
            "first_cross_conflict_idx": profile.first_cross_conflict_idx,
            "hot_variables": [
                {
                    "name": v.name,
                    "reads": v.reads,
                    "writes": v.writes,
                    "threads": len(v.threads),
                }
                for v in profile.variables[: self.top]
            ],
        }
        return Report(
            analysis=self.name,
            kind=self.kind,
            mode=self.mode,
            verdict=True,
            payload=payload,
            events_processed=profile.events,
            summary=(
                f"{profile.events} events, {profile.transactions} transactions, "
                f"{profile.cross_thread_conflicts} cross-thread conflicts"
            ),
            native=profile,
        )


class ViewSerialAnalysis(BufferedAnalysis):
    """Exact view serializability (NP-complete; bounded search)."""

    name = "viewserial"
    kind = "viewserial"

    def finish(self) -> Report:
        from ..analysis.view_serializability import (
            TooManyTransactions,
            serializing_order,
        )

        try:
            order = serializing_order(self._buffered_trace())
        except TooManyTransactions as error:
            return Report(
                analysis=self.name,
                kind=self.kind,
                mode=self.mode,
                verdict=None,
                payload={"undecided": str(error)},
                events_processed=self.events_seen(),
                summary=f"undecided: {error}",
                native=None,
            )
        verdict = order is not None
        summary = (
            "view serializable; witness order: "
            + " ".join(f"T{t}" for t in order)
            if verdict
            else "not view serializable"
        )
        return Report(
            analysis=self.name,
            kind=self.kind,
            mode=self.mode,
            verdict=verdict,
            payload={"order": order},
            events_processed=self.events_seen(),
            summary=summary,
            native=order,
        )


class CausalAnalysis(BufferedAnalysis):
    """Per-transaction causal atomicity (oracle-grade, quadratic)."""

    name = "causal"
    kind = "causal"

    def finish(self) -> Report:
        from ..analysis.causal import check_causal_atomicity

        report = check_causal_atomicity(self._buffered_trace())
        return Report(
            analysis=self.name,
            kind=self.kind,
            mode=self.mode,
            verdict=report.all_atomic,
            violations=[
                {"tid": txn.tid, "thread": txn.thread} for txn in report.violating
            ],
            payload={"transactions": len(report.transactions)},
            events_processed=self.events_seen(),
            summary=str(report),
            native=report,
        )


class ExplainAnalysis(BufferedAnalysis):
    """Witness-cycle extraction for a violating trace."""

    name = "explain"
    kind = "explain"

    def finish(self) -> Report:
        from ..analysis.explain import explain

        explanation = explain(self._buffered_trace())
        verdict = explanation is None
        if verdict:
            summary = "conflict serializable: nothing to explain"
            payload: dict = {}
        else:
            summary = (
                f"witness cycle of {len(explanation.cycle)} transaction(s)"
            )
            payload = {
                "prefix_length": explanation.prefix_length,
                "cycle": [txn.tid for txn in explanation.cycle],
                "edges": [str(edge) for edge in explanation.edges],
            }
        return Report(
            analysis=self.name,
            kind=self.kind,
            mode=self.mode,
            verdict=verdict,
            payload=payload,
            events_processed=self.events_seen(),
            summary=summary,
            native=explanation,
        )
