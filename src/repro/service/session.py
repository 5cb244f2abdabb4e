"""One live tenant of the streaming service: a :class:`StreamingSession`.

Wraps an incremental :class:`repro.api.Session` (the ``feed``/``finish``
lifecycle) with what a long-running service additionally needs:

* **identity** — a stable session id (the shard routing key);
* **position** — how many events have been ingested, which is what a
  resuming client uses to know where to restart its stream;
* **finding delivery by cursor** — findings stay in the analyses' own
  lists, named by ``(analysis, index)`` ids; a drain renders only those
  past the delivered cursor straight to their JSON rows
  (:func:`~repro.api.report.finding_json`, no dict per finding), which
  ``FLUSH`` and ``CLOSE`` ship as they are, while the stream is still
  running;
* **render once** — each drain also keeps, per analysis, the findings'
  text it rendered (comma-joined per batch), and :meth:`report` splices
  that text into the report's ``violations`` arrays, rendering only the
  findings no drain covered (report-only analyses such as lockset, and
  whatever a thawed session's lost text covered). The text is never
  pickled, so snapshots do not carry it;
* **a checkpoint handle** — :meth:`to_bytes`/:meth:`from_bytes` freeze
  and thaw the complete analysis state (riding
  :func:`repro.core.snapshot.freeze`), which is what
  :class:`~repro.service.recovery.RecoveryManager` snapshots to disk;
* **packed batches** — every batch is a
  :class:`~repro.trace.packed.DeltaBatch` (the connection decodes EVENTS
  frames into them; event lists are interned into one), swept packed
  over the session's own store, which absorbs each batch's new names
  and maps the client's indices onto its tables;
* **a journal** — once the spool starts it (:meth:`drain_journal`),
  every batch fed is recorded as ``(base, batch)`` until the next
  checkpoint drains it into the session's append-only spool log. A
  batch that restarts the name-table epoch (a resumed client's fresh
  encoder) drops the journal, so the next checkpoint is a snapshot and
  every log segment belongs to one epoch.

Because ``run()`` ≡ feed-in-chunks-then-``finish()`` (property-tested
in ``tests/test_api_feed.py``), a session fed over the wire — in any
batching, through any number of checkpoint/restore cycles — finishes
with a report identical to the offline ``repro check`` on the full
trace. That equivalence is the service's correctness story.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from operator import is_
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..api.analysis import Analysis, CheckerAnalysis
from ..api.report import Report, SessionResult, finding_dict, finding_json
from ..api.session import Session
from ..core.snapshot import freeze, thaw, CheckpointError
from ..obs import tracing
from ..trace.events import Event
from ..trace.packed import DeltaBatch, PackedStore
from .protocol import JSONRows


#: Events a journal holds at most before it is dropped (see ``feed``).
JOURNAL_LIMIT = 1 << 16


class StreamingSession:
    """One client's live analyses over one event stream.

    Args:
        session_id: Stable identifier (also the shard routing key).
        analyses: ``(name, options)`` pairs resolved through the
            registry, or ready analysis instances.
        name: Trace name stamped into reports.
    """

    def __init__(
        self,
        session_id: str,
        analyses: Sequence[Any],
        name: str = "stream",
    ) -> None:
        from ..api.registry import create_analysis

        instances: List[Analysis] = []
        self.analysis_names: List[str] = []
        for spec in analyses:
            if isinstance(spec, Analysis):
                instances.append(spec)
                self.analysis_names.append(spec.name)
            else:
                name_, options = spec if isinstance(spec, tuple) else (spec, {})
                instances.append(create_analysis(name_, **options))
                self.analysis_names.append(name_)
        self.session_id = session_id
        self.session = Session(None, instances, name=name)
        self.events_fed = 0
        self.error: Optional[str] = None
        #: Machine-readable failure class when :attr:`error` is set
        #: (``"analysis"``, ``"feed"``, …) — the quarantine code.
        self.error_code: Optional[str] = None
        #: Stream position at which the session was quarantined.
        self.quarantined_at: Optional[int] = None
        #: Events ignored after quarantine (observability counter).
        self.dropped = 0
        #: True when a positioned batch arrived *past* the current
        #: position (events were lost, e.g. across a shard restart) —
        #: the client must re-send from :attr:`position` before any
        #: report can be trusted. Cleared when the stream re-aligns.
        self.out_of_sync = False
        self.result: Optional[SessionResult] = None
        #: Findings observed per analysis; their order as ``(analysis
        #: index, start, end)`` id runs, one per analysis per batch that
        #: surfaced any; and how many runs have been drained.
        self._counts = [0] * len(instances)
        self._segments: List[Tuple[int, int, int]] = []
        self._cursor = 0

    #: Batches fed since the last checkpoint, as ``(base, events)``; None
    #: until a spool starts the journal. Never pickled: a checkpoint
    #: covers everything the journal held.
    _journal: Optional[List[Tuple[int, DeltaBatch]]] = None

    #: Per analysis, the text the drains rendered as ``(start, end,
    #: text)``: findings ``[start, end)`` of its list, comma-joined; None
    #: until the first drain. Never pickled: a thawed session renders
    #: what the lost text covered again at CLOSE.
    _texts: Optional[List[List[Tuple[int, int, str]]]] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_journal", None)
        state.pop("_texts", None)
        return state

    # -- streaming ---------------------------------------------------------

    @property
    def store(self) -> PackedStore:
        """The session's own packed store: its name tables and the map
        from the client's indices of the current table epoch."""
        return self.session.packed_store()

    @property
    def position(self) -> int:
        """Events ingested so far — the client's resume offset."""
        return self.events_fed

    @property
    def quarantined(self) -> bool:
        """Whether this session has been poisoned and isolated."""
        return self.error is not None

    def quarantine(self, code: str, message: str) -> None:
        """Poison-isolate this session: record a typed error, stop
        analyzing. Further batches are counted and dropped; barriers
        surface the error; CLOSE answers a typed ERROR instead of a
        report. The shard and every sibling tenant keep running."""
        if self.error is None:
            self.error = message
            self.error_code = code
            self.quarantined_at = self.events_fed

    def feed(
        self,
        events: Union[DeltaBatch, Sequence[Event]],
        base: Optional[int] = None,
    ) -> int:
        """Ingest one batch at stream positions ``base`` onward.

        ``base`` is the stream position the batch claims to start at
        (positioned EVENTS frames). A batch at or before the current
        position has its overlap dropped — at-least-once delivery
        (client retransmits, duplicated frames) is idempotent. A batch
        *past* the position means events were lost, and a batch whose
        name tables start past the names this session absorbed cannot be
        mapped; either is dropped whole and the session marked
        :attr:`out_of_sync`, so no short report can ever masquerade as a
        complete one.

        Returns the number of *new* findings the batch surfaced.
        """
        if self.result is not None:
            raise RuntimeError(f"session {self.session_id} already closed")
        store = self.session.packed_store()
        batch = events if isinstance(events, DeltaBatch) else store.delta_of(events)
        position = self.events_fed
        if base is not None:
            if base < position:
                overlap = position - base
                if overlap >= len(batch):
                    return 0  # pure duplicate delivery
                batch = batch.tail(overlap)
            if base > position or store.gap(batch):
                self.out_of_sync = True
                return 0
            self.out_of_sync = False
        if store.restarts(batch):
            self._journal = None  # the next checkpoint is a snapshot
        with tracing.span(
            "session.ingest",
            session=self.session_id,
            base=position,
            events=len(batch),
        ):
            self.session.feed(batch)
        self.events_fed = position + len(batch)
        journal = self._journal
        if journal is not None:
            if journal and position - journal[0][0] >= JOURNAL_LIMIT:
                # No checkpoint for this long (a spool without periodic
                # checkpoints): stop holding batches; the next checkpoint
                # is a full snapshot instead of a log append.
                self._journal = None
            else:
                journal.append((position, batch))
        return self._observe()

    def finish(self) -> SessionResult:
        """Finish every analysis; the report of record for this stream."""
        if self.result is None:
            result = self.session.finish()
            # Streaming sessions know their true total only now.
            result.events = self.events_fed
            self.result = result
            self._observe()
        return self.result

    def report(self) -> Dict[str, Any]:
        """The final ``repro-report/1`` document (finishing if needed).

        Each analysis's ``violations`` array whose report carries its
        finding objects is a :class:`JSONRows` of the findings' JSON
        text, reusing the text the drains kept and rendering the rest;
        no finding dict is built. Drain first to cover the findings the
        last batches surfaced."""
        result = self.finish()
        texts = self._texts or [[] for _ in self.session.analyses]
        return result.to_json([
            _violation_rows(report, _current_findings(analysis), kept)
            for analysis, report, kept in zip(
                self.session.analyses, result.reports.values(), texts
            )
        ])

    # -- finding delivery --------------------------------------------------

    def _observe(self) -> int:
        """Record the finding ids that appeared since the last observation."""
        before = self.findings_total
        for i, analysis in enumerate(self.session.analyses):
            start, end = self._counts[i], len(_current_findings(analysis))
            if end > start:
                self._segments.append((i, start, end))
                self._counts[i] = end
        return self.findings_total - before

    @property
    def findings(self) -> List[Dict[str, Any]]:
        """Every finding so far, in delivery order, as the dicts a client
        decodes from the rows (converted per call)."""
        analyses, names = self.session.analyses, self.analysis_names
        return [
            {"analysis": names[i], "finding": finding_dict(f)}
            for i, start, end in self._segments
            for f in _current_findings(analyses[i])[start:end]
        ]

    @property
    def findings_total(self) -> int:
        return sum(self._counts)

    def drain_findings(self) -> JSONRows:
        """Findings not yet shipped to the client, rendered to their
        ``{"analysis":…,"finding":…}`` JSON rows in delivery order
        (advances the cursor)."""
        first, self._cursor = self._cursor, len(self._segments)
        rows = JSONRows()
        if first == self._cursor:
            return rows
        analyses = self.session.analyses
        heads = [
            '{"analysis":%s,"finding":' % encode_basestring_ascii(name)
            for name in self.analysis_names
        ]
        kept = self._texts
        if kept is None:
            kept = self._texts = [[] for _ in analyses]
        for i, start, end in self._segments[first:]:
            texts = [
                finding_json(f)
                for f in _current_findings(analyses[i])[start:end]
            ]
            head = heads[i]
            rows += [head + text + "}" for text in texts]
            kept[i].append((start, end, ",".join(texts)))
        return rows

    # -- checkpointing -----------------------------------------------------

    def drain_journal(self) -> Optional[List[Tuple[int, DeltaBatch]]]:
        """The batches fed since the previous call, oldest first, and a
        fresh journal; None when the journal was not running (the first
        call, or it was dropped in ``feed``)."""
        batches, self._journal = self._journal, []
        return batches

    def to_bytes(self) -> bytes:
        """Freeze the complete session state (analyses included).

        Raises:
            CheckpointError: If any analysis state is not picklable.
        """
        return freeze(self, what=f"session {self.session_id}")

    @classmethod
    def from_bytes(cls, payload: bytes) -> "StreamingSession":
        """Thaw a session frozen by :meth:`to_bytes`.

        Raises:
            CheckpointError: On a corrupt payload or a wrong type.
        """
        session = thaw(payload, what="session checkpoint")
        if not isinstance(session, cls):
            raise CheckpointError(
                f"checkpoint holds a {type(session).__name__}, "
                "not a StreamingSession"
            )
        if not hasattr(session, "_segments"):  # frozen with a finding log
            raise CheckpointError("session checkpoint predates finding ids")
        if "packed" in vars(session):
            # frozen by a service that could sweep sessions string-mode
            raise CheckpointError(
                "session checkpoint predates the packed service sweep"
            )
        return session


def _violation_rows(
    report: Report,
    delivered: Sequence[Any],
    kept: List[Tuple[int, int, str]],
) -> Union[JSONRows, List[Dict[str, Any]]]:
    """A report's ``violations`` array: its own dicts when it has no
    finding objects, else their JSON text, taken from ``kept`` (the
    drains' text of ``delivered``, the analysis's live list) only where
    the report's findings begin with exactly the delivered objects."""
    findings = report.findings
    if findings is None:
        return report.violations
    rows = JSONRows()
    at = 0
    if kept and len(findings) >= len(delivered) and (
        findings is delivered or all(map(is_, findings, delivered))
    ):
        for start, end, text in kept:
            rows += map(finding_json, findings[at:start])
            rows.append(text)
            at = end
    rows += map(finding_json, findings[at:])
    return rows


def _current_findings(analysis: Analysis) -> Sequence[Any]:
    """The findings an analysis can surface *mid-stream* (its own list).

    Checker analyses expose their violation(s) as they are found;
    streaming detectors with an incremental findings list (races) do
    too. Whole-trace analyses only produce findings at ``finish()`` —
    until then they contribute nothing, which is correct: their
    report arrives with CLOSE.
    """
    if isinstance(analysis, CheckerAnalysis):
        if analysis.mode == "report_all":
            return analysis.violations
        found = analysis.checker.violation or analysis._found
        return (found,) if found is not None else ()
    detector = getattr(analysis, "detector", None)
    return getattr(detector, "races", None) or ()
