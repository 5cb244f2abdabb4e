"""Structured analysis reports — the stable JSON surface of ``repro.api``.

Every analysis driven by a :class:`~repro.api.session.Session` finishes
into a :class:`Report`; the session collects them into a
:class:`SessionResult` whose :meth:`~SessionResult.to_json` emits the
versioned ``repro-report/1`` schema shared by the CLI (``--json``), the
bench harness and the tests. The schema is documented in ``docs/API.md``
and machine-checked by :func:`validate_report` (CI's CLI smoke job runs
it against a real ``repro check --json`` invocation).

The module also owns the finding format. One layout per finding class
(its field names, a getter for their values and the JSON key template)
serves both :func:`finding_dict`, the dict a report carries, and
:func:`finding_json`, the same finding rendered straight to its compact
JSON text — what the streaming service ships in FLUSH and REPORT frames
without building a dict per finding.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

#: Version tag stamped into every serialized session result.
SCHEMA = "repro-report/1"

#: The three verdict labels of the JSON schema.
VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_UNDECIDED = "undecided"


#: Field values ``asdict`` would return as-is (its deep copy is identity).
_SCALARS = frozenset({str, int, float, bool, type(None)})

_int_repr = int.__repr__


class _Layout(NamedTuple):
    """One finding dataclass's fixed key layout."""

    #: Field names, in field order.
    names: Tuple[str, ...]
    #: ``finding -> tuple of field values``, in field order.
    values: Callable[[Any], Tuple[Any, ...]]
    #: The finding's JSON text with a ``%s`` for each rendered value:
    #: ``'{"variable":%s,"event_idx":%s,…}'``.
    template: str


#: Finding class -> its layout, or ``None`` for non-dataclasses.
_LAYOUTS: Dict[type, Optional[_Layout]] = {}


def _layout_of(cls: type) -> Optional[_Layout]:
    if not is_dataclass(cls):
        layout = None
    else:
        names = tuple(f.name for f in fields(cls))
        if len(names) == 1:
            one = attrgetter(names[0])
            values = lambda finding: (one(finding),)
        elif names:
            values = attrgetter(*names)
        else:
            values = lambda finding: ()
        keys = (encode_basestring_ascii(name).replace("%", "%%") for name in names)
        template = "{" + ",".join(key + ":%s" for key in keys) + "}"
        layout = _Layout(names, values, template)
    _LAYOUTS[cls] = layout
    return layout


def finding_dict(finding: Any) -> Dict[str, Any]:
    """Normalize one finding (Violation, Race, LocksetWarning, …) to a dict.

    Dataclasses serialize field-by-field, exactly as
    :func:`dataclasses.asdict` would: fields are read through the
    per-class layout, and any field value that is not a plain scalar
    falls back to ``asdict`` itself (which deep-copies containers).
    Anything else becomes a ``{"details": str(finding)}`` record so
    exotic plugin findings never break the schema.
    """
    cls = type(finding)
    try:
        layout = _LAYOUTS[cls]
    except KeyError:
        layout = _layout_of(cls)
    if layout is None:
        return {"details": str(finding)}
    out = {name: getattr(finding, name) for name in layout.names}
    for value in out.values():
        if type(value) not in _SCALARS:
            return asdict(finding)
    return out


def finding_json(finding: Any) -> str:
    """The compact JSON text of :func:`finding_dict`, rendered directly.

    Equal to ``json.dumps(finding_dict(finding), separators=(",", ":"))``
    by construction: the layout's template holds the encoded keys, and
    each value whose exact type is ``str``, ``int``, ``bool`` or
    ``None`` is rendered the way ``json.dumps`` renders it. Any other
    value (floats, enums, ``int``/``str`` subclasses, containers) and
    any non-dataclass finding go through ``json.dumps`` itself.
    """
    cls = type(finding)
    try:
        layout = _LAYOUTS[cls]
    except KeyError:
        layout = _layout_of(cls)
    if layout is not None:
        out = []
        for value in layout.values(finding):
            kind = type(value)
            if kind is str:
                out.append(encode_basestring_ascii(value))
            elif kind is int:
                out.append(_int_repr(value))
            elif kind is bool:
                out.append("true" if value else "false")
            elif value is None:
                out.append("null")
            else:
                break
        else:
            return layout.template % tuple(out)
    return json.dumps(finding_dict(finding), separators=(",", ":"))


@dataclass
class Report:
    """One analysis's outcome over one trace ingest.

    Attributes:
        analysis: Registry name of the analysis (``"aerodrome"``,
            ``"races"``, …).
        kind: Family tag (``"checker"``, ``"races"``, ``"lockset"``, …).
        mode: Run mode the analysis executed under (``"stop_first"``,
            ``"report_all"``, ``"sample"``, or ``"offline"`` for
            whole-trace analyses).
        verdict: ``True`` = clean/pass, ``False`` = findings, ``None`` =
            undecided (e.g. view serializability over the search bound).
        violations: Normalized finding dicts, in detection order.
        payload: Analysis-specific JSON-able detail.
        events_processed: Events this analysis consumed.
        summary: One human-readable line for multi-analysis CLI output.
        native: The analysis's own result object (``CheckResult``,
            ``List[Race]``, ``TraceProfile``, …) — not serialized, but
            byte-identical to what the standalone entrypoint returns.
    """

    analysis: str
    kind: str
    mode: str
    verdict: Optional[bool]
    violations: List[Dict[str, Any]] = field(default_factory=list)
    payload: Dict[str, Any] = field(default_factory=dict)
    events_processed: int = 0
    summary: str = ""
    native: Any = None

    @property
    def ok(self) -> bool:
        """True iff the verdict is a clean pass."""
        return self.verdict is True

    @property
    def verdict_label(self) -> str:
        if self.verdict is None:
            return VERDICT_UNDECIDED
        return VERDICT_PASS if self.verdict else VERDICT_FAIL

    def to_json(self) -> Dict[str, Any]:
        return {
            "analysis": self.analysis,
            "kind": self.kind,
            "mode": self.mode,
            "verdict": self.verdict_label,
            "events_processed": self.events_processed,
            "violations": self.violations,
            "payload": self.payload,
            "summary": self.summary,
        }


@dataclass
class SessionResult:
    """Outcome of one :meth:`Session.run` — every report plus timing.

    Attributes:
        trace_name: Name of the analyzed trace.
        events: Total events in the trace (``None`` for bare iterables
            of unknown length).
        events_swept: Events the shared sweep actually visited (the
            sweep stops early once every analysis is done).
        packed: Whether the packed integer fast path drove the sweep.
        seconds: Wall-clock time of the whole session.
        reports: Per-analysis reports, keyed by analysis name in
            session order.
        path: Source file of the trace, when loaded from disk.
    """

    trace_name: str
    events: Optional[int]
    events_swept: int
    packed: bool
    seconds: float
    reports: Dict[str, Report] = field(default_factory=dict)
    path: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True iff every analysis passed cleanly."""
        return all(report.ok for report in self.reports.values())

    @property
    def verdict_label(self) -> str:
        """Three-valued session verdict: any fail > any undecided > pass."""
        verdicts = [report.verdict for report in self.reports.values()]
        if any(v is False for v in verdicts):
            return VERDICT_FAIL
        if any(v is None for v in verdicts):
            return VERDICT_UNDECIDED
        return VERDICT_PASS

    @property
    def events_per_second(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.events_swept / self.seconds

    def report(self, analysis: str) -> Report:
        return self.reports[analysis]

    def __getitem__(self, analysis: str) -> Report:
        return self.reports[analysis]

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "trace": {
                "name": self.trace_name,
                "path": self.path,
                "events": self.events,
                "packed": self.packed,
            },
            "timing": {
                "seconds": self.seconds,
                "events_swept": self.events_swept,
                # The property's inf (sub-resolution run) is not JSON.
                "events_per_second": (
                    None
                    if self.seconds <= 0
                    else self.events_per_second
                ),
            },
            "verdict": self.verdict_label,
            "analyses": [report.to_json() for report in self.reports.values()],
        }

    def __str__(self) -> str:
        lines = [
            f"session over {self.trace_name!r}: "
            f"{len(self.reports)} analyses, {self.events_swept} events, "
            f"{self.seconds:.3f}s"
        ]
        for report in self.reports.values():
            lines.append(f"  [{report.analysis}] {report.summary}")
        return "\n".join(lines)


#: Verdict label -> three-valued verdict, the inverse of ``verdict_label``.
_VERDICT_OF_LABEL = {VERDICT_PASS: True, VERDICT_FAIL: False, VERDICT_UNDECIDED: None}


def report_from_json(data: Mapping[str, Any]) -> Report:
    """Rebuild a :class:`Report` from its ``to_json()`` dict.

    The wire form the process-parallel executor ships between workers
    (:mod:`repro.api.parallel`): everything the schema carries survives
    the round trip; only ``native`` — the analysis's in-memory result
    object, which is not part of the schema — comes back as ``None``.
    Raises ``ValueError`` on unknown verdict labels or missing keys.
    """
    try:
        verdict = _VERDICT_OF_LABEL[data["verdict"]]
        return Report(
            analysis=data["analysis"],
            kind=data["kind"],
            mode=data["mode"],
            verdict=verdict,
            violations=list(data["violations"]),
            payload=dict(data["payload"]),
            events_processed=data["events_processed"],
            summary=data.get("summary", ""),
            native=None,
        )
    except KeyError as error:
        raise ValueError(
            f"invalid serialized report: missing or unknown {error}"
        ) from error


_VERDICTS = {VERDICT_PASS, VERDICT_FAIL, VERDICT_UNDECIDED}


def validate_report(data: Mapping[str, Any]) -> None:
    """Check ``data`` against the ``repro-report/1`` schema.

    Raises:
        ValueError: On any missing key, wrong type or unknown verdict.
            Silence means the document is well-formed.
    """

    def fail(message: str) -> None:
        raise ValueError(f"invalid repro-report/1 document: {message}")

    if not isinstance(data, Mapping):
        fail(f"expected an object, got {type(data).__name__}")
    if data.get("schema") != SCHEMA:
        fail(f"schema is {data.get('schema')!r}, expected {SCHEMA!r}")
    trace = data.get("trace")
    if not isinstance(trace, Mapping) or "name" not in trace or "events" not in trace:
        fail("trace block must carry name and events")
    timing = data.get("timing")
    if not isinstance(timing, Mapping) or not isinstance(
        timing.get("seconds"), (int, float)
    ):
        fail("timing block must carry numeric seconds")
    if data.get("verdict") not in _VERDICTS:
        fail(f"session verdict {data.get('verdict')!r} not in {sorted(_VERDICTS)}")
    analyses = data.get("analyses")
    if not isinstance(analyses, list):
        fail("analyses must be a list")
    for entry in analyses:
        if not isinstance(entry, Mapping):
            fail("each analysis entry must be an object")
        for key in ("analysis", "kind", "mode", "verdict", "violations", "payload"):
            if key not in entry:
                fail(f"analysis entry missing {key!r}")
        if entry["verdict"] not in _VERDICTS:
            fail(f"analysis verdict {entry['verdict']!r} unknown")
        if not isinstance(entry["violations"], list):
            fail("violations must be a list")
        if not isinstance(entry["payload"], Mapping):
            fail("payload must be an object")
