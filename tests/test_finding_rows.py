"""Rendered finding rows.

The service ships every finding it delivers as JSON text rendered once
from its class's layout (:func:`repro.api.report.finding_json`), and the
frame encoders splice those rows into FLUSH and REPORT payloads
(:class:`repro.service.protocol.JSONRows`). These tests pin what that
has to keep:

* the renderer equals ``json.dumps`` of :func:`finding_dict` for every
  value type, including the ones it hands back to ``json.dumps``;
* the splice equals ``json.dumps`` of the decoded object wherever the
  rows sit among the keys, at any depth of dicts and lists, whatever
  text the other values hold;
* the reply frames of a fixed stream are byte-identical to the ones
  the service sent when it built a dict per finding (pinned digests);
* a session renders each finding once in its life: CLOSE reuses the
  text its drains rendered and builds no finding dict, a thawed session
  renders again only what its lost text covered, and the REPORT bytes
  stay those of the offline report;
* ``Race`` and ``LocksetWarning`` keep their dataclass behaviour with
  their explicit ``__init__``, and a session frozen before it thaws.
"""

import dataclasses
import hashlib
import json
import math
import pickle
from enum import IntEnum
from pathlib import Path
from typing import Any, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.api.report as report_module
import repro.service.session as session_module
from repro import begin, end, read, write
from repro.analysis.lockset import LocksetWarning
from repro.analysis.races import Race
from repro.api import Session
from repro.api.analysis import RacesAnalysis
from repro.api.registry import create_analysis
from repro.api.report import Report, finding_dict, finding_json
from repro.core.violations import Violation
from repro.service import Router, StreamingSession, protocol
from repro.service.connection import WireConnection
from repro.service.protocol import FrameDecoder, FrameType, JSONRows, decode_json
from repro.sim import trace_zoo
from repro.sim.workloads.benchmarks import get_case
from repro.trace.trace import Trace

ANALYSES = ["aerodrome", "races", "lockset"]
DATA = Path(__file__).parent / "data"


def _reference(finding) -> str:
    return json.dumps(finding_dict(finding), separators=(",", ":"))


# -- the renderer -----------------------------------------------------------


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    """A ``str`` subclass: ``json.dumps`` renders its text."""


@dataclasses.dataclass(frozen=True)
class Mixed:
    """A test-local finding whose fields take every kind of value."""

    a: Any
    b: Any
    ünïcode: Any = None


@dataclasses.dataclass
class Single:
    only: Any


@dataclasses.dataclass
class Empty:
    pass


class Opaque:
    """Not a dataclass: renders as ``{"details": str(finding)}``."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __str__(self) -> str:
        return self.text


#: Every code point: quotes, backslashes, controls, non-BMP characters
#: and lone surrogates included.
texts = st.text(st.characters(exclude_categories=()), max_size=12)
ints = st.integers(min_value=-(2**70), max_value=2**70)
scalars = st.one_of(
    texts,
    ints,
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(list(Level)),
    texts.map(Tag),
)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6
)
findings = st.one_of(
    st.builds(Race, texts, ints, texts, texts),
    st.builds(LocksetWarning, ints, texts, texts, st.booleans()),
    st.builds(Violation, ints, texts, texts, texts),
    st.builds(Mixed, values, values, values),
    st.builds(Single, values),
    st.just(Empty()),
    st.builds(Opaque, texts),
)


@settings(max_examples=400, deadline=None)
@given(findings)
@example(Race('quote " backslash \\ nul \x00', 0, "\U0001F600", "\ud800"))
@example(Mixed(float("nan"), float("-inf")))
@example(Mixed(True, None, [1.5, [Level.HIGH, Tag("t")]]))
@example(Mixed("%s %% %d", "%(a)s"))
def test_finding_json_equals_dumps_of_finding_dict(finding):
    assert finding_json(finding) == _reference(finding)


def test_finding_json_renders_nonfinite_floats_like_dumps():
    for value in (math.nan, math.inf, -math.inf, 0.1, -0.0):
        finding = Mixed(value, 1)
        assert finding_json(finding) == _reference(finding)
    assert '"a":NaN' in finding_json(Mixed(math.nan, 1))


# -- the splice -------------------------------------------------------------


ROWS = JSONRows(
    [
        '{"analysis":"races","finding":{"variable":"x","event_idx":4}}',
        '{"analysis":"lockset","finding":{"is_write":true}}',
    ]
)


def _decoded(obj):
    return {
        key: [json.loads(row) for row in value]
        if type(value) is JSONRows
        else value
        for key, value in obj.items()
    }


def _payloads(obj) -> List[bytes]:
    """The payload as both encoders build it."""
    framed = [
        protocol.encode_json(FrameType.VIOLATION, obj),
        protocol.FrameEncoder().encode_json(FrameType.VIOLATION, obj),
    ]
    out = []
    for frame in framed:
        decoder = FrameDecoder()
        decoder.feed(frame)
        (ftype, payload), = list(decoder)
        assert ftype == FrameType.VIOLATION
        out.append(bytes(payload))
    return out


FLUSH_KEYS = [
    ("position", 1024),
    ("findings_total", 7),
    ("error", 'trap: "findings":[] and \\"findings\\":[]'),
    ("error_code", None),
    ("out_of_sync", False),
]


@pytest.mark.parametrize("at", range(len(FLUSH_KEYS) + 1))
def test_splice_equals_dumps_at_every_key_position(at):
    items = list(FLUSH_KEYS)
    items.insert(at, ("findings", ROWS))
    obj = dict(items)
    expected = json.dumps(_decoded(obj), separators=(",", ":")).encode()
    assert _payloads(obj) == [expected, expected]
    assert list(decode_json(expected)) == [key for key, _ in items]


def test_splice_leaves_values_that_contain_the_row_key_alone():
    """Earlier values whose encoded text holds ``"findings":[]`` (a
    nested object) or its escaped form (a string) are left alone."""
    obj = {
        "error": '"findings":[]',
        "detail": {"findings": [], "text": '"findings":[]'},
        "findings": ROWS,
        "after": {"findings": []},
    }
    expected = json.dumps(_decoded(obj), separators=(",", ":")).encode()
    assert _payloads(obj) == [expected, expected]
    assert decode_json(expected)["error"] == '"findings":[]'


def test_splice_handles_several_empty_and_odd_keyed_rows():
    obj = {
        1: "int key",
        "a": ROWS,
        "b": JSONRows(),
        'quote"key': JSONRows(["3"]),
        "ü": [1, 2],
    }
    expected = json.dumps(_decoded(obj), separators=(",", ":")).encode()
    assert _payloads(obj) == [expected, expected]


def test_rowless_objects_encode_as_dumps():
    for obj in ({}, {"queued": 3}, {"findings": JSONRows(), "position": 0}):
        expected = json.dumps(obj, separators=(",", ":")).encode()
        assert _payloads(obj) == [expected, expected]


def _rows_decoded(value):
    """``value`` with every :class:`JSONRows` in it, at any depth,
    replaced by the list its text decodes to."""
    if type(value) is JSONRows:
        return json.loads("[" + ",".join(value) + "]")
    if isinstance(value, dict):
        return {key: _rows_decoded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rows_decoded(item) for item in value]
    return value


def _rendered(items, per_row):
    """``items`` as JSONRows, ``per_row`` items comma-joined per row
    (a report's ``violations`` rows hold a drain's findings each)."""
    texts = [json.dumps(item, separators=(",", ":")) for item in items]
    return JSONRows(
        ",".join(texts[at : at + per_row]) for at in range(0, len(texts), per_row)
    )


json_keys = st.one_of(texts, st.integers(-5, 5), st.booleans(), st.none())
leaves = st.one_of(
    texts, ints, st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
items = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=5,
)
rows = st.builds(_rendered, st.lists(items, max_size=4), st.integers(1, 3))
documents = st.recursive(
    st.one_of(leaves, rows, st.lists(leaves, max_size=3)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=12,
)
NESTED = {
    "report": {
        "verdict": "fail",
        "analyses": [
            {"analysis": "aerodrome", "violations": JSONRows()},
            {
                "analysis": 'quote"d \\ ü',
                "violations": _rendered([{"x": 1}, {"ü": "\U0001F600"}], 1),
                "payload": {"racy_variables": ["a", "b"], "findings": []},
            },
            {"deeper": [[_rendered([1, [2, {"k": None}]], 2)], [3, 4]]},
        ],
    },
    "findings": ROWS,
    "plain": [[1, 2], {"3": [4]}],
}


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(json_keys, documents, max_size=5))
@example(NESTED)
@example({"a": [JSONRows(), [JSONRows(["1,2"])], []], "b": {"c": JSONRows()}})
@example({1: [JSONRows(["{}"]), "x"], None: {'q"\\é': [JSONRows(['"s"'])]}})
def test_nested_splice_equals_dumps_of_the_decoded_object(obj):
    expected = json.dumps(_rows_decoded(obj), separators=(",", ":")).encode()
    assert _payloads(obj) == [expected, expected]


def test_rows_equal_the_list_their_text_decodes_to():
    assert ROWS == [json.loads(row) for row in ROWS]
    assert _rendered([1, 2, 3], 2) == _rendered([1, 2, 3], 1) == [1, 2, 3]
    assert _rendered([1, 2], 1) != [2, 1] and ROWS != list(ROWS)
    assert {"violations": _rendered([{"a": 1}], 1)} == {"violations": [{"a": 1}]}


# -- pinned reply bytes -----------------------------------------------------


#: Digests of the seed-7 bulk-corun stream's replies (below), computed
#: with the service that built a finding dict per delivered finding and
#: let json.dumps encode the FLUSH and REPORT frames.
PINNED_FLUSH = (
    "dcb19298f49ac91def75266b8f6a053717888e8c598291cc1aaf1fe93523c0c9"
)
PINNED_REPORT = (
    "21b3e954e1a7763293d980a2ef03278157941ad95e9dcac1252da5b244160d51"
)


def _take(conn):
    decoder = FrameDecoder()
    for chunk in conn.outbox:
        decoder.feed(chunk)
    conn.outbox.clear()
    return [(ftype, bytes(payload)) for ftype, payload in decoder]


def test_reply_frames_are_pinned():
    """HELLO, a FLUSH before any event, 512-event EVENTS frames with a
    FLUSH after every second one starting with the first, then CLOSE:
    the bulk-corun stream of perfbench seed 7 through a sans-IO
    connection. Every FLUSH reply frame is hashed in order; the REPORT
    is hashed with its two timing fields removed."""
    events = list(get_case("raytracer").generate(seed=7, scale=0.3))
    router = Router(shards=1)
    try:
        conn = WireConnection(router, lambda name: None, dict)
        conn.receive_bytes(protocol.encode_json(FrameType.HELLO, {
            "protocol": protocol.PROTOCOL, "analyses": ANALYSES,
            "session": "pinned",
        }))
        conn.pump()
        _take(conn)
        flushes = hashlib.sha256()
        kinds = []

        def flush():
            conn.receive_bytes(protocol.encode_frame(FrameType.FLUSH))
            conn.pump()
            for ftype, payload in _take(conn):
                kinds.append(ftype)
                flushes.update(protocol.encode_frame(ftype, payload))

        flush()
        encoder = protocol.DeltaEncoder()
        for k, lo in enumerate(range(0, len(events), 512)):
            chunk = events[lo : lo + 512]
            conn.receive_bytes(protocol.encode_frame(
                FrameType.EVENTS, encoder.encode(chunk, base=lo)
            ))
            conn.pump()
            _take(conn)
            if k % 2 == 0:
                flush()
        conn.receive_bytes(protocol.encode_frame(FrameType.CLOSE))
        conn.pump()
        (ftype, payload), = _take(conn)
    finally:
        router.shutdown()
    assert kinds[0] == FrameType.OK and FrameType.VIOLATION in kinds
    assert ftype == FrameType.REPORT
    doc = decode_json(payload)
    assert doc["findings"]  # the last frame's findings ride the REPORT
    assert doc["report"]["analyses"] == (
        Session(events, ANALYSES).run().to_json()["analyses"]
    )
    timing = doc["report"]["timing"]
    del timing["seconds"], timing["events_per_second"]
    report = json.dumps(doc, separators=(",", ":")).encode()
    assert (flushes.hexdigest(), hashlib.sha256(report).hexdigest()) == (
        PINNED_FLUSH, PINNED_REPORT
    )


# -- render once ---------------------------------------------------------------


def _counting(monkeypatch):
    """Record every finding the service renders (``finding_json``) and
    every finding dict built anywhere (``finding_dict``)."""
    rendered, dicts = [], []
    real_json, real_dict = finding_json, finding_dict

    def counting_json(finding):
        rendered.append(finding)
        return real_json(finding)

    def counting_dict(finding):
        dicts.append(finding)
        return real_dict(finding)

    monkeypatch.setattr(session_module, "finding_json", counting_json)
    monkeypatch.setattr(session_module, "finding_dict", counting_dict)
    monkeypatch.setattr(report_module, "finding_dict", counting_dict)
    return rendered, dicts


def test_a_streamed_session_renders_each_finding_once(monkeypatch):
    """The pinned stream again: over the session's life each finding is
    rendered exactly once, CLOSE renders only the last frame's rows (and
    lockset's, which no FLUSH carries), and no finding dict is built."""
    events = list(get_case("raytracer").generate(seed=7, scale=0.3))
    rendered, dicts = _counting(monkeypatch)
    router = Router(shards=1)
    try:
        conn = WireConnection(router, lambda name: None, dict)
        conn.receive_bytes(protocol.encode_json(FrameType.HELLO, {
            "protocol": protocol.PROTOCOL, "analyses": ANALYSES,
            "session": "once",
        }))
        conn.pump()
        _take(conn)
        encoder = protocol.DeltaEncoder()
        for k, lo in enumerate(range(0, len(events), 512)):
            conn.receive_bytes(protocol.encode_frame(
                FrameType.EVENTS, encoder.encode(events[lo : lo + 512], base=lo)
            ))
            conn.pump()
            _take(conn)
            if k % 2 == 0:
                conn.receive_bytes(protocol.encode_frame(FrameType.FLUSH))
                conn.pump()
                (_, reply), = _take(conn)
                delivered = decode_json(reply)["findings_total"]
        before_close = len(rendered)
        conn.receive_bytes(protocol.encode_frame(FrameType.CLOSE))
        conn.pump()
        (ftype, payload), = _take(conn)
    finally:
        router.shutdown()
    assert ftype == FrameType.REPORT
    doc = decode_json(payload)
    lockset = next(a for a in doc["report"]["analyses"] if a["analysis"] == "lockset")
    streamed = delivered + len(doc["findings"])
    assert streamed > 4000
    assert dicts == []
    assert len(rendered) == streamed + len(lockset["violations"])
    assert len({id(finding) for finding in rendered}) == len(rendered)
    assert len(rendered) - before_close == (
        len(doc["findings"]) + len(lockset["violations"])
    )
    monkeypatch.undo()
    assert doc["report"]["analyses"] == (
        Session(events, ANALYSES).run().to_json()["analyses"]
    )


def _feed(session, events, size, drain_every, start=0):
    """Feed ``events`` at ``start`` onward in ``size``-event batches,
    draining after every ``drain_every``-th; the rows drained."""
    drained = []
    for k, lo in enumerate(range(0, len(events), size)):
        session.feed(events[lo : lo + size], base=start + lo)
        if k % drain_every == drain_every - 1:
            drained += session.drain_findings()
    return drained


def _close(session):
    """What CLOSE does: finish, drain, then the report."""
    session.finish()
    return session.drain_findings(), session.report()


def test_a_thawed_session_renders_again_only_the_lost_text(monkeypatch):
    events = _fixture_events()
    half = len(events) // 2
    session = StreamingSession("thaw", ANALYSES)
    before = _feed(session, events[:half], 16, 2)
    assert before and session.findings_total > len(before)  # some undrained
    blob = session.to_bytes()
    assert session._texts and b"_texts" not in blob  # never snapshotted
    restored = StreamingSession.from_bytes(blob)
    rendered, dicts = _counting(monkeypatch)
    after = _feed(restored, events[half:], 16, 3, start=half)
    restored.finish()
    last = restored.drain_findings()
    at_report = len(rendered)
    doc = restored.report()
    assert at_report == len(after) + len(last)  # the drains' own rows
    # The report renders again exactly the findings whose text died with
    # the original (the ones drained before the freeze), plus lockset's
    # warning, which no drain carries; nothing is rendered twice.
    again = rendered[at_report:]
    assert sorted(finding_json(f) for f in again if type(f) is not LocksetWarning) == (
        sorted(json.dumps(json.loads(row)["finding"], separators=(",", ":"))
               for row in before)
    )
    assert [type(f) for f in again].count(LocksetWarning) == 1
    assert len({id(finding) for finding in rendered}) == len(rendered)
    assert len(rendered) == restored.findings_total + 1
    assert dicts == []
    monkeypatch.undo()
    offline = Session(events, ANALYSES).run().to_json()["analyses"]
    assert json.loads(protocol._json_payload(doc))["analyses"] == offline


def _noisy_cycles(count):
    """``count`` copies of a two-thread cycle whose open transaction
    trips the read check twice (dedupe keeps one), with unlocked writes
    that lockset warns about and races on every variable."""
    out = []
    for i in range(count):
        a, b = f"a{i}", f"b{i}"
        x, y, z = f"x{i}", f"y{i}", f"z{i}"
        out += [
            begin(a), write(a, x), begin(b), read(b, x), write(b, y),
            write(b, z), write(b, x), end(b), read(a, y), read(a, z), end(a),
        ]
    return list(Trace(out))


REPORTING = {
    "stop-first": [("aerodrome", {}), ("races", {})],
    "report-all-dedupe": [("aerodrome", {"mode": "report_all", "dedupe": True})],
    "report-all-limit": [("aerodrome", {"mode": "report_all", "limit": 4})],
    "report-all": [("aerodrome", {"mode": "report_all"}), ("lockset", {})],
}


@pytest.mark.parametrize("thaw", [False, True], ids=["live", "thawed"])
@pytest.mark.parametrize("name", list(REPORTING))
def test_report_bytes_equal_the_offline_report(name, thaw):
    specs = REPORTING[name]
    events = _noisy_cycles(6)
    half = len(events) // 2
    session = StreamingSession("bytes", specs)
    _feed(session, events[:half], 7, 2)
    if thaw:
        session = StreamingSession.from_bytes(session.to_bytes())
    _feed(session, events[half:], 5, 2, start=half)
    _, doc = _close(session)
    offline = Session(
        events, [create_analysis(n, **options) for n, options in specs]
    ).run().to_json()["analyses"]
    assert all(a["violations"] for a in offline)
    expected = json.dumps(offline, separators=(",", ":")).encode()
    assert protocol._json_payload({"a": doc["analyses"]})[5:-1] == expected


class _ReversedRaces(RacesAnalysis):
    """A plugin whose report lists the detector's races newest first."""

    def finish(self):
        report = super().finish()
        report.findings = report.native = report.findings[::-1]
        return report


def test_kept_text_is_used_only_for_the_delivered_list():
    session = StreamingSession("mine", [_ReversedRaces()])
    _feed(session, _noisy_cycles(3), 4, 1)
    _, doc = _close(session)
    races = session.session.analyses[0].detector.races
    assert len(races) > 3
    (entry,) = doc["analyses"]
    assert entry["violations"] == [finding_dict(r) for r in races[::-1]]


def test_report_objects_build_their_dicts_only_when_read(monkeypatch):
    rendered, dicts = _counting(monkeypatch)
    result = Session(_noisy_cycles(2), ANALYSES).run()
    assert dicts == []
    races = result["races"]
    assert races.findings is races.native and len(races.findings) > 2
    assert races.violations == [finding_dict(r) for r in races.findings]
    assert dicts == races.findings  # the read built them (test's own not counted)
    assert races.violations is races.violations  # built once
    plugin = Report("p", "plugin", "stream", True, [{"k": 1}], {"n": 1})
    assert plugin.findings is None and plugin.violations == [{"k": 1}]
    assert Report("p", "plugin", "stream", True).violations == []


# -- finding objects ----------------------------------------------------------


@pytest.mark.parametrize(
    "finding",
    [Race("x", 3, "T1", "write-read"), LocksetWarning(9, "y", "T2", True)],
    ids=["Race", "LocksetWarning"],
)
def test_finding_objects_stay_frozen_dataclasses(finding):
    cls = type(finding)
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(vars(finding)) == names  # stored in field order
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(finding, names[0], "changed")
    with pytest.raises(dataclasses.FrozenInstanceError):
        del finding.thread
    same = cls(**{name: getattr(finding, name) for name in names})
    assert same == finding and hash(same) == hash(finding)
    assert repr(same) == repr(finding)
    changed = dataclasses.replace(finding, thread="T9")
    assert changed.thread == "T9" and changed != finding
    assert [getattr(changed, n) for n in names if n != "thread"] == [
        getattr(finding, n) for n in names if n != "thread"
    ]
    thawed = pickle.loads(pickle.dumps(finding, pickle.HIGHEST_PROTOCOL))
    assert thawed == finding and type(thawed) is cls
    assert list(vars(thawed)) == names
    assert dataclasses.asdict(finding) == finding_dict(finding)


def test_field_order_is_unchanged():
    assert [f.name for f in dataclasses.fields(Race)] == [
        "variable", "event_idx", "thread", "kind",
    ]
    assert [f.name for f in dataclasses.fields(LocksetWarning)] == [
        "event_idx", "variable", "thread", "is_write",
    ]


def _fixture_events():
    """The stream of the frozen fixture: a lockset warning's trace, then
    a small raytracer."""
    return list(Trace(
        list(trace_zoo.get("view-not-conflict").trace())
        + list(get_case("raytracer").generate(seed=3, scale=0.005))
    ))


def test_session_frozen_before_explicit_init_thaws():
    """``tests/data/session_before_explicit_init.ckpt`` was frozen by the
    service whose Race and LocksetWarning had the generated ``__init__``:
    the first half of :func:`_fixture_events` fed in 32-event batches,
    with findings drained after the first two only."""
    events = _fixture_events()
    half = len(events) // 2
    blob = (DATA / "session_before_explicit_init.ckpt").read_bytes()
    session = StreamingSession.from_bytes(blob)
    assert session.position == half
    analyzer = session.session.analyses[2].analyzer
    assert [type(w) for w in analyzer.warnings] == [LocksetWarning]
    undelivered = session.drain_findings()
    assert undelivered  # frozen with findings not yet shipped
    assert all(json.loads(row)["analysis"] == "races" for row in undelivered)
    session.feed(events[half:], base=half)
    doc = session.report()
    assert doc["analyses"] == Session(events, ANALYSES).run().to_json()["analyses"]
