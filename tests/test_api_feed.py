"""The incremental session lifecycle: run() ≡ feed-in-chunks-then-finish.

The property the streaming service stands on: for every registered
analysis, feeding a trace in arbitrary batches through
``Session.feed`` + ``Session.finish`` produces a report identical to a
one-shot ``Session.run`` — on the string path, the packed path (batches
as slices of one source ``PackedTrace`` *and* raw events interned into
the session's growing store), and across a mid-stream pickle
(checkpoint/restore).
"""

import pickle
import random

import pytest

from repro.api import Session
from repro.api.registry import available_analyses
from repro.sim import trace_zoo
from repro.sim.random_traces import RandomTraceConfig, random_trace
from repro.trace.packed import pack

#: Specimens covering verdicts, locks, fork/join and early stops.
SPECIMENS = (
    "paper-rho1",
    "paper-rho2",
    "lock-cycle",
    "fork-join-handoff",
    "three-party-cycle",
    "unary-only",
)


def analyses_json(result):
    """The per-analysis reports — the comparable core of a result."""
    return result.to_json()["analyses"]


def chunked(items, sizes, seed=0):
    rng = random.Random(seed)
    out = []
    i = 0
    while i < len(items):
        n = rng.choice(sizes)
        out.append(items[i : i + n])
        i += n
    return out


@pytest.mark.parametrize("name", available_analyses())
@pytest.mark.parametrize("specimen", SPECIMENS)
def test_run_equals_feed_string(name, specimen):
    spec = trace_zoo.get(specimen)
    base = Session(spec.trace(), [name]).run()
    fed = Session(None, [name], name=specimen)
    for batch in chunked(list(spec.trace()), [1, 2, 3, 5]):
        fed.feed(batch)
    assert analyses_json(fed.finish()) == analyses_json(base)


@pytest.mark.parametrize("name", available_analyses())
@pytest.mark.parametrize("specimen", SPECIMENS)
def test_run_equals_feed_packed_slices(name, specimen):
    spec = trace_zoo.get(specimen)
    packed = pack(spec.trace())
    base = Session(packed, [name]).run()
    fed = Session(None, [name], name=specimen)
    source = pack(spec.trace())
    for i in range(0, len(source), 3):
        fed.feed(source[i : i + 3])
    assert analyses_json(fed.finish()) == analyses_json(base)


@pytest.mark.parametrize("name", available_analyses())
def test_run_equals_feed_packed_from_events(name):
    spec = trace_zoo.get("three-party-cycle")
    base = Session(pack(spec.trace()), [name]).run()
    fed = Session(None, [name], name=spec.name)
    events = list(spec.trace())
    fed.feed(events[:4], packed=True)
    fed.feed(events[4:])
    assert analyses_json(fed.finish()) == analyses_json(base)


@pytest.mark.parametrize("packed", [False, True], ids=["string", "packed"])
def test_all_analyses_corun_feed(packed):
    """Every registered analysis co-run on one incremental sweep."""
    names = available_analyses()
    spec = trace_zoo.get("paper-rho4")
    trace = spec.trace()
    base = Session(pack(trace) if packed else trace, names).run()
    fed = Session(None, names, name=spec.name)
    if packed:
        source = pack(spec.trace())
        for i in range(0, len(source), 2):
            fed.feed(source[i : i + 2])
    else:
        for batch in chunked(list(spec.trace()), [1, 4]):
            fed.feed(batch)
    assert analyses_json(fed.finish()) == analyses_json(base)


@pytest.mark.parametrize("packed", [False, True], ids=["string", "packed"])
def test_feed_checkpoint_restore_mid_stream(packed):
    """A pickled mid-stream session resumes to the identical report."""
    names = ["aerodrome", "races", "lockset", "velodrome"]
    spec = trace_zoo.get("three-party-cycle")
    base = Session(
        pack(spec.trace()) if packed else spec.trace(), names
    ).run()
    fed = Session(None, names, name=spec.name)
    if packed:
        source = pack(spec.trace())
        half = len(source) // 2
        fed.feed(source[:half])
        fed = pickle.loads(pickle.dumps(fed))
        fed.feed(source[half:])
    else:
        events = list(spec.trace())
        half = len(events) // 2
        fed.feed(events[:half])
        fed = pickle.loads(pickle.dumps(fed))
        fed.feed(events[half:])
    assert analyses_json(fed.finish()) == analyses_json(base)


def test_restore_then_finish_does_not_double_count():
    """A session checkpointed after its last event must finish with the
    same counters (regression: rebinding used to reset the packed
    step-count baseline mid-stream)."""
    names = available_analyses()
    spec = trace_zoo.get("unary-only")  # clean: every analysis sweeps all
    base = Session(pack(spec.trace()), names).run()
    fed = Session(None, names, name=spec.name)
    fed.feed(pack(spec.trace())[:])
    restored = pickle.loads(pickle.dumps(fed))
    assert analyses_json(restored.finish()) == analyses_json(base)


def test_feed_random_traces_random_batches():
    """Fuzz the batching on richer traces (locks, forks, many threads)."""
    names = ["aerodrome", "races", "lockset"]
    for seed in range(6):
        trace = random_trace(
            seed,
            RandomTraceConfig(n_threads=4, n_vars=4, n_locks=2, length=120),
        )
        base = Session(trace, names).run()
        fed = Session(None, names, name=trace.name)
        for batch in chunked(list(trace), [1, 2, 7, 13], seed=seed):
            fed.feed(batch)
        assert analyses_json(fed.finish()) == analyses_json(base), seed


def test_feed_stops_sweeping_once_done():
    """events_swept matches run()'s early stop, then freezes."""
    spec = trace_zoo.get("paper-rho2")  # violation before the end
    base = Session(spec.trace(), ["aerodrome"]).run()
    fed = Session(None, ["aerodrome"], name=spec.name)
    events = list(spec.trace())
    for event in events:
        fed.feed([event])
    fed.feed(events)  # extra events after every analysis finished
    result = fed.finish()
    assert result.events_swept == base.events_swept
    assert analyses_json(result) == analyses_json(base)


def test_feed_lifecycle_errors():
    session = Session(None, ["aerodrome"])
    session.feed([])
    with pytest.raises(RuntimeError):
        session.run()  # streaming sessions cannot also run()
    session.finish()
    with pytest.raises(RuntimeError):
        session.feed([])
    with pytest.raises(RuntimeError):
        session.finish()
    with pytest.raises(ValueError):
        Session(None, ["aerodrome"]).run()  # no trace to run


def test_feed_mode_mismatch_rejected():
    spec = trace_zoo.get("paper-rho1")
    session = Session(None, ["aerodrome"])
    session.feed(list(spec.trace())[:2])  # string mode
    with pytest.raises(ValueError):
        session.feed(pack(spec.trace()))


def test_finish_without_events_is_empty_pass():
    result = Session(None, ["aerodrome", "races"]).finish()
    assert result.events_swept == 0
    assert result.reports["aerodrome"].verdict is True
    assert result.reports["races"].verdict is True


def test_packed_store_grows_interners_mid_stream():
    """Names unseen at bind time appear in later batches (the growth
    case the packed sweep's state caches must survive)."""
    from repro.trace.events import begin, end, read, write

    events = [
        begin("t1"), write("t1", "x"), end("t1"),
        # new thread, new variable, after the first batch bound
        begin("t2"), read("t2", "x"), write("t2", "y"), end("t2"),
        begin("t3"), read("t3", "zz"), end("t3"),
    ]
    names = ["aerodrome", "aerodrome-basic", "aerodrome-sharded", "velodrome"]
    from repro.trace.trace import Trace

    base = Session(pack(Trace(events, name="grow")), names).run()
    fed = Session(None, names, name="grow")
    fed.feed(events[:3], packed=True)
    fed.feed(events[3:7])
    fed.feed(events[7:])
    assert analyses_json(fed.finish()) == analyses_json(base)


def test_feed_remaps_foreign_interners():
    """Packed batches from two traces with their own interners: the
    session's store absorbs each source's names once, maps both onto
    its own tables, and modifies neither batch."""
    spec = trace_zoo.get("lock-cycle")
    a = pack(spec.trace())
    b = pack(spec.trace())
    names = ["aerodrome"]
    fed = Session(None, names, name="store")
    fed.feed(a)
    fed.feed(b[: len(b)])  # foreign interners: a fresh map onto the store
    assert len(fed.packed_store().variable_names) == len(a.variable_names)
    assert len(a) == len(b) == len(spec.trace())
    double = list(spec.trace()) + list(spec.trace())
    from repro.trace.trace import Trace

    base = Session(pack(Trace(double, name="store")), names).run()
    assert analyses_json(fed.finish()) == analyses_json(base)
