"""Metamorphic properties of the checkers.

These tests transform traces in verdict-preserving ways and assert the
verdict is indeed preserved:

* consistent renaming of threads, variables or locks is irrelevant;
* swapping *adjacent non-conflicting* events yields an equivalent trace
  (this is the very equivalence Definition 1 is built on);
* events on fresh variables by fresh threads cannot create cycles;
* violations are monotone: a violating prefix stays violating under
  any well-formed extension.
"""

import random

from hypothesis import given, settings, strategies as st

from repro import Trace, check, conflict_serializable
from repro.trace.events import Event
from repro.sim.random_traces import RandomTraceConfig, random_trace

CONFIG = RandomTraceConfig(n_threads=3, n_vars=3, n_locks=2, length=30)


def _conflicting(a: Event, b: Event) -> bool:
    if a.thread == b.thread:
        return True
    if a.is_fork and a.target == b.thread:
        return True
    if b.is_join and b.target == a.thread:
        return True
    if (
        a.is_memory_access
        and b.is_memory_access
        and a.target == b.target
        and (a.is_write or b.is_write)
    ):
        return True
    if a.is_lock_op and b.is_lock_op and a.target == b.target:
        # Swapping any two same-lock operations can break lock
        # discipline; treat them as unswappable.
        return True
    return False


def _swap_non_conflicting(trace: Trace, seed: int, attempts: int = 20) -> Trace:
    rng = random.Random(seed)
    events = [Event(e.thread, e.op, e.target) for e in trace]
    for _ in range(attempts):
        if len(events) < 2:
            break
        i = rng.randrange(len(events) - 1)
        if not _conflicting(events[i], events[i + 1]):
            events[i], events[i + 1] = events[i + 1], events[i]
    return Trace(events, name=f"{trace.name}+swapped")


def _rename(trace: Trace, prefix: str) -> Trace:
    renamed = Trace(name=f"{trace.name}+renamed")
    for event in trace:
        target = event.target
        if target is not None:
            target = f"{prefix}{target}"
        renamed.append(Event(f"{prefix}{event.thread}", event.op, target))
    return renamed


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_renaming_invariance(seed):
    trace = random_trace(seed, CONFIG)
    original = check(trace).serializable
    assert check(_rename(trace, "zz_")).serializable == original


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**6),
)
def test_commuting_non_conflicting_events_preserves_verdict(seed, swap_seed):
    trace = random_trace(seed, CONFIG)
    swapped = _swap_non_conflicting(trace, swap_seed)
    for algorithm in ("aerodrome", "aerodrome-basic", "aerodrome-sharded", "velodrome", "velodrome-pk"):
        assert (
            check(trace, algorithm=algorithm).serializable
            == check(swapped, algorithm=algorithm).serializable
        ), algorithm


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_fresh_thread_noise_is_inert(seed):
    from repro import begin, end, read, write

    trace = random_trace(seed, CONFIG)
    original = check(trace).serializable
    noisy = Trace(
        [Event(e.thread, e.op, e.target) for e in trace],
        name=f"{trace.name}+noise",
    )
    noisy.append(begin("fresh"))
    noisy.append(write("fresh", "fresh_var"))
    noisy.append(read("fresh", "fresh_var"))
    noisy.append(end("fresh"))
    assert check(noisy).serializable == original


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
)
def test_violation_monotone_under_extension(seed, extension_seed):
    trace = random_trace(seed, CONFIG)
    if conflict_serializable(trace):
        return
    # Concatenate a fresh-namespace well-formed suffix: still violating.
    extension = _rename(random_trace(extension_seed, CONFIG), "ext_")
    combined = Trace(
        [Event(e.thread, e.op, e.target) for e in trace]
        + [Event(e.thread, e.op, e.target) for e in extension],
        name="combined",
    )
    assert not conflict_serializable(combined)
    assert not check(combined).serializable
