#!/usr/bin/env python3
"""Check REAL Python threads for atomicity violations.

The paper instruments Java programs with RoadRunner; ``repro.instrument``
plays that role for Python. This example runs an actually-threaded
work-queue program twice — once with a check-then-act bug, once fixed —
records both executions, and analyzes them with AeroDrome, the witness
explainer, and the FastTrack race detector.

Run:  python examples/live_instrumentation.py
"""

import threading

from repro import TraceRecorder, check, explain, find_races, metainfo


def buggy_run() -> None:
    """Worker reads (flag, payload) in two separate atomic blocks while
    the producer updates them atomically — a check-then-act bug. Event
    gates force the buggy interleaving deterministically."""
    recorder = TraceRecorder(name="buggy-queue")
    payload = recorder.shared("payload", initial=None)
    flag = recorder.shared("flag", initial=False)
    first_published = threading.Event()
    flag_seen = threading.Event()
    payload_replaced = threading.Event()
    consumed = {}

    def producer():
        with recorder.atomic("publish-v1"):
            payload.set("v1")
            flag.set(True)
        first_published.set()
        flag_seen.wait()
        with recorder.atomic("publish-v2"):
            payload.set("v2")
            flag.set(True)
        payload_replaced.set()

    def worker():
        with recorder.atomic("consume"):
            assert flag.get()  # sees v1's flag ...
            flag_seen.set()
            payload_replaced.wait()
            consumed["value"] = payload.get()  # ... but reads v2's payload!

    producer_thread = recorder.spawn(producer)
    first_published.wait()  # ensure worker starts after the first publish
    worker_thread = recorder.spawn(worker)
    recorder.join(producer_thread)
    recorder.join(worker_thread)
    print(f"  worker consumed {consumed['value']!r} (expected 'v1')")

    trace = recorder.trace()
    print(f"  recorded {metainfo(trace)}")
    result = check(trace)
    print(f"  AeroDrome: {result}")
    explanation = explain(trace)
    if explanation is not None:
        print("  witness:")
        for line in explanation.render().splitlines()[1:]:
            print("  " + line)
    races = find_races(trace)
    print(f"  FastTrack: {len(races)} HB data race(s) "
          f"on {sorted({r.variable for r in races})}")


def fixed_run() -> None:
    """The same program with the consume block holding a lock shared with
    the publishers: every interleaving is serializable."""
    recorder = TraceRecorder(name="fixed-queue")
    lock = recorder.lock("queue-lock")
    payload = recorder.shared("payload", initial=None)
    flag = recorder.shared("flag", initial=False)

    def producer():
        for version in ("v1", "v2"):
            with recorder.atomic(f"publish-{version}"):
                with lock:
                    payload.set(version)
                    flag.set(True)

    def worker():
        with recorder.atomic("consume"):
            with lock:
                if flag.get():
                    payload.get()

    producer_thread = recorder.spawn(producer)
    worker_thread = recorder.spawn(worker)
    recorder.join(producer_thread)
    recorder.join(worker_thread)

    trace = recorder.trace()
    print(f"  recorded {metainfo(trace)}")
    print(f"  AeroDrome: {check(trace)}")
    print(f"  FastTrack: {len(find_races(trace))} HB data race(s)")


def main() -> None:
    print("1. The buggy work queue (forced check-then-act interleaving):")
    buggy_run()
    print()
    print("2. The fixed work queue (lock covers the whole consume):")
    fixed_run()


if __name__ == "__main__":
    main()
