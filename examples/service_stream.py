#!/usr/bin/env python3
"""The streaming analysis service, end to end, in one process.

The paper's deployment model is online analysis; AeroDrome's
constant-space state (Theorem 4) is what makes it servable. This
walkthrough runs the whole ``repro.service`` stack against an
in-process server:

1. start a ``ServiceServer`` (2 share-nothing shards, checkpoint spool)
   on a loopback port — its selectors event loop multiplexes every
   connection on one thread;
2. stream a violating workload through the client SDK in small
   batches, watching findings arrive at FLUSH barriers while the
   stream is still running;
3. take a durable checkpoint, *stop the server mid-stream* (the stand-in
   for ``kill -9``), restart a new server from the same spool, resume
   the session at its checkpointed position, and stream the rest;
4. compare the recovered session's final ``repro-report/1`` document
   with the offline ``Session.run()`` on the full trace — identical
   analyses, identical verdict;
5. police a live instrumented program against the remote service via
   ``LiveMonitor(checker=RemoteChecker(...))``.

Run:  PYTHONPATH=src python examples/service_stream.py

The wire format, lifecycle and recovery semantics are documented in
docs/SERVICE.md.
"""

import tempfile

from repro.api import Session
from repro.instrument import LiveMonitor
from repro.service import RemoteChecker, ServiceClient, ServiceServer
from repro.sim import trace_zoo

ANALYSES = ["aerodrome", "races", "lockset"]


def stream_with_recovery(spool: str) -> dict:
    spec = trace_zoo.get("three-party-cycle")
    events = list(spec.trace())
    half = len(events) // 2

    # -- first server incarnation: stream half, checkpoint, "crash" ----
    server = ServiceServer(shards=2, spool=spool).start()
    print(f"server 1 listening on {server.address}")
    with ServiceClient(server.host, server.port) as client:
        handle = client.open_session(
            ANALYSES, name=spec.name, session_id="demo", encoding="delta"
        )
        for i in range(0, half, 2):
            handle.send(events[i : i + 2])
        info = handle.flush()
        print(f"  streamed {info['position']} events, "
              f"{len(handle.findings)} finding(s) so far")
        print(f"  checkpoint: {handle.checkpoint()}")
    server.stop()  # mid-stream crash: the session only exists on disk
    print("server 1 gone (mid-stream)")

    # -- second incarnation: recover from the spool, resume, finish ----
    server = ServiceServer(shards=2, spool=spool).start()
    print(f"server 2 recovered sessions: {server.recovered}")
    with ServiceClient(server.host, server.port) as client:
        handle = client.open_session(
            [], session_id="demo", resume=True
        )
        print(f"  resumed at position {handle.position}")
        handle.send(events[handle.position :])
        report = handle.result()
    server.stop()
    return report


def police_live_threads() -> None:
    with ServiceServer().start() as server:
        remote = RemoteChecker(
            server.host, server.port, analyses=["aerodrome"], batch=8
        )
        monitor = LiveMonitor(checker=remote)
        account = monitor.shared("balance", 100)
        with monitor.atomic("withdraw"):
            balance = account.get()
            account.set(balance - 30)
        remote.flush()
        report = remote.finish()
        print(f"live monitor over remote service: verdict "
              f"{report['verdict']} after {remote.events_processed} events")


def main() -> None:
    spec = trace_zoo.get("three-party-cycle")
    with tempfile.TemporaryDirectory(prefix="repro-spool-") as spool:
        recovered = stream_with_recovery(spool)

    offline = Session(spec.trace(), ANALYSES, name=spec.name).run().to_json()
    same = (
        recovered["analyses"] == offline["analyses"]
        and recovered["verdict"] == offline["verdict"]
    )
    print(f"recovered report == offline report: {same}")
    print(f"  verdict: {recovered['verdict']}")
    for entry in recovered["analyses"]:
        print(f"  [{entry['analysis']}] {entry['summary']}")
    assert same, "service recovery must not change the verdict"

    police_live_threads()


if __name__ == "__main__":
    main()
