"""C10k: the event-loop server holds thousands of idle sessions.

The point of the selectors front end is that an *open* session costs a
few kilobytes of state, not a thread. The tier-1 smoke leg opens 1k
sessions against an in-process server on one thread and checks the
loop's own gauges; the ``slow``-marked leg (``pytest -m slow``) drives
10k sessions against a ``repro serve`` subprocess and asserts its resident set stays bounded — the acceptance
bar in docs/SERVICE.md.
"""

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import ServiceServer
from repro.service import protocol
from repro.service.protocol import FrameStream, FrameType


def open_idle_session(host, port, index, analyses=("lockset",)):
    """One raw HELLO handshake; returns the open socket."""
    sock = socket.create_connection((host, port), timeout=30)
    hello = {
        "protocol": protocol.PROTOCOL,
        "analyses": list(analyses),
        "session": f"idle-{index}",
        "name": f"idle-{index}",
    }
    sock.sendall(protocol.encode_json(FrameType.HELLO, hello))
    reply = FrameStream(sock.makefile("rb")).read_frame()
    assert reply is not None
    ftype, payload = reply
    assert ftype == FrameType.OK, protocol.decode_json(payload)
    return sock


def fetch_stats(host, port):
    sock = socket.create_connection((host, port), timeout=30)
    try:
        sock.sendall(protocol.encode_frame(FrameType.STATS))
        ftype, payload = FrameStream(sock.makefile("rb")).read_frame()
        assert ftype == FrameType.OK
        return protocol.decode_json(payload)["stats"]
    finally:
        sock.close()


def test_1k_idle_sessions_single_thread():
    """Tier-1 smoke: 1000 open sessions on one event-loop thread."""
    sockets = []
    with ServiceServer(shards=1).start() as server:
        try:
            for i in range(1000):
                sockets.append(open_idle_session(server.host, server.port, i))
            stats = fetch_stats(server.host, server.port)
            gauges = stats["server"]
            assert gauges["backend"] == "async"
            assert gauges["open_connections"] >= 1000
            assert stats["sessions_open"] >= 1000
            # Idle HELLO traffic never buffers more than one small frame.
            assert gauges["ring_high_water"] < 4096
        finally:
            for sock in sockets:
                sock.close()


def _server_rss_kib(pid):
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise AssertionError("no VmRSS in /proc status")


@pytest.mark.slow
def test_10k_idle_sessions_bounded_rss(tmp_path):
    """The C10k acceptance leg: 10k sessions, one CPU, bounded memory."""
    ready = tmp_path / "ready.txt"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--shards", "1",
            "--ready-file", str(ready),
        ],
        cwd=str(Path(__file__).resolve().parent.parent),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    sockets = []
    try:
        deadline = time.monotonic() + 30
        while not ready.exists() and time.monotonic() < deadline:
            assert proc.poll() is None, "server died before ready"
            time.sleep(0.05)
        host, port = ready.read_text().split()
        port = int(port)

        baseline_kib = _server_rss_kib(proc.pid)
        for i in range(10_000):
            sockets.append(open_idle_session(host, port, i))
        stats = fetch_stats(host, port)
        assert stats["server"]["open_connections"] >= 10_000
        assert stats["sessions_open"] >= 10_000

        grown_kib = _server_rss_kib(proc.pid) - baseline_kib
        per_session_kib = grown_kib / 10_000
        # An idle session is a socket + codec + analysis shell. 100 KiB
        # apiece (≈1 GiB for the fleet) is the generous ceiling; a
        # thread-per-connection build blows past it on stacks alone.
        assert per_session_kib < 100, (
            f"{per_session_kib:.1f} KiB per idle session "
            f"({grown_kib} KiB for 10k)"
        )
    finally:
        for sock in sockets:
            sock.close()
        proc.terminate()
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(10)
