"""Live-instrumentation tests (real Python threads)."""

import threading

import pytest

from repro import Op, TraceRecorder, check, validate
from repro.trace.metainfo import metainfo


class TestSingleThread:
    def test_shared_var_records_accesses(self):
        recorder = TraceRecorder()
        x = recorder.shared("x", initial=0)
        x.set(5)
        assert x.get() == 5
        assert x.value == 5
        x.value = 7
        trace = recorder.trace()
        ops = [e.op for e in trace]
        assert ops == [Op.WRITE, Op.READ, Op.READ, Op.WRITE]
        assert all(e.target == "x" for e in trace)

    def test_atomic_context_manager(self):
        recorder = TraceRecorder()
        with recorder.atomic("increment"):
            recorder.shared("c").set(1)
        trace = recorder.trace()
        assert trace[0].op is Op.BEGIN
        assert trace[0].target == "increment"
        assert trace[-1].op is Op.END

    def test_atomic_closes_on_exception(self):
        recorder = TraceRecorder()
        with pytest.raises(RuntimeError):
            with recorder.atomic():
                raise RuntimeError("boom")
        trace = recorder.trace()
        assert [e.op for e in trace] == [Op.BEGIN, Op.END]

    def test_lock_context_manager(self):
        recorder = TraceRecorder()
        lock = recorder.lock("l")
        with lock:
            recorder.shared("x").set(1)
        trace = recorder.trace()
        assert [e.op for e in trace] == [Op.ACQUIRE, Op.WRITE, Op.RELEASE]
        validate(trace)

    def test_len_and_snapshot_isolation(self):
        recorder = TraceRecorder()
        recorder.shared("x").set(1)
        snapshot = recorder.trace()
        recorder.shared("x").set(2)
        assert len(snapshot) == 1
        assert len(recorder) == 2


class TestSpawnJoin:
    def test_fork_join_events(self):
        recorder = TraceRecorder()
        x = recorder.shared("x", initial=0)

        def child():
            x.set(1)

        thread = recorder.spawn(child)
        recorder.join(thread)
        trace = recorder.trace()
        validate(trace, require_forked_threads=True)
        ops = [e.op for e in trace]
        assert ops[0] is Op.FORK
        assert ops[-1] is Op.JOIN
        # The child's write is between fork and join.
        child_write = next(e for e in trace if e.op is Op.WRITE)
        assert child_write.thread == trace[0].target

    def test_join_foreign_thread_rejected(self):
        recorder = TraceRecorder()
        alien = threading.Thread(target=lambda: None)
        alien.start()
        with pytest.raises(ValueError, match="not spawned"):
            recorder.join(alien)
        alien.join()

    def test_many_children_unique_names(self):
        recorder = TraceRecorder()
        x = recorder.shared("x", initial=0)
        threads = [recorder.spawn(lambda: x.get()) for _ in range(4)]
        for thread in threads:
            recorder.join(thread)
        trace = recorder.trace()
        forked = [e.target for e in trace if e.op is Op.FORK]
        assert len(set(forked)) == 4
        validate(trace, require_forked_threads=True)


class TestEndToEnd:
    def test_deterministic_handoff_violation(self):
        """A controlled two-thread interleaving reproducing ρ2 with real
        threads: threading.Event gates force the crossed order."""
        recorder = TraceRecorder()
        x = recorder.shared("x", initial=0)
        y = recorder.shared("y", initial=0)
        t1_wrote_x = threading.Event()
        t2_wrote_y = threading.Event()

        def t1_body():
            with recorder.atomic("t1-block"):
                x.set(1)
                t1_wrote_x.set()
                t2_wrote_y.wait()
                y.get()

        def t2_body():
            with recorder.atomic("t2-block"):
                t1_wrote_x.wait()
                x.get()
                y.set(1)
                t2_wrote_y.set()

        t1 = recorder.spawn(t1_body)
        t2 = recorder.spawn(t2_body)
        recorder.join(t1)
        recorder.join(t2)
        trace = recorder.trace()
        validate(trace, require_forked_threads=True)
        result = check(trace)
        assert not result.serializable

    def test_locked_version_is_serializable(self):
        recorder = TraceRecorder()
        x = recorder.shared("x", initial=0)
        lock = recorder.lock("guard")
        barrier = threading.Barrier(2)

        def body():
            barrier.wait()
            for _ in range(5):
                with recorder.atomic("incr"):
                    with lock:
                        x.set(x.get() + 1)

        threads = [recorder.spawn(body) for _ in range(2)]
        for thread in threads:
            recorder.join(thread)
        trace = recorder.trace()
        validate(trace, require_forked_threads=True)
        assert check(trace).serializable
        assert x.get() == 10
        assert metainfo(trace).transactions == 10
