"""The chaos drill matrix: seeded fault scenarios with pinned outcomes.

Each scenario arms a deterministic :class:`~repro.faults.plan.FaultPlan`
against a real in-process service (TCP server, shard router, checkpoint
spool) and drives a real client through the failure. Every scenario
must terminate in one of exactly two outcomes:

* ``recovered`` — the stream heals (reconnect + resume, shard restart,
  positioned re-send) and the final report **equals the offline run**
  on the same trace;
* ``degraded`` — the failure is surfaced as a *documented, typed*
  error (a quarantined session's ``analysis`` ERROR, a salvaged spool
  entry) while every healthy sibling still recovers.

Never a hang (every client runs under a deadline), never a corrupt
report, never a dead shard taking its tenants down silently. The
matrix runs in CI (``chaos-smoke``) with a fixed seed and gates on
these invariants — agreement and typed degradation — not wall-clock,
so it is deterministic on any machine.

``repro chaos`` is the CLI front end: ``--scenario``/``--list`` run
this matrix, ``--plan`` runs an arbitrary ``repro-faults/1`` JSON plan
through the generic drill.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .injector import injected
from .plan import FaultPlan

#: Deadline (seconds) under which every drill's client runs — the
#: structural "never a hang" guarantee. Generous: it only matters if a
#: scenario would otherwise block forever.
DRILL_DEADLINE = 120.0

_ANALYSES = ["aerodrome", "races", "lockset"]


@dataclass
class ScenarioResult:
    """One drill's verdict."""

    name: str
    seed: int
    #: ``recovered`` or ``degraded`` (see the module docstring).
    outcome: str
    ok: bool
    detail: str
    #: Human-readable invariant checks, each prefixed ``ok:``/``FAIL:``.
    checks: List[str] = field(default_factory=list)
    #: The plan's injection log: ``[site, op, key]`` per fired fault.
    injected: List[List[Optional[str]]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "scenario": self.name,
            "seed": self.seed,
            "outcome": self.outcome,
            "ok": self.ok,
            "detail": self.detail,
            "checks": self.checks,
            "injected": self.injected,
        }


class _Checks:
    """Collects named assertions without aborting the drill."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.ok = True

    def expect(self, condition: bool, what: str) -> bool:
        self.lines.append(("ok: " if condition else "FAIL: ") + what)
        self.ok = self.ok and condition
        return condition


def _zoo(name: str):
    from ..sim import trace_zoo

    return trace_zoo.get(name)


def _offline_doc(spec) -> Dict[str, Any]:
    from ..api import Session

    return Session(spec.trace(), _ANALYSES, name=spec.name).run().to_json()


def _agrees(checks: _Checks, doc: Dict[str, Any], base: Dict[str, Any],
            what: str) -> None:
    checks.expect(doc["analyses"] == base["analyses"],
                  f"{what}: analyses equal the offline run")
    checks.expect(doc["verdict"] == base["verdict"],
                  f"{what}: verdict equals the offline run")
    checks.expect(doc["trace"]["events"] == base["trace"]["events"],
                  f"{what}: event count equals the offline run")


def _result(name: str, seed: int, plan: FaultPlan, outcome: str,
            checks: _Checks, detail: str) -> ScenarioResult:
    return ScenarioResult(
        name=name,
        seed=seed,
        outcome=outcome,
        ok=checks.ok,
        detail=detail,
        checks=checks.lines,
        injected=[list(entry) for entry in plan.log],
    )


# -- the matrix --------------------------------------------------------------


def scenario_reset_mid_events(seed: int) -> ScenarioResult:
    """The client's connection resets mid-stream; it reconnects with
    ``resume`` and re-sends from the server's position. Positioned
    frames make the overlap idempotent: the report equals offline."""
    from ..service import ServiceServer, submit_trace

    spec = _zoo("paper-rho2")
    base = _offline_doc(spec)
    checks = _Checks()
    plan = FaultPlan(seed=seed)
    plan.add("wire.send", op="reset", after_n=2, times=1, match="drill-reset")
    with tempfile.TemporaryDirectory() as spool:
        with ServiceServer(port=0, shards=2, spool=spool,
                           checkpoint_every=4).start() as server:
            with injected(plan):
                doc = submit_trace(
                    server.host, server.port, list(spec.trace()), _ANALYSES,
                    name=spec.name, batch=3, session_id="drill-reset",
                    deadline=DRILL_DEADLINE, jitter_seed=seed,
                )
            checks.expect(len(plan.log) >= 1, "the reset actually fired")
            _agrees(checks, doc, base, "report after reconnect+resume")
    return _result("reset-mid-events", seed, plan, "recovered", checks,
                   "connection reset healed by reconnect + positioned resume")


def scenario_shard_crash(seed: int) -> ScenarioResult:
    """One shard worker dies mid-batch. The router restarts it from the
    checkpoint spool; the client's flush exposes the rollback and the
    positioned re-send closes the gap. The report equals offline, the
    sibling session on the other shard never notices."""
    from ..service import ServiceClient, ServiceServer, submit_trace

    spec = _zoo("paper-rho1")
    base = _offline_doc(spec)
    checks = _Checks()
    plan = FaultPlan(seed=seed)
    plan.add("shard.batch", op="crash", after_n=2, times=1, match="drill-crash")
    with tempfile.TemporaryDirectory() as spool:
        with ServiceServer(port=0, shards=2, spool=spool,
                           checkpoint_every=4).start() as server:
            with injected(plan):
                doc = submit_trace(
                    server.host, server.port, list(spec.trace()), _ANALYSES,
                    name=spec.name, batch=3, session_id="drill-crash",
                    deadline=DRILL_DEADLINE, jitter_seed=seed,
                )
            checks.expect(len(plan.log) == 1, "the crash actually fired")
            _agrees(checks, doc, base, "report after shard restart")
            with ServiceClient(server.host, server.port,
                               deadline=DRILL_DEADLINE) as client:
                stats = client.stats()
            checks.expect(stats.get("shard_restarts", 0) >= 1,
                          "stats count the shard restart")
            sibling = submit_trace(
                server.host, server.port, list(spec.trace()), _ANALYSES,
                name=spec.name, deadline=DRILL_DEADLINE,
            )
            _agrees(checks, sibling, base, "sibling session after the crash")
    return _result("shard-crash", seed, plan, "recovered", checks,
                   "dead shard restarted from spool; gap re-sent; siblings fine")


def scenario_poison_analysis(seed: int) -> ScenarioResult:
    """One tenant's analysis raises mid-stream. That session is
    quarantined behind a typed ``analysis`` ERROR; its shard and a
    healthy sibling stream keep working. Documented degradation."""
    from ..service import ServiceError, ServiceServer, submit_trace

    spec = _zoo("paper-rho2")
    base = _offline_doc(spec)
    checks = _Checks()
    plan = FaultPlan(seed=seed)
    plan.add("analysis.step", op="raise", after_n=2, times=None,
             match="poisoned")
    detail = ""
    with ServiceServer(port=0, shards=2).start() as server:
        with injected(plan):
            try:
                submit_trace(
                    server.host, server.port, list(spec.trace()), _ANALYSES,
                    name="poisoned", batch=3, session_id="drill-poison",
                    deadline=DRILL_DEADLINE, jitter_seed=seed,
                )
                checks.expect(False, "poisoned session raised a typed error")
            except ServiceError as exc:
                detail = str(exc)
                checks.expect(exc.code == "analysis",
                              f"typed quarantine code (got {exc.code!r})")
        checks.expect(len(plan.log) >= 1, "the poison actually fired")
        healthy = submit_trace(
            server.host, server.port, list(spec.trace()), _ANALYSES,
            name=spec.name, deadline=DRILL_DEADLINE,
        )
        _agrees(checks, healthy, base, "healthy sibling on the same server")
        from ..service import ServiceClient

        with ServiceClient(server.host, server.port,
                           deadline=DRILL_DEADLINE) as client:
            stats = client.stats()
        checks.expect(stats.get("sessions_quarantined", 0) == 1,
                      "stats count exactly one quarantined session")
    return _result("poison-analysis", seed, plan, "degraded", checks,
                   detail or "poisoned session quarantined with a typed error")


def scenario_torn_checkpoint(seed: int) -> ScenarioResult:
    """The server dies mid-checkpoint (a torn spool write). On restart
    the torn entry is salvaged to ``*.bad`` — never deserialized — and
    re-submitting the stream from scratch yields the correct report.
    Documented degradation: durability lost, correctness kept."""
    from ..service import ServiceServer, submit_trace

    spec = _zoo("lock-cycle")
    base = _offline_doc(spec)
    events = list(spec.trace())
    checks = _Checks()
    plan = FaultPlan(seed=seed)
    plan.add("spool.write", op="torn", times=None, match="drill-torn")
    with tempfile.TemporaryDirectory() as spool:
        with ServiceServer(port=0, spool=spool) as server:
            server.start()
            with injected(plan):
                info = submit_trace(
                    server.host, server.port, events, _ANALYSES,
                    name=spec.name, session_id="drill-torn",
                    stop_after=max(2, len(events) // 2), checkpoint=True,
                    deadline=DRILL_DEADLINE, jitter_seed=seed,
                )
            checks.expect(info["open"], "first half streamed and checkpointed")
            checks.expect(len(plan.log) >= 1, "the torn write actually fired")
        # the "kill": the first server is gone; a new one reads the spool
        with ServiceServer(port=0, spool=spool).start() as server:
            checks.expect(
                any("drill-torn" in s["file"] for s in server.salvaged),
                "restart salvaged the torn entry (never deserialized)",
            )
            checks.expect(server.recovered == [],
                          "the torn session did not resurrect")
            doc = submit_trace(
                server.host, server.port, events, _ANALYSES,
                name=spec.name, deadline=DRILL_DEADLINE,
            )
            _agrees(checks, doc, base, "full re-send after salvage")
    return _result("torn-checkpoint", seed, plan, "degraded", checks,
                   "torn checkpoint quarantined to *.bad; full re-send correct")


def scenario_corrupt_spool(seed: int) -> ScenarioResult:
    """One spooled checkpoint is corrupted at rest (a flipped byte).
    Restart recovery detects the CRC mismatch, quarantines that entry,
    and still recovers the healthy sibling, which resumes to a report
    equal to offline."""
    from ..service import ServiceServer, submit_trace

    spec = _zoo("paper-rho1")
    base = _offline_doc(spec)
    events = list(spec.trace())
    half = max(2, len(events) // 2)
    checks = _Checks()
    plan = FaultPlan(seed=seed)
    plan.add("spool.write", op="corrupt", times=None, match="drill-corrupt")
    with tempfile.TemporaryDirectory() as spool:
        with ServiceServer(port=0, shards=2, spool=spool) as server:
            server.start()
            with injected(plan):
                for sid in ("drill-corrupt", "drill-healthy"):
                    info = submit_trace(
                        server.host, server.port, events, _ANALYSES,
                        name=spec.name, session_id=sid,
                        stop_after=half, checkpoint=True,
                        deadline=DRILL_DEADLINE, jitter_seed=seed,
                    )
                    checks.expect(info["open"], f"{sid} checkpointed mid-stream")
            checks.expect(len(plan.log) >= 1, "the corruption actually fired")
        with ServiceServer(port=0, shards=2, spool=spool).start() as server:
            checks.expect(
                any("drill-corrupt" in s["file"] for s in server.salvaged),
                "the corrupt entry was salvaged, not deserialized",
            )
            checks.expect("drill-healthy" in server.recovered,
                          "the healthy sibling recovered")
            doc = submit_trace(
                server.host, server.port, events, _ANALYSES,
                name=spec.name, session_id="drill-healthy", resume=True,
                deadline=DRILL_DEADLINE,
            )
            _agrees(checks, doc, base, "healthy sibling resumed to completion")
    return _result("corrupt-spool", seed, plan, "degraded", checks,
                   "corrupt entry quarantined; healthy sibling recovered")


def scenario_inbox_stall(seed: int) -> ScenarioResult:
    """A shard stalls (backpressure): the server answers BUSY and
    the client's bounded jittered backoff rides it out. The report
    equals offline and the server counted its BUSY replies."""
    from ..service import ServiceClient, ServiceServer, submit_trace

    spec = _zoo("paper-rho2")
    base = _offline_doc(spec)
    checks = _Checks()
    plan = FaultPlan(seed=seed)
    plan.add("shard.inbox", op="stall", after_n=1, times=3, match="drill-stall")
    with ServiceServer(port=0).start() as server:
        with injected(plan):
            doc = submit_trace(
                server.host, server.port, list(spec.trace()), _ANALYSES,
                name=spec.name, batch=3, session_id="drill-stall",
                deadline=DRILL_DEADLINE, jitter_seed=seed,
            )
        checks.expect(len(plan.log) == 3, "the stall fired three times")
        _agrees(checks, doc, base, "report after riding out BUSY")
        with ServiceClient(server.host, server.port,
                           deadline=DRILL_DEADLINE) as client:
            stats = client.stats()
        checks.expect(stats.get("server", {}).get("busy_replies", 0) >= 3,
                      "the server counted its BUSY replies")
    return _result("inbox-stall", seed, plan, "recovered", checks,
                   "backpressure absorbed by bounded jittered backoff")


SCENARIOS: Dict[str, Callable[..., ScenarioResult]] = {
    "reset-mid-events": scenario_reset_mid_events,
    "shard-crash": scenario_shard_crash,
    "poison-analysis": scenario_poison_analysis,
    "torn-checkpoint": scenario_torn_checkpoint,
    "corrupt-spool": scenario_corrupt_spool,
    "inbox-stall": scenario_inbox_stall,
}

#: Seed the CI chaos-smoke job pins.
DEFAULT_SEED = 7207


def run_scenario(name: str, seed: int = DEFAULT_SEED) -> ScenarioResult:
    """Run one named drill (raises ``KeyError`` on an unknown name)."""
    return SCENARIOS[name](seed)


def run_all(seed: int = DEFAULT_SEED) -> List[ScenarioResult]:
    """Run the whole matrix, in a stable order."""
    return [SCENARIOS[name](seed) for name in SCENARIOS]


def run_plan_drill(plan: FaultPlan) -> ScenarioResult:
    """The generic drill behind ``repro chaos --plan``: stream one zoo
    trace through a spooled server with the given plan armed.

    ``recovered`` if the report still equals the offline run;
    ``degraded`` if the failure surfaced as a typed
    :class:`~repro.service.ServiceError` — either way the drill
    terminates and reports what fired. Anything else fails the drill.
    """
    from ..service import ServiceError, ServiceServer, submit_trace

    spec = _zoo("paper-rho2")
    base = _offline_doc(spec)
    checks = _Checks()
    outcome, detail = "recovered", "report equals the offline run"
    with tempfile.TemporaryDirectory() as spool:
        with ServiceServer(port=0, shards=2, spool=spool,
                           checkpoint_every=4).start() as server:
            with injected(plan):
                try:
                    doc = submit_trace(
                        server.host, server.port, list(spec.trace()),
                        _ANALYSES, name=spec.name, batch=3,
                        session_id="drill-plan",
                        deadline=DRILL_DEADLINE, jitter_seed=plan.seed,
                    )
                except ServiceError as exc:
                    outcome = "degraded"
                    detail = f"typed degradation: {exc}"
                    checks.expect(bool(exc.code), "the error carries a code")
                else:
                    _agrees(checks, doc, base, "report under the armed plan")
    return _result("plan-drill", plan.seed, plan, outcome, checks, detail)
