"""Declarative, seeded fault plans — the ``repro-faults/1`` format.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries plus one
seeded RNG. Each rule names an **injection site** (a string the service
code passes to :func:`repro.faults.injector.fire` at the moment the
fault could happen), an **op** (what kind of failure to inject there),
and firing conditions:

* ``after_n`` — skip the first N arrivals at the site;
* ``times`` — fire at most N times (``None`` = every arrival);
* ``prob`` — fire with this probability, drawn from the plan's seeded
  RNG (so the *same seed replays the same faults*);
* ``match`` — only fire when the site's context key (session id,
  analysis name, …) contains this substring.

Plans serialize to JSON (see ``docs/SERVICE.md`` for the schema and the
site/op catalog) and load via :func:`load_plan` — which is what the
``repro chaos --plan`` verb does. Everything here is pure bookkeeping;
the actual injection lives in :mod:`repro.faults.injector` and the
service call sites.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Format tag of the JSON plan document.
PLAN_VERSION = "repro-faults/1"

#: Injection sites the service threads through, and the ops each
#: understands. Documented (with the behavior they provoke) in
#: docs/SERVICE.md's "Failure modes & guarantees" section.
SITES: Dict[str, tuple] = {
    # client -> server frame about to be sent (ServiceClient)
    "wire.send": ("truncate", "corrupt", "reset"),
    # server -> client reply about to be sent (_Handler)
    "wire.reply": ("truncate", "corrupt", "reset"),
    # a decoded EVENTS batch about to be routed (at-least-once delivery)
    "server.events": ("duplicate",),
    # a spool checkpoint about to be written (RecoveryManager.save)
    "spool.write": ("torn", "corrupt", "enospc"),
    # a shard worker about to process one EVENTS batch (ShardWorker)
    "shard.batch": ("crash",),
    # the router about to hand a batch to its shard (the name predates
    # in-loop shards; plans spell it, so it stays)
    "shard.inbox": ("stall",),
    # an api.Session.feed sweep about to step its analyses
    "analysis.step": ("raise",),
    # a cluster HANDOFF (checkpoint blob) about to be shipped to a peer
    "cluster.handoff": ("drop", "duplicate"),
    # a gossip round about to contact one peer (ClusterCoordinator):
    # drop = the contact never happens; delay = it lands one round
    # late; duplicate = the peer is contacted twice; reorder = the
    # contact moves to the end of this round
    "cluster.gossip": ("drop", "delay", "duplicate", "reorder"),
    # one node-to-node message about to leave on a directed link; keys
    # are "src->dst", so match carves partitions: match="a->b" is a
    # one-way cut, the pair {"a->", "->a"} isolates node a entirely,
    # and a bounded `times` heals the partition when it runs out
    "net.partition": ("drop",),
}


class FaultPlanError(ValueError):
    """A plan document is malformed (unknown site/op, bad field)."""


class FaultInjected(RuntimeError):
    """Raised *by* an injected fault (e.g. an analysis whose step
    raises). Deliberately a plain ``RuntimeError`` subtype: the service
    must survive it through the same paths as a genuine bug."""


class ShardCrash(BaseException):
    """An injected shard-worker crash.

    A ``BaseException`` on purpose: it must escape the per-command
    ``except Exception`` isolation in the shard loop, exactly like a
    segfault or ``kill -9`` of a worker process would.
    """


@dataclass
class FaultRule:
    """One declarative fault: fire ``op`` at ``site`` under conditions."""

    site: str
    op: str
    after_n: int = 0
    times: Optional[int] = 1
    prob: float = 1.0
    match: Optional[str] = None
    #: Arrivals seen at this rule (those passing ``match``).
    seen: int = field(default=0, compare=False)
    #: Times this rule has fired.
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r} "
                f"(known: {', '.join(sorted(SITES))})"
            )
        if self.op not in SITES[self.site]:
            raise FaultPlanError(
                f"site {self.site!r} does not support op {self.op!r} "
                f"(supported: {', '.join(SITES[self.site])})"
            )
        if self.after_n < 0:
            raise FaultPlanError("after_n must be >= 0")
        if self.times is not None and self.times < 1:
            raise FaultPlanError("times must be >= 1 (or null for always)")
        if not 0.0 <= self.prob <= 1.0:
            raise FaultPlanError("prob must be in [0, 1]")

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"site": self.site, "op": self.op}
        if self.after_n:
            doc["after_n"] = self.after_n
        if self.times != 1:
            doc["times"] = self.times
        if self.prob != 1.0:
            doc["prob"] = self.prob
        if self.match is not None:
            doc["match"] = self.match
        return doc


@dataclass(frozen=True)
class FaultAction:
    """What :meth:`FaultPlan.fire` hands back to an injection site."""

    site: str
    op: str
    rule: FaultRule
    #: Seeded RNG for the action's own randomness (which byte to flip,
    #: where to truncate) — deterministic per plan seed.
    rng: random.Random


class FaultPlan:
    """A seeded set of fault rules, consulted by injection sites.

    Thread-safe enough for the service's threading model: rule counters
    are bumped under the GIL and chaos scenarios target distinct sites
    from distinct threads; exact interleavings never change *whether* a
    deterministic (prob=1) rule fires, only when probabilistic rules
    consume RNG draws.
    """

    def __init__(
        self, rules: Optional[List[FaultRule]] = None, seed: int = 0
    ) -> None:
        self.rules: List[FaultRule] = list(rules or [])
        self.seed = seed
        self.rng = random.Random(seed)
        #: Every fault actually fired: ``(site, op, key)`` tuples, in
        #: order — the chaos report's injection log.
        self.log: List[tuple] = []

    def add(self, site: str, op: str, **kwargs: Any) -> "FaultPlan":
        """Append one rule (keyword args as in :class:`FaultRule`)."""
        self.rules.append(FaultRule(site=site, op=op, **kwargs))
        return self

    def fire(self, site: str, key: Optional[str] = None) -> Optional[FaultAction]:
        """Should a fault fire at ``site`` now? First matching rule wins."""
        for rule in self.rules:
            if rule.site != site:
                continue
            if rule.match is not None and (key is None or rule.match not in key):
                continue
            rule.seen += 1
            if rule.seen <= rule.after_n:
                continue
            if rule.times is not None and rule.fired >= rule.times:
                continue
            if rule.prob < 1.0 and self.rng.random() >= rule.prob:
                continue
            rule.fired += 1
            self.log.append((site, rule.op, key))
            return FaultAction(site, rule.op, rule, self.rng)
        return None

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": PLAN_VERSION,
            "seed": self.seed,
            "rules": [rule.to_json() for rule in self.rules],
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "FaultPlan":
        """Build a plan from a ``repro-faults/1`` document.

        Raises:
            FaultPlanError: On a version mismatch or malformed rule.
        """
        if not isinstance(doc, dict):
            raise FaultPlanError("plan must be a JSON object")
        version = doc.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise FaultPlanError(
                f"plan version {version!r} unsupported (want {PLAN_VERSION!r})"
            )
        seed = doc.get("seed", 0)
        if not isinstance(seed, int):
            raise FaultPlanError("seed must be an integer")
        raw_rules = doc.get("rules", [])
        if not isinstance(raw_rules, list):
            raise FaultPlanError("rules must be a list")
        rules = []
        for entry in raw_rules:
            if not isinstance(entry, dict):
                raise FaultPlanError(f"bad rule {entry!r}")
            known = {"site", "op", "after_n", "times", "prob", "match"}
            unknown = set(entry) - known
            if unknown:
                raise FaultPlanError(
                    f"unknown rule field(s): {', '.join(sorted(unknown))}"
                )
            try:
                rules.append(FaultRule(**entry))
            except TypeError as exc:
                raise FaultPlanError(f"bad rule {entry!r}: {exc}") from exc
        return cls(rules, seed=seed)


def load_plan(path: Union[str, Path]) -> FaultPlan:
    """Load a ``repro-faults/1`` JSON plan file.

    Raises:
        FaultPlanError: On unreadable or malformed input.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise FaultPlanError(f"cannot read plan {path}: {exc}") from exc
    except ValueError as exc:
        raise FaultPlanError(f"plan {path} is not valid JSON: {exc}") from exc
    return FaultPlan.from_json(doc)


def save_plan(plan: FaultPlan, path: Union[str, Path]) -> None:
    """Write a plan as a ``repro-faults/1`` JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(plan.to_json(), handle, indent=2)
        handle.write("\n")
