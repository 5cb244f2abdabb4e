"""The injection switchboard: one installed plan, cheap site checks.

The whole service is threaded with calls like::

    action = fire("wire.send")
    if action is not None:
        ...inject the fault action describes...

**Zero-overhead by default**: with no plan installed, :func:`fire` is a
single attribute load and a ``None`` check — the existing service
suites (zoo agreement, checkpoint/restart) run the untouched code
paths. Installing a plan (:func:`install`, or the :func:`injected`
context manager the chaos drills use) arms every site at once,
process-wide; sites in in-loop shards and forked shard processes see
the same plan object (fork inherits it).

Frame mutators used by the wire sites live here too, so the client and
server inject byte-level damage the same deterministic way.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from .plan import FaultAction, FaultPlan

_PLAN: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide (replacing any previous one)."""
    global _PLAN
    _PLAN = plan


def uninstall() -> None:
    """Disarm fault injection; every site reverts to zero overhead."""
    global _PLAN
    _PLAN = None


def current() -> Optional[FaultPlan]:
    """The armed plan, or ``None``."""
    return _PLAN


def fire(site: str, key: Optional[str] = None) -> Optional[FaultAction]:
    """Ask the armed plan (if any) whether a fault fires at ``site``."""
    plan = _PLAN
    if plan is None:
        return None
    return plan.fire(site, key)


@contextlib.contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of a ``with`` block (drill scope)."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


# -- deterministic frame damage (shared by wire.send / wire.reply) ----------


def mutate_frame(frame: bytes, action: FaultAction) -> bytes:
    """Apply ``truncate``/``corrupt`` damage to one encoded wire frame.

    * ``truncate`` — cut the frame mid-payload (a short write / torn
      TCP segment): the peer sees EOF inside a frame.
    * ``corrupt`` — flip one byte *past the length field* (offset >= 4)
      so the framing length stays intact and the peer fails fast with a
      typed error instead of waiting for bytes that never come.

    The damage position comes from the action's seeded RNG — the same
    plan seed injects the same broken bytes.
    """
    if action.op == "truncate":
        cut = action.rng.randrange(1, len(frame)) if len(frame) > 1 else 1
        return frame[:cut]
    if action.op == "corrupt":
        data = bytearray(frame)
        lo = min(4, len(data) - 1)
        pos = action.rng.randrange(lo, len(data))
        data[pos] ^= 1 << action.rng.randrange(8)
        return bytes(data)
    return frame
