"""Jittered exponential backoff — the one retry-pacing policy.

Every retry loop in the client SDK (BUSY backpressure inside a
connection, reconnect-and-resume across connections, ring-refresh in
the cluster client) paces itself with the same policy: **exponential
growth, a hard cap, full jitter over the upper half**. One sleep is
drawn uniformly from ``(delay/2, delay]`` where ``delay`` doubles per
attempt up to :data:`BACKOFF_CAP` — the jitter de-synchronizes a
thundering herd of clients retrying against one busy shard, while the
lower bound of half-the-delay keeps the expected pace exponential.

The RNG is injectable (and seedable), so chaos drills and tests get
bit-for-bit reproducible retry schedules.
"""

from __future__ import annotations

import random
from typing import Optional

#: Longest single backoff sleep (seconds) — BUSY and reconnect alike.
BACKOFF_CAP = 0.5

#: Delay the first BUSY retry starts from (inside one connection).
DEFAULT_BUSY_DELAY = 0.01

#: Delay the first reconnect starts from (across connections).
DEFAULT_RECONNECT_DELAY = 0.05


class Backoff:
    """A jittered exponential backoff schedule.

    Args:
        initial: The first (pre-jitter) delay in seconds.
        cap: Hard ceiling a delay never exceeds (pre-jitter).
        factor: Growth multiplier per attempt.
        rng: RNG to draw jitter from (shared with a caller's RNG), or
        seed: a seed to build a private one — deterministic schedules
            for tests and chaos drills. ``rng`` wins if both are given.
    """

    __slots__ = ("initial", "cap", "factor", "_delay", "_rng")

    def __init__(
        self,
        initial: float = DEFAULT_RECONNECT_DELAY,
        cap: float = BACKOFF_CAP,
        factor: float = 2.0,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ) -> None:
        if initial <= 0:
            raise ValueError("initial delay must be positive")
        if cap < initial:
            raise ValueError("cap must be >= the initial delay")
        if factor < 1.0:
            raise ValueError("growth factor must be >= 1")
        self.initial = initial
        self.cap = cap
        self.factor = factor
        self._delay = initial
        self._rng = rng if rng is not None else random.Random(seed)

    @property
    def delay(self) -> float:
        """The next attempt's pre-jitter delay (for inspection)."""
        return min(self._delay, self.cap)

    def next(self) -> float:
        """Draw the next sleep and advance the schedule.

        The value is uniform over ``(d/2, d]`` for the current capped
        delay ``d`` — never zero, never above the cap.
        """
        capped = min(self._delay, self.cap)
        self._delay = min(self._delay * self.factor, self.cap)
        return capped * (0.5 + 0.5 * self._rng.random())

    def paced(self, hint_ms: Optional[int] = None) -> float:
        """Draw the next sleep, honoring a server pacing hint.

        ``hint_ms`` is the ``retry_ms`` field riding a ``BUSY`` frame —
        the server's own estimate of when retrying might succeed. The
        draw is the larger of the ordinary :meth:`next` value and the
        hint jittered over ``(hint/2, hint]``: the schedule still
        advances (so pacing keeps growing if the server stays busy),
        but the server's floor wins when it asks for more patience than
        the schedule has reached.
        """
        delay = self.next()
        if hint_ms:
            hint = (hint_ms / 1000.0) * (0.5 + 0.5 * self._rng.random())
            if hint > delay:
                return hint
        return delay

    def reset(self) -> None:
        """Restart the schedule at the initial delay (after a success)."""
        self._delay = self.initial
