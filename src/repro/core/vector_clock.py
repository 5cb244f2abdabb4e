"""Vector times and vector clocks (paper, Section 4 preliminaries).

A *vector time* is a vector of non-negative integers indexed by threads.
For vector times ``V1``, ``V2``:

* ``V1 ⊑ V2``  iff  ``V1(t) <= V2(t)`` for every thread ``t``
  (:meth:`VectorClock.leq`);
* ``V1 ⊔ V2 = λt. max(V1(t), V2(t))`` (:meth:`VectorClock.join`);
* ``V[c/t]`` is ``V`` with component ``t`` replaced by ``c``
  (:meth:`VectorClock.with_component`);
* ``⊥`` is the all-zero time (:meth:`VectorClock.bottom`).

Threads are represented by dense integer indices; analyzers intern thread
names through :class:`ThreadRegistry`. Clocks are conceptually
infinite-dimensional with missing components equal to zero, so clocks of
different lengths compare correctly and grow on demand as new threads
appear mid-trace.

Storage is a packed ``array('q')`` rather than a list: clocks are the
dominant live state of the analyses (Theorem 4 bounds their *count*, not
their width) and 8-byte machine words keep that state dense. Each clock
also carries a :attr:`~VectorClock.version` stamp, drawn from a global
monotone counter and refreshed on every state *change*. Two reads of the
same version therefore witness the identical vector value, which is what
the checkers' epoch fast paths rely on to skip provably no-op joins and
copies (see ``docs/PERF.md``).
"""

from __future__ import annotations

from array import array
from itertools import count
from typing import Dict, Iterable, List, Sequence

#: Global version stamps. Monotone and never reused, so equality of two
#: stamps taken at different times implies the clock value is unchanged
#: (and a replaced clock object can never masquerade as the old one).
_next_version = count(1).__next__

#: A single zero component, used to materialize runs of zeros in C.
_ZERO = array("q", (0,))


class VectorClock:
    """A mutable vector time.

    The in-place operations (:meth:`join`, :meth:`join_into_and_check`,
    :meth:`set_component`, :meth:`increment`, :meth:`assign`) are the
    workhorses of the analysis loops; the functional variants
    (:meth:`joined`, :meth:`with_component`) are for tests and expository
    code. Only the functional/public constructor validates its input —
    the hot constructors (:meth:`bottom`, :meth:`unit`, :meth:`copy`)
    produce non-negative vectors by construction and skip the scan.
    """

    __slots__ = ("_times", "version")

    def __init__(self, times: Iterable[int] = ()) -> None:
        self._times = array("q", times)
        if any(t < 0 for t in self._times):
            raise ValueError("vector times are non-negative")
        self.version = _next_version()

    # -- constructors --------------------------------------------------------

    @classmethod
    def bottom(cls, size: int = 0) -> "VectorClock":
        """The minimum time ⊥ (all zeros)."""
        clock = cls.__new__(cls)
        clock._times = _ZERO * size
        clock.version = _next_version()
        return clock

    @classmethod
    def unit(cls, thread: int, value: int = 1, size: int = 0) -> "VectorClock":
        """⊥[value/thread] — the initial clock C_t = ⊥[1/t]."""
        clock = cls.bottom()
        clock._grow(max(size, thread + 1))
        clock._times[thread] = value
        return clock

    def copy(self) -> "VectorClock":
        clock = VectorClock.__new__(VectorClock)
        clock._times = self._times[:]
        clock.version = _next_version()
        return clock

    # -- component access ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def get(self, thread: int) -> int:
        """Component ``V(thread)`` (0 if beyond the stored length)."""
        if thread < len(self._times):
            return self._times[thread]
        return 0

    def _grow(self, size: int) -> None:
        missing = size - len(self._times)
        if missing > 0:
            # Appending zeros does not change the (conceptually
            # infinite) vector value, so the version is untouched.
            self._times.extend(_ZERO * missing)

    def set_component(self, thread: int, value: int) -> None:
        """In-place ``V(thread) := value``."""
        if value < 0:
            raise ValueError("vector times are non-negative")
        self._grow(thread + 1)
        self._times[thread] = value
        self.version = _next_version()

    def increment(self, thread: int, amount: int = 1) -> None:
        """In-place ``V(thread) := V(thread) + amount``."""
        self._grow(thread + 1)
        self._times[thread] += amount
        self.version = _next_version()

    def assign(self, other: "VectorClock") -> None:
        """In-place copy: ``V := other``."""
        self._times[:] = other._times
        self.version = _next_version()

    # -- lattice operations ----------------------------------------------------

    def leq(self, other: "VectorClock") -> bool:
        """The partial order ``self ⊑ other``."""
        mine = self._times
        theirs = other._times
        if len(mine) <= len(theirs):
            for a, b in zip(mine, theirs):
                if a > b:
                    return False
            return True
        n = len(theirs)
        for i, a in enumerate(mine):
            if a > (theirs[i] if i < n else 0):
                return False
        return True

    def join(self, other: "VectorClock") -> None:
        """In-place join: ``V := V ⊔ other``."""
        theirs = other._times
        self._grow(len(theirs))
        mine = self._times
        changed = False
        for i, b in enumerate(theirs):
            if b > mine[i]:
                mine[i] = b
                changed = True
        if changed:
            self.version = _next_version()

    def join_into_and_check(
        self, other: "VectorClock", check: "VectorClock" = None
    ) -> bool:
        """Fused ``V ⊔= other`` and ``check ⊑ other`` in one traversal.

        This is the shape of the paper's ``checkAndGet``: the violation
        check and the clock update read the same operand, so fusing them
        halves the vector passes on the basic checker's hot path. With
        ``check=None`` it degenerates to :meth:`join` and returns True.
        """
        theirs = other._times
        n = len(theirs)
        self._grow(n)
        mine = self._times
        changed = False
        if check is None:
            for i, b in enumerate(theirs):
                if b > mine[i]:
                    mine[i] = b
                    changed = True
            ok = True
        else:
            cts = check._times
            m = len(cts)
            ok = True
            for i, b in enumerate(theirs):
                if b > mine[i]:
                    mine[i] = b
                    changed = True
                if i < m and cts[i] > b:
                    ok = False
            if ok and m > n:
                for i in range(n, m):
                    if cts[i] > 0:
                        ok = False
                        break
        if changed:
            self.version = _next_version()
        return ok

    def joined(self, other: "VectorClock") -> "VectorClock":
        """Functional join: ``V ⊔ other`` as a new clock."""
        result = self.copy()
        result.join(other)
        return result

    def with_component(self, thread: int, value: int) -> "VectorClock":
        """Functional ``V[value/thread]`` as a new clock."""
        result = self.copy()
        result.set_component(thread, value)
        return result

    def zeroed(self, thread: int) -> "VectorClock":
        """``V[0/thread]`` — used by the check-read clock hR_x (App. C.1)."""
        return self.with_component(thread, 0)

    def is_bottom(self) -> bool:
        return not any(self._times)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        mine, theirs = self._times, other._times
        if len(mine) < len(theirs):
            mine, theirs = theirs, mine
        return mine[: len(theirs)] == theirs and not any(mine[len(theirs):])

    def __hash__(self) -> int:
        times = self._times[:]
        while times and times[-1] == 0:
            times.pop()
        return hash(tuple(times))

    def __repr__(self) -> str:
        inner = ",".join(str(t) for t in self._times)
        return f"⟨{inner}⟩"

    def as_tuple(self) -> tuple:
        return tuple(self._times)

    # -- pickling ----------------------------------------------------------
    #
    # array('q') pickles fine, but spelling the state out keeps
    # checkpoints (repro.core.snapshot) independent of slot layout.

    def __getstate__(self) -> tuple:
        return (self._times.tolist(), self.version)

    def __setstate__(self, state: tuple) -> None:
        times, version = state
        self._times = array("q", times)
        self.version = version


class ThreadRegistry:
    """Interns thread names to dense indices for vector-clock components."""

    __slots__ = ("_index", "_names")

    def __init__(self, names: Sequence[str] = ()) -> None:
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        for name in names:
            self.index_of(name)

    def index_of(self, name: str) -> int:
        """The index for ``name``, interning it on first sight."""
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
        return idx

    def name_of(self, index: int) -> str:
        return self._names[index]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def names(self) -> List[str]:
        return self._names[:]
