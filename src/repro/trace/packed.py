"""Packed traces: one-pass compilation of a trace to dense integer records.

The string event model (:mod:`repro.trace.events`) is what the paper's
traces look like and what the parsers, writers and tests speak. It is
also what every checker used to *re*-intern, event by event, through
per-checker dictionaries — a large constant factor on the hot path for
an analysis whose selling point is linearity.

A :class:`PackedTrace` pays the interning cost exactly once. Compiling a
:class:`~repro.trace.trace.Trace` produces three parallel machine-word
arrays —

* ``thread`` — dense thread index (shared namespace with fork/join
  targets),
* ``op`` — the :class:`~repro.trace.events.Op` code,
* ``target`` — a dense index in the *per-op namespace*: variables for
  read/write, locks for acquire/release, threads for fork/join, block
  labels for begin/end (``-1`` when absent)

— plus one :class:`Interner` per namespace mapping the indices back to
names. Checkers consume the arrays directly via their per-op dispatch
tables (``StreamingChecker.run_packed``); everything else can keep
treating a packed trace as an iterable of events, because iteration and
indexing reconstruct :class:`~repro.trace.events.Event` objects on
demand.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from .events import Event, Op
from .trace import Trace

#: Sentinel target index for begin/end events without a label.
NO_TARGET = -1

#: Which interner namespace each op's target lives in.
_NS_VARIABLE = 0
_NS_LOCK = 1
_NS_THREAD = 2
_NS_LABEL = 3

_NAMESPACE_OF_OP = (
    _NS_VARIABLE,  # READ
    _NS_VARIABLE,  # WRITE
    _NS_LOCK,      # ACQUIRE
    _NS_LOCK,      # RELEASE
    _NS_THREAD,    # FORK
    _NS_THREAD,    # JOIN
    _NS_LABEL,     # BEGIN
    _NS_LABEL,     # END
)


class Interner:
    """Interns strings of one namespace to dense indices.

    The generalization of :class:`~repro.core.vector_clock.ThreadRegistry`
    to arbitrary namespaces (variables, locks, block labels).
    """

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

    def lookup(self, name: str) -> Optional[int]:
        """The index for ``name`` without interning (None if unseen)."""
        return self._index.get(name)

    def name_of(self, index: int) -> str:
        return self._names[index]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def names(self) -> List[str]:
        """The interned names, in index order (a copy)."""
        return self._names[:]

    def __getstate__(self) -> List[str]:
        # The index is the names' inverse: pickle the names alone.
        return self._names

    def __setstate__(self, names) -> None:
        if isinstance(names, tuple):  # pickled with both slots
            names = names[1]["_names"]
        self._names = names
        self._index = {name: idx for idx, name in enumerate(names)}

    def names_from(self, start: int) -> List[str]:
        """The names interned at index ``start`` onward (a copy).

        The delta a streaming encoder ships per frame
        (:class:`repro.service.protocol.DeltaEncoder`): O(new names),
        not O(table) like ``names()[start:]``.
        """
        return self._names[start:]


class PackedTrace:
    """A trace compiled to dense integer event records.

    Build one with :func:`pack` / :meth:`from_trace` (single pass over
    the source trace). Event ``i`` is the triple
    ``(thread[i], op[i], target[i])``; ``idx`` is implicit in the
    position, so a packed trace costs ~9 bytes of array payload per
    event instead of one :class:`Event` object.

    Iteration, ``trace[i]`` and slicing reconstruct events on demand, so
    a packed trace can stand in for a :class:`Trace` anywhere events are
    only read. Checkers detect packed input and switch to their
    dispatch-table fast path instead (no Event materialization at all).
    """

    __slots__ = ("name", "threads", "variables", "locks", "labels",
                 "_thread", "_op", "_target")

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.threads = Interner()
        self.variables = Interner()
        self.locks = Interner()
        self.labels = Interner()
        self._thread = array("i")
        self._op = array("b")
        self._target = array("i")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_trace(
        cls, trace: Iterable[Event], name: Optional[str] = None
    ) -> "PackedTrace":
        """Compile ``trace`` (any event iterable) in one pass."""
        packed = cls(name=name or getattr(trace, "name", "trace"))
        packed._intern_into(trace, packed._thread, packed._op, packed._target)
        return packed

    def _intern_into(self, events: Iterable[Event], threads_arr, ops_arr,
                     targets_arr) -> None:
        """Intern ``events`` into this trace's tables, appending their
        records to the given columns (thread first, then target: the
        order every encoder and the wire share)."""
        thread_of = self.threads.index_of
        interner_of_ns = (
            self.variables.index_of,
            self.locks.index_of,
            thread_of,
            self.labels.index_of,
        )
        for event in events:
            op = event.op
            target = event.target
            threads_arr.append(thread_of(event.thread))
            ops_arr.append(op)
            targets_arr.append(
                NO_TARGET if target is None
                else interner_of_ns[_NAMESPACE_OF_OP[op]](target)
            )

    def append(self, event: Event) -> None:
        """Append one event (interning names as needed)."""
        op = event.op
        target = event.target
        self._thread.append(self.threads.index_of(event.thread))
        self._op.append(op)
        if target is None:
            self._target.append(NO_TARGET)
        else:
            ns = _NAMESPACE_OF_OP[op]
            interner = (self.variables, self.locks, self.threads, self.labels)[ns]
            self._target.append(interner.index_of(target))

    # -- raw access --------------------------------------------------------

    def arrays(self) -> tuple:
        """The ``(thread, op, target)`` arrays — the checker fast path."""
        return self._thread, self._op, self._target

    @property
    def thread_names(self) -> List[str]:
        return self.threads._names

    @property
    def variable_names(self) -> List[str]:
        return self.variables._names

    @property
    def lock_names(self) -> List[str]:
        return self.locks._names

    def name_tables(self) -> tuple:
        """The live name lists in namespace order (variable, lock,
        thread, label), indexed like the target column."""
        return (self.variables._names, self.locks._names,
                self.threads._names, self.labels._names)

    def target_name(self, i: int) -> Optional[str]:
        """The target of event ``i`` as a string (None for bare markers)."""
        target = self._target[i]
        if target == NO_TARGET:
            return None
        ns = _NAMESPACE_OF_OP[self._op[i]]
        interner = (self.variables, self.locks, self.threads, self.labels)[ns]
        return interner.name_of(target)

    def nbytes(self) -> int:
        """Payload size of the event arrays in bytes."""
        return (
            self._thread.itemsize * len(self._thread)
            + self._op.itemsize * len(self._op)
            + self._target.itemsize * len(self._target)
        )

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._op)

    def event_at(self, i: int) -> Event:
        """Reconstruct event ``i`` (a fresh :class:`Event`, idx stamped)."""
        op = Op(self._op[i])
        return Event(
            self.threads.name_of(self._thread[i]),
            op,
            self.target_name(i),
            idx=i,
        )

    def __iter__(self) -> Iterator[Event]:
        thread_name = self.threads.name_of
        target_name = self.target_name
        for i, code in enumerate(self._op):
            yield Event(
                thread_name(self._thread[i]), Op(code), target_name(i), idx=i
            )

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Event, "PackedTrace"]:
        if isinstance(index, slice):
            sliced = PackedTrace(name=f"{self.name}[{index.start}:{index.stop}]")
            # Interners are shared: indices in the slice stay valid and
            # nothing is re-hashed. Slices are read-mostly; appending to
            # a slice interns into the shared namespaces, which is
            # harmless (indices only grow).
            sliced.threads = self.threads
            sliced.variables = self.variables
            sliced.locks = self.locks
            sliced.labels = self.labels
            sliced._thread = self._thread[index]
            sliced._op = self._op[index]
            sliced._target = self._target[index]
            return sliced
        return self.event_at(index)

    def __repr__(self) -> str:
        return f"PackedTrace({self.name!r}, {len(self)} events)"

    # -- conversion and entity accessors -----------------------------------

    def to_trace(self) -> Trace:
        """Materialize back into a string-event :class:`Trace`."""
        return Trace(iter(self), name=self.name)

    def counts_by_op(self) -> Dict[Op, int]:
        """Histogram of event counts per operation kind."""
        histogram = {op: 0 for op in Op}
        for code in self._op:
            histogram[Op(code)] += 1
        return histogram

    def thread_set(self) -> Set[str]:
        """All thread names (including fork/join targets)."""
        return set(self.threads._names)

    def variable_set(self) -> Set[str]:
        return set(self.variables._names)

    def lock_set(self) -> Set[str]:
        return set(self.locks._names)


class DeltaBatch:
    """One batch of packed events plus the name-table deltas it needs.

    The decoded form of one EVENTS frame, and of one spool log record:
    for each namespace (variable, lock, thread, label), the table base
    the batch was encoded against and the names it adds, then the
    ``(thread, op, target)`` columns. Column indices refer to the whole
    table of the batch's source, names of earlier batches of the same
    stream included; a :class:`PackedStore` absorbs the names into its
    own tables and maps the columns onto them.

    ``names`` are the source's complete tables (the decoder's own
    lists). Only iteration reads them, and pickling drops them, so a
    batch crosses a process boundary in O(events + new names).
    """

    __slots__ = ("tables", "threads", "ops", "targets", "_names")

    def __init__(self, tables, threads, ops, targets, names=None) -> None:
        self.tables = tables
        self.threads = threads
        self.ops = ops
        self.targets = targets
        self._names = names

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def fresh(self) -> bool:
        """Whether every table starts at 0: the first batch of a fresh
        encoder, or a batch re-sending whole tables."""
        (v, _), (l, _), (t, _), (b, _) = self.tables
        return v == l == t == b == 0

    @classmethod
    def concat(cls, batches: Sequence["DeltaBatch"]) -> "DeltaBatch":
        """One batch equal to absorbing ``batches`` in order (consecutive
        batches of one stream): each table runs from the first batch's
        base to the last name any of them adds, and the columns are
        joined."""
        if len(batches) == 1:
            return batches[0]
        tables = []
        for ns, (start, names) in enumerate(batches[0].tables):
            merged = list(names)
            for batch in batches[1:]:
                base, more = batch.tables[ns]
                merged.extend(more[start + len(merged) - base:])
            tables.append((start, merged))
        columns = [array(kind) for kind in "ibi"]
        for batch in batches:
            for column, part in zip(columns, (batch.threads, batch.ops,
                                              batch.targets)):
                column.extend(part)
        return cls(tuple(tables), *columns)

    def tail(self, start: int) -> "DeltaBatch":
        """The same name deltas with the events from ``start`` on."""
        return DeltaBatch(self.tables, self.threads[start:], self.ops[start:],
                          self.targets[start:], self._names)

    def __iter__(self) -> Iterator[Event]:
        """The events, rebuilt through the source tables (idx unset)."""
        names = self._names
        if names is None:
            raise TypeError("batch has no source tables to rebuild events from")
        thread_names = names[_NS_THREAD]
        for t, code, target in zip(self.threads, self.ops, self.targets):
            yield Event(
                thread_names[t], Op(code),
                None if target == NO_TARGET
                else names[_NAMESPACE_OF_OP[code]][target],
            )

    def __getstate__(self) -> tuple:
        return self.tables, self.threads, self.ops, self.targets

    def __setstate__(self, state: tuple) -> None:
        self.tables, self.threads, self.ops, self.targets = state
        self._names = None


#: Source marker of a store whose batches are :class:`DeltaBatch` es.
WIRE = "wire"

_NO_REMAP = [None, None, None, None]


class PackedStore(PackedTrace):
    """A streaming session's own packed store.

    The store owns its name tables: :meth:`absorb` copies a batch's new
    names into them and maps the batch's columns onto them, so nothing
    the store holds is shared with whoever built the batch. Its columns
    are a window, the batch being swept at stream positions ``base``
    onward, so the store costs O(distinct names), never O(events).

    Batch indices refer to their source's tables: the tables of one
    encoder's stream for :class:`DeltaBatch` es (a *table epoch*, which a
    fresh batch restarts), or a :class:`PackedTrace`'s interners for its
    slices. Per namespace the store counts the source names it has
    absorbed and keeps their store indices, O(new names) per batch.
    While every source index equals its store index (the store was empty
    when the source started) no map is kept and columns are used as
    they are.
    """

    __slots__ = ("base", "_source", "_known", "_remap")

    def __init__(self, name: str = "trace") -> None:
        super().__init__(name)
        self.base = 0
        self._restart(None)

    def _restart(self, source) -> None:
        self._source = source
        self._known = [0, 0, 0, 0]
        self._remap = list(_NO_REMAP)

    def _interners(self) -> tuple:
        return self.variables, self.locks, self.threads, self.labels

    def gap(self, batch: DeltaBatch) -> bool:
        """Whether ``batch`` needs source names this store never absorbed
        (its tables start past them), so its columns cannot be mapped."""
        if batch.fresh:
            return False
        if self._source != WIRE:
            return True
        for (base, _), known in zip(batch.tables, self._known):
            if base > known:
                return True
        return False

    def restarts(self, batch: DeltaBatch) -> bool:
        """Whether absorbing ``batch`` discards the absorbed source names
        (a fresh batch after names of an earlier epoch)."""
        return any(self._known) and (batch.fresh or self._source != WIRE)

    def absorb(self, batch: Union[DeltaBatch, PackedTrace]) -> tuple:
        """Take ``batch``'s new names into this store's tables; returns
        its ``(thread, op, target)`` columns in store indices.

        Raises:
            ValueError: On a name-table gap (see :meth:`gap`).
        """
        known = self._known
        if isinstance(batch, DeltaBatch):
            if self._source != WIRE or (batch.fresh and any(known)):
                self._restart(WIRE)
                known = self._known
            tables = batch.tables
            columns = batch.threads, batch.ops, batch.targets
        else:
            source = (batch.variables, batch.locks, batch.threads,
                      batch.labels)
            if self._source != source:
                self._restart(source)
                known = self._known
            tables = [(k, interner.names_from(k))
                      for k, interner in zip(known, source)]
            columns = batch.arrays()
        for ns, (base, names) in enumerate(tables):
            if base + len(names) > known[ns] or base > known[ns]:
                self._extend(ns, base, names)
        if self._remap == _NO_REMAP:
            return columns
        return self._mapped(*columns)

    def _extend(self, ns: int, base: int, names: Sequence[str]) -> None:
        known = self._known[ns]
        if base > known:
            raise ValueError(
                f"name table gap: batch base {base}, store has {known}"
            )
        index_of = self._interners()[ns].index_of
        mapped = [index_of(name) for name in names[known - base:]]
        remap = self._remap[ns]
        if remap is not None:
            remap.extend(mapped)
        elif mapped != list(range(known, known + len(mapped))):
            self._remap[ns] = list(range(known)) + mapped
        self._known[ns] = known + len(mapped)

    def _mapped(self, threads, ops, targets) -> tuple:
        maps = [range(k) if r is None else r
                for r, k in zip(self._remap, self._known)]
        if self._remap[_NS_THREAD] is not None:
            threads = array("i", map(maps[_NS_THREAD].__getitem__, threads))
        ns_of = _NAMESPACE_OF_OP
        targets = array("i", [
            target if target == NO_TARGET else maps[ns_of[op]][target]
            for op, target in zip(ops, targets)
        ])
        return threads, ops, targets

    def delta_of(self, events: Iterable[Event]) -> DeltaBatch:
        """``events`` as the batch an encoder continuing this store's
        table epoch would send: interned here, with store indices as
        source indices. A store whose indices are not its epoch's (none
        yet, a map, names from elsewhere) restarts it: the batch carries
        the whole tables from 0."""
        interners = self._interners()
        starts = self._known
        if (
            self._source != WIRE
            or self._remap != _NO_REMAP
            or starts != [len(interner) for interner in interners]
        ):
            starts = [0, 0, 0, 0]
        columns = array("i"), array("b"), array("i")
        self._intern_into(events, *columns)
        tables = tuple((start, interner.names_from(start))
                       for start, interner in zip(starts, interners))
        return DeltaBatch(tables, *columns, names=self.name_tables())

    def wire_tables(self) -> List[List[str]]:
        """The absorbed names by source index, in namespace order: the
        tables a decoder continuing this store's epoch starts from."""
        return [
            names[:k] if r is None else [names[j] for j in r]
            for names, k, r in zip(self.name_tables(), self._known,
                                   self._remap)
        ]

    def set_window(self, columns: tuple, base: int) -> None:
        """Hold ``columns`` (store indices) at stream positions ``base``
        onward: the batch being swept."""
        self._thread, self._op, self._target = columns
        self.base = base

    def event_at(self, i: int) -> Event:
        """Reconstruct the event at stream position ``i`` (in the window)."""
        event = PackedTrace.event_at(self, i - self.base)
        event.idx = i
        return event

    def __getstate__(self) -> tuple:
        # The window is transient, and a trace source is known only by
        # identity: after a restore its next slice restarts the map.
        source = self._source if self._source == WIRE else None
        return (self.name, self.threads, self.variables, self.locks,
                self.labels, self.base, source, self._known, self._remap)

    def __setstate__(self, state: tuple) -> None:
        (self.name, self.threads, self.variables, self.locks, self.labels,
         self.base, self._source, self._known, self._remap) = state
        self._thread, self._op, self._target = array("i"), array("b"), array("i")


def pack(trace: Iterable[Event], name: Optional[str] = None) -> PackedTrace:
    """Compile a trace (or any event iterable) into a :class:`PackedTrace`."""
    if isinstance(trace, PackedTrace):
        return trace
    return PackedTrace.from_trace(trace, name=name)
