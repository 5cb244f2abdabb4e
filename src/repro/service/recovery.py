"""Checkpointed recovery: the service's durability layer.

Rides :mod:`repro.core.snapshot` — the same freeze/thaw core — but at
the *session* level: one :class:`SessionCheckpoint` freezes every
analysis a tenant is running, plus the stream position.

The :class:`RecoveryManager` keeps two files per session in a spool
directory:

* ``<id>.ckpt`` — an ``RSPOOL2`` **snapshot**, written atomically
  (temp file + ``os.replace``) so a ``kill -9`` can never leave a
  half-written snapshot where a good one used to be;
* ``<id>.log`` — an append-only **log** of the batches fed since that
  snapshot: one record per checkpoint interval, the positioned
  ``DELTA_EVENTS_POS`` payload of that interval's batches joined into
  one :class:`~repro.trace.packed.DeltaBatch` (table bases, new names
  and columns, as the session absorbed them) behind a length and a
  CRC32. The log header names the session and the snapshot it extends
  (position and payload CRC32), so a log left behind by an older
  snapshot is never replayed onto a newer one.

A checkpoint appends to the log, and writes a full snapshot (resetting
the log) only when the log would grow past the snapshot's bytes. The
frozen state is not constant-size — the race detector's findings list
grows with the stream — so rewriting it every interval would write
quadratic bytes; this geometric schedule writes amortized O(1) bytes
per event, and replaying a log never costs more than the snapshot it
extends. Restoring is thaw, then each good record decoded and fed
exactly as live traffic is: a :class:`~repro.service.protocol.DeltaDecoder`
continuing the name tables the snapshot holds, then
:meth:`StreamingSession.feed`. A log segment belongs to one table epoch
(a batch restarting the epoch makes the next checkpoint a snapshot). A
torn or corrupt tail is cut off, which loses only events past the last
good record.

Every snapshot carries a CRC32 of its frozen payload and every record
its own, so damage the rename discipline cannot prevent — bit rot, a
truncating filesystem, a torn write by a non-atomic writer — is
*detected*, not deserialized: a bad snapshot, or a CRC-valid record
that will not replay, raises the typed :class:`RecoveryError`, and
restart-time recovery **salvages** around it (the bad entry is
quarantined to ``*.bad`` and reported; every healthy sibling still
recovers). A corrupt spool can degrade one session, never crash the
server.

On restart the server reloads every recoverable spooled session and
re-opens it at its recovered position; a resuming client learns that
position from the HELLO response and re-sends only the remainder of its
stream. Because feed-in-any-chunking ≡ ``run()`` (the
``tests/test_api_feed.py`` property) and checkpoint/restore is
state-transparent, the recovered session's final report is identical to
an uninterrupted one — the service extension of the
``tests/test_snapshot.py`` equivalence property, asserted end-to-end by
CI's ``service-smoke`` and ``chaos-smoke`` jobs.

Fault site (see :mod:`repro.faults`): ``spool.write``, fired by every
:meth:`RecoveryManager.save` — ``torn`` (a partial snapshot payload or
log record reaches disk), ``corrupt`` (one bit of it flipped after the
write), ``enospc`` (the save fails with ``ENOSPC``).
``tests/test_spool_fuzz.py`` additionally fuzzes the on-disk bytes of
both files directly.
"""

from __future__ import annotations

import errno
import os
import re
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

from ..core.snapshot import CheckpointError, freeze, thaw
from ..faults.injector import fire
from ..trace.packed import DeltaBatch
from .protocol import DeltaDecoder, decode_events_ex, encode_batch
from .session import StreamingSession

#: Format tag stored in every spooled session checkpoint.
SESSION_CHECKPOINT_VERSION = 1

#: Spool file suffix.
SUFFIX = ".ckpt"

#: Suffix of a session's log (the records appended since its snapshot).
LOG_SUFFIX = ".log"

#: Suffix a quarantined (corrupt, unrecoverable) entry is renamed to.
BAD_SUFFIX = ".bad"

#: Spool file magic (v2: payload CRC32). The file layout is
#: ``magic | u32 id-length | id utf-8 | u32 payload-crc32 |
#: u64 payload-length | frozen SessionCheckpoint`` — the header lets
#: :meth:`RecoveryManager.session_ids` enumerate the spool without
#: unpickling any (possibly large) session payloads, and the CRC +
#: length let :meth:`RecoveryManager.load` reject truncation and bit
#: flips before anything is deserialized.
SPOOL_MAGIC = b"RSPOOL2\n"

_HEADER_LEN = struct.Struct("<I")
_PAYLOAD_META = struct.Struct("<IQ")  # crc32, length

#: Log file magic (v2: records continue the session's table epoch). The layout is ``magic | u32 id-length | id utf-8 |
#: u64 snapshot position | u32 snapshot payload-crc32``, then records of
#: ``u32 record-length | u32 record-crc32 | record``, each record one
#: positioned delta EVENTS payload. A log with another magic (an
#: ``RSPLOG1`` log, whose records started fresh tables at each
#: snapshot) never matches a header and is cut, unread.
LOG_MAGIC = b"RSPLOG2\n"

_LOG_ANCHOR = struct.Struct("<QI")  # snapshot position, payload crc32
_RECORD_META = struct.Struct("<II")  # length, crc32

#: Session-id characters a spool file name does not keep verbatim;
#: each is %-escaped (``%`` itself included), so distinct ids never
#: share a file and ids made only of ``[A-Za-z0-9_.-]`` keep their name.
_UNSAFE_ID = re.compile(r"[^A-Za-z0-9_.-]")


def _escape_id(match: re.Match) -> str:
    raw = match.group().encode("utf-8", "surrogatepass")
    return "".join(f"%{byte:02X}" for byte in raw)


class RecoveryError(CheckpointError):
    """A spool entry could not be written, read, or trusted.

    Subtypes :class:`~repro.core.snapshot.CheckpointError` so existing
    best-effort recovery paths (skip and continue) keep working; new
    code should catch this type for spool-specific failures.
    """


@dataclass(frozen=True)
class SessionCheckpoint:
    """A frozen, self-describing streaming-session state.

    Attributes:
        session_id: The session this checkpoint belongs to.
        name: Trace name (for listings; the payload carries it too).
        analyses: Analysis names, for listings.
        position: Events ingested when the checkpoint was taken — the
            offset a resuming client restarts its stream from.
        payload: The frozen :class:`StreamingSession` (opaque).
        version: :data:`SESSION_CHECKPOINT_VERSION`.
    """

    session_id: str
    name: str
    analyses: List[str]
    position: int
    payload: bytes
    version: int = SESSION_CHECKPOINT_VERSION

    def __len__(self) -> int:
        """Payload size in bytes (the checkpoint-size metric)."""
        return len(self.payload)


class LogAppend:
    """A checkpoint taken by appending one record to the session's log.

    Attributes:
        session_id: The session the record belongs to.
        position: Events covered once the record is replayed.
        size: Bytes appended (0 when no events arrived since the last
            checkpoint).
    """

    __slots__ = ("session_id", "position", "size")

    def __init__(self, session_id: str, position: int, size: int) -> None:
        self.session_id = session_id
        self.position = position
        self.size = size

    def __len__(self) -> int:
        return self.size


def checkpoint_session(session: StreamingSession) -> SessionCheckpoint:
    """Freeze a live session into a :class:`SessionCheckpoint`.

    The session keeps running; the checkpoint is independent state.
    """
    return SessionCheckpoint(
        session_id=session.session_id,
        name=session.session.name,
        analyses=list(session.analysis_names),
        position=session.position,
        payload=session.to_bytes(),
    )


def restore_session(checkpoint: SessionCheckpoint) -> StreamingSession:
    """Thaw a session from a checkpoint (the inverse of
    :func:`checkpoint_session`).

    Raises:
        CheckpointError: On version mismatch or a corrupt payload.
    """
    if checkpoint.version != SESSION_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"session checkpoint version {checkpoint.version} != "
            f"supported {SESSION_CHECKPOINT_VERSION}"
        )
    return StreamingSession.from_bytes(checkpoint.payload)


class _LogWriter:
    """The append side of one session's log: the header binding it to
    its snapshot and the bytes it may grow to."""

    __slots__ = ("header", "limit", "size")

    def __init__(self, header: bytes, limit: int) -> None:
        self.header = header
        self.limit = limit
        self.size = 0


def _log_header(session_id: str, position: int, payload_crc: int) -> bytes:
    raw_id = session_id.encode("utf-8")
    return (
        LOG_MAGIC
        + _HEADER_LEN.pack(len(raw_id))
        + raw_id
        + _LOG_ANCHOR.pack(position, payload_crc)
    )


class RecoveryManager:
    """A checkpoint spool directory: save, load, enumerate, salvage.

    One snapshot and at most one log per session, named after the
    escaped session id. Snapshots are atomic replaces and log records
    are appends, so a crash mid-save leaves the previous checkpoint
    intact. All reads verify CRC32s before deserializing; anything
    untrustworthy raises :class:`RecoveryError` and can be quarantined
    out of the restart path.

    Log writers are kept per session id, and only the shard worker that
    owns a session saves, loads or drops it, so each writer has one
    user and nothing here is locked (in-loop shards share the dict, but
    never a key).
    """

    def __init__(self, spool: Union[str, Path]) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self._logs: Dict[str, _LogWriter] = {}

    def path_for(self, session_id: str) -> Path:
        return self.spool / (_UNSAFE_ID.sub(_escape_id, session_id) + SUFFIX)

    def log_path_for(self, session_id: str) -> Path:
        return self.path_for(session_id).with_suffix(LOG_SUFFIX)

    def save(
        self, session: StreamingSession
    ) -> Union[SessionCheckpoint, LogAppend]:
        """Checkpoint ``session``: append the batches fed since the last
        save to its log, or write a full snapshot when the log would
        outgrow the snapshot (or there is no log to extend yet).

        Raises:
            RecoveryError: If the checkpoint cannot be written
                (``ENOSPC``, permissions, …) — everything already on
                disk still loads; the next save writes a snapshot.
            CheckpointError: If the session state is not picklable.
        """
        session_id = session.session_id
        action = fire("spool.write", key=session_id)
        if action is not None and action.op == "enospc":
            raise RecoveryError(
                f"cannot spool session {session_id!r}: "
                f"[injected] {os.strerror(errno.ENOSPC)}"
            )
        batches = session.drain_journal()
        # Re-registered only once the save succeeds: a failed one leaves
        # no writer, so the next save snapshots what it lost.
        log = self._logs.pop(session_id, None)
        if (
            log is not None
            and batches is not None
            and not session.quarantined
            and not session.out_of_sync
        ):
            if not batches:
                self._logs[session_id] = log
                return LogAppend(session_id, session.position, 0)
            record = encode_batch(
                DeltaBatch.concat([batch for _, batch in batches]),
                base=batches[0][0],
            )
            data = _RECORD_META.pack(len(record), zlib.crc32(record)) + record
            if not log.size:
                data = log.header + data
            if log.size + len(data) <= log.limit:
                self._append(session_id, log, data, action)
                self._logs[session_id] = log
                return LogAppend(session_id, session.position, len(data))
        return self._snapshot(session, action)

    def _append(
        self, session_id: str, log: _LogWriter, data: bytes, action
    ) -> None:
        written = data
        if action is not None and action.op == "torn":
            # Only a prefix of the record reaches disk; load() cuts the
            # log before it.
            written = data[: len(data) - max(1, len(data) // 2)]
        path = self.log_path_for(session_id)
        # Created owner-only, like the snapshot's mkstemp file.
        flags = os.O_WRONLY | os.O_CREAT
        flags |= os.O_APPEND if log.size else os.O_TRUNC
        try:
            with os.fdopen(os.open(path, flags, 0o600), "wb") as handle:
                handle.write(written)
        except OSError as exc:
            raise RecoveryError(
                f"cannot append to the log of session {session_id!r}: {exc}"
            ) from exc
        if action is not None and action.op == "corrupt":
            _flip_byte(path, action, start=log.size)
        log.size += len(data)

    def _snapshot(
        self, session: StreamingSession, action
    ) -> SessionCheckpoint:
        checkpoint = checkpoint_session(session)
        blob = freeze(checkpoint, what=f"spool entry {session.session_id}")
        size = self.save_payload(session.session_id, blob)
        target = self.path_for(session.session_id)
        if action is not None and action.op == "torn":
            # A torn write: the header (intended CRC + length) lands,
            # but only a prefix of the payload reaches disk — simulates
            # a non-atomic writer / lying disk. load_payload()'s length
            # check makes the damage detectable instead of
            # deserializable.
            os.truncate(target, size - len(blob) + max(1, len(blob) // 2))
        if action is not None and action.op == "corrupt":
            _flip_byte(
                target, action, start=len(SPOOL_MAGIC) + _HEADER_LEN.size
            )
        header = _log_header(
            session.session_id, checkpoint.position, zlib.crc32(blob)
        )
        self._logs[session.session_id] = _LogWriter(header, size)
        return checkpoint

    @staticmethod
    def _read_header(handle) -> Tuple[str, int, int]:
        """``(session_id, payload_crc, payload_length)`` from the header.

        Raises:
            RecoveryError: On bad magic or a truncated/corrupt header.
        """
        magic = handle.read(len(SPOOL_MAGIC))
        if magic != SPOOL_MAGIC:
            raise RecoveryError("not a spool file (bad magic)")
        length_raw = handle.read(_HEADER_LEN.size)
        if len(length_raw) < _HEADER_LEN.size:
            raise RecoveryError("truncated spool header")
        (length,) = _HEADER_LEN.unpack(length_raw)
        raw_id = handle.read(length)
        if len(raw_id) < length:
            raise RecoveryError("truncated spool header")
        meta_raw = handle.read(_PAYLOAD_META.size)
        if len(meta_raw) < _PAYLOAD_META.size:
            raise RecoveryError("truncated spool header")
        crc, payload_length = _PAYLOAD_META.unpack(meta_raw)
        try:
            return raw_id.decode("utf-8"), crc, payload_length
        except UnicodeDecodeError as exc:
            raise RecoveryError(f"corrupt spool header: {exc}") from exc

    def load(self, session_id: str) -> StreamingSession:
        """Restore the live session spooled under ``session_id``: thaw
        its snapshot, then replay its log's good records.

        A log that extends a different snapshot is deleted unread; a
        torn or corrupt tail is cut off at the last good record.

        Raises:
            RecoveryError: If the snapshot is missing, truncated, or
                failing its CRC, or a CRC-valid log record will not
                replay.
            CheckpointError: If the verified snapshot will not thaw.
        """
        self._logs.pop(session_id, None)
        blob = self.load_payload(session_id)
        checkpoint = thaw(blob, what=f"spool entry {session_id}")
        if not isinstance(checkpoint, SessionCheckpoint):
            raise RecoveryError(
                f"{self.path_for(session_id)} does not contain a "
                "SessionCheckpoint"
            )
        session = restore_session(checkpoint)
        header = _log_header(session_id, checkpoint.position, zlib.crc32(blob))
        self._replay(session, header)
        return session

    def _replay(self, session: StreamingSession, header: bytes) -> None:
        path = self.log_path_for(session.session_id)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise RecoveryError(f"cannot read {path.name}: {exc}") from exc
        if not data.startswith(header):
            # Left by an older snapshot (a crash between a snapshot's
            # rename and the log reset), or a damaged header: it extends
            # nothing this snapshot holds.
            _unlink(path)
            return
        decoder = DeltaDecoder(session.store.wire_tables())
        offset = len(header)
        while len(data) - offset >= _RECORD_META.size:
            length, crc = _RECORD_META.unpack_from(data, offset)
            start = offset + _RECORD_META.size
            record = data[start : start + length]
            if len(record) < length or zlib.crc32(record) != crc:
                break
            try:
                batch, base = decode_events_ex(record, decoder)
                session.feed(batch, base=base)
            except Exception as exc:
                raise RecoveryError(
                    f"{path.name}: record at byte {offset} does not "
                    f"replay: {type(exc).__name__}: {exc}"
                ) from exc
            if session.out_of_sync:
                raise RecoveryError(
                    f"{path.name}: record at byte {offset} starts at "
                    f"{base}, past position {session.position}"
                )
            offset = start + length
        if offset < len(data):
            try:
                os.truncate(path, offset)  # cut the torn or corrupt tail
            except OSError:
                pass  # the session's next save resets the log anyway

    # -- raw payload transfer (cluster handoff) -----------------------------

    def save_payload(self, session_id: str, blob: bytes) -> int:
        """Spool an already-frozen checkpoint blob under ``session_id``
        as its snapshot; returns the bytes written.

        The one snapshot writer: :meth:`save` writes through it, and the
        cluster handoff path ships the *exact* frozen
        :class:`SessionCheckpoint` bytes a snapshot stores (see
        :meth:`load_payload`), so an entry written back here is
        indistinguishable from a local :meth:`save` — same atomic
        replace, same header CRC — and the receiving node's ordinary
        recovery path can adopt it. Any log of an older snapshot is
        deleted after the replace.

        Raises:
            RecoveryError: If the entry cannot be written.
        """
        crc, length = zlib.crc32(blob), len(blob)
        raw_id = session_id.encode("utf-8")
        target = self.path_for(session_id)
        self._logs.pop(session_id, None)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.spool), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(SPOOL_MAGIC)
                handle.write(_HEADER_LEN.pack(len(raw_id)))
                handle.write(raw_id)
                handle.write(_PAYLOAD_META.pack(crc, length))
                handle.write(blob)
                size = handle.tell()
            os.replace(tmp, target)
        except OSError as exc:
            _unlink(Path(tmp))
            raise RecoveryError(
                f"cannot spool session {session_id!r}: {exc}"
            ) from exc
        except BaseException:
            _unlink(Path(tmp))
            raise
        _unlink(self.log_path_for(session_id))
        return size

    def load_payload(self, session_id: str) -> bytes:
        """The verified frozen-checkpoint bytes of ``session_id``'s
        snapshot — the blob a cluster ``HANDOFF`` frame carries.

        Raises:
            RecoveryError: If missing, truncated, failing its CRC, or
                spooled for a different session id.
        """
        path = self.path_for(session_id)
        try:
            with open(path, "rb") as handle:
                owner, crc, payload_length = self._read_header(handle)
                blob = handle.read()
        except OSError as exc:
            raise RecoveryError(
                f"no spooled checkpoint for session {session_id!r}: {exc}"
            ) from exc
        if owner != session_id:
            raise RecoveryError(
                f"spool entry {path.name} belongs to session {owner!r}, "
                f"not {session_id!r}"
            )
        if len(blob) != payload_length:
            raise RecoveryError(
                f"spool entry {path.name}: payload is {len(blob)} bytes, "
                f"header claims {payload_length} (truncated or torn write)"
            )
        if zlib.crc32(blob) != crc:
            raise RecoveryError(
                f"spool entry {path.name}: payload CRC mismatch (corrupt)"
            )
        return blob

    def scan(self) -> Tuple[List[str], List[Tuple[Path, str]]]:
        """``(session_ids, salvage)`` — a header-only spool sweep.

        ``salvage`` lists entries whose *header* is already untrusted
        (payload and log damage only surface at :meth:`load` time). No
        payload is unpickled; duplicates (two files claiming one session
        id) keep the first and salvage the rest. Only snapshots are
        listed: a log is part of its snapshot's entry.
        """
        ids: List[str] = []
        salvage: List[Tuple[Path, str]] = []
        seen: Dict[str, Path] = {}
        for path in sorted(self.spool.glob(f"*{SUFFIX}")):
            try:
                with open(path, "rb") as handle:
                    session_id, _, _ = self._read_header(handle)
            except (RecoveryError, OSError) as exc:
                salvage.append((path, str(exc)))
                continue
            if session_id in seen:
                salvage.append(
                    (path, f"duplicate spool entry for {session_id!r} "
                           f"(keeping {seen[session_id].name})")
                )
                continue
            seen[session_id] = path
            ids.append(session_id)
        return ids, salvage

    def session_ids(self) -> List[str]:
        """Spooled session ids, header-only (no payload is unpickled).

        Corrupt or duplicate entries are silently skipped here; use
        :meth:`scan` when the salvage report matters.
        """
        return self.scan()[0]

    def load_all(self) -> Dict[str, StreamingSession]:
        """Restore every recoverable spooled session (corrupt files
        are skipped, not fatal — recovery is best-effort per session)."""
        sessions: Dict[str, StreamingSession] = {}
        for session_id in self.session_ids():
            try:
                sessions[session_id] = self.load(session_id)
            except CheckpointError:
                continue
        return sessions

    def quarantine(self, session_id: str) -> Path:
        """Move a corrupt entry aside as ``*.bad`` so restarts stop
        tripping over it; returns the quarantine path."""
        self._logs.pop(session_id, None)
        return self.quarantine_path(self.path_for(session_id))

    def quarantine_path(self, path: Path) -> Path:
        """Move a snapshot file, and its log if any, aside as ``*.bad``;
        returns the snapshot's quarantine path."""
        log = path.with_suffix(LOG_SUFFIX)
        if log.exists():
            _move_aside(log, log.with_name(log.name + BAD_SUFFIX))
        return _move_aside(path, path.with_suffix(BAD_SUFFIX))

    def delete(self, session_id: str) -> None:
        """Drop the spool entry (a closed session needs no recovery).
        The log goes first, so a crash in between never leaves a log
        without its snapshot."""
        self._logs.pop(session_id, None)
        _unlink(self.log_path_for(session_id))
        _unlink(self.path_for(session_id))


def _move_aside(path: Path, target: Path) -> Path:
    serial = 2
    free = target
    while free.exists():
        free = target.with_name(f"{target.name}{serial}")
        serial += 1
    try:
        os.replace(path, free)
    except OSError:
        pass  # already gone — quarantine is best-effort
    return free


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _flip_byte(path: Path, action, start: int) -> None:
    """Flip one bit at or after byte ``start`` of a finished spool file
    (the ``corrupt`` fault op) — deterministic via the action's seeded
    RNG."""
    try:
        data = bytearray(path.read_bytes())
    except OSError:
        return
    if len(data) <= start + 1:
        return
    pos = action.rng.randrange(start, len(data))
    data[pos] ^= 1 << action.rng.randrange(8)
    path.write_bytes(bytes(data))
