"""Checkpointed recovery: the service's durability layer.

Rides :mod:`repro.core.snapshot` — the same freeze/thaw core and the
same guarantee (Theorem 4 keeps checker state constant-size, so
checkpoints stay small no matter how long a stream runs) — but at the
*session* level: one :class:`SessionCheckpoint` freezes every analysis
a tenant is running, plus the stream position.

The :class:`RecoveryManager` spools checkpoints to a directory, one
file per session, written atomically (temp file + ``os.replace``) so a
``kill -9`` can never leave a half-written checkpoint where a good one
used to be. Every entry additionally carries a CRC32 of its frozen
payload, so damage the rename discipline cannot prevent — bit rot, a
truncating filesystem, a torn write by a non-atomic writer — is
*detected*, not deserialized: any defect raises the typed
:class:`RecoveryError`, and restart-time recovery **salvages** around
it (the bad entry is quarantined to ``*.bad`` and reported; every
healthy sibling still recovers). A corrupt spool can degrade one
session, never crash the server.

On restart the server reloads every recoverable spooled session and
re-opens it at its checkpointed position; a resuming client learns that
position from the HELLO response and re-sends only the remainder of its
stream. Because feed-in-any-chunking ≡ ``run()`` (the
``tests/test_api_feed.py`` property) and checkpoint/restore is
state-transparent, the recovered session's final report is identical to
an uninterrupted one — the service extension of the
``tests/test_snapshot.py`` equivalence property, asserted end-to-end by
CI's ``service-smoke`` and ``chaos-smoke`` jobs.

Fault site (see :mod:`repro.faults`): ``spool.write`` — ``torn``
(a partial payload reaches the final path), ``corrupt`` (one payload
byte flipped after the write), ``enospc`` (the write fails with
``ENOSPC``). ``tests/test_spool_fuzz.py`` additionally fuzzes the
on-disk bytes directly.
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
from .session import StreamingSession

#: Format tag stored in every spooled session checkpoint.
SESSION_CHECKPOINT_VERSION = 1

#: Spool file suffix.
SUFFIX = ".ckpt"

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


class RecoveryManager:
    """A checkpoint spool directory: save, load, enumerate, salvage.

    One file per session, named after the escaped session id. All
    writes are atomic replaces; a crash mid-save leaves the previous
    checkpoint intact. All reads verify the header CRC32 before
    deserializing; anything untrustworthy raises :class:`RecoveryError`
    and can be quarantined out of the restart path.
    """

    def __init__(self, spool: Union[str, Path]) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)

    def path_for(self, session_id: str) -> Path:
        return self.spool / (_UNSAFE_ID.sub(_escape_id, session_id) + SUFFIX)

    def save(self, session: StreamingSession) -> SessionCheckpoint:
        """Checkpoint ``session`` and spool it atomically.

        Raises:
            RecoveryError: If the entry cannot be written (``ENOSPC``,
                permissions, …) — the previous good entry, if any, is
                untouched.
            CheckpointError: If the session state is not picklable.
        """
        checkpoint = checkpoint_session(session)
        blob = freeze(checkpoint, what=f"spool entry {session.session_id}")
        action = fire("spool.write", key=session.session_id)
        if action is not None and action.op == "enospc":
            raise RecoveryError(
                f"cannot spool session {session.session_id!r}: "
                f"[injected] {os.strerror(errno.ENOSPC)}"
            )
        self.save_payload(session.session_id, blob)
        target = self.path_for(session.session_id)
        if action is not None and action.op == "torn":
            # A torn write: the header (intended CRC + length) lands,
            # but only a prefix of the payload reaches disk — simulates
            # a non-atomic writer / lying disk. load_payload()'s length
            # check makes the damage detectable instead of
            # deserializable.
            size = target.stat().st_size
            os.truncate(target, size - len(blob) + max(1, len(blob) // 2))
        if action is not None and action.op == "corrupt":
            _flip_byte(target, action)
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

    def load_checkpoint(self, session_id: str) -> SessionCheckpoint:
        """The spooled checkpoint for ``session_id``.

        Raises:
            RecoveryError: If missing, truncated, or failing its CRC.
            CheckpointError: If the verified payload will not thaw.
        """
        blob = self.load_payload(session_id)
        checkpoint = thaw(blob, what=f"spool entry {session_id}")
        if not isinstance(checkpoint, SessionCheckpoint):
            raise RecoveryError(
                f"{self.path_for(session_id)} does not contain a "
                "SessionCheckpoint"
            )
        return checkpoint

    def load(self, session_id: str) -> StreamingSession:
        """Restore the live session spooled under ``session_id``."""
        return restore_session(self.load_checkpoint(session_id))

    # -- raw payload transfer (cluster handoff) -----------------------------

    def save_payload(self, session_id: str, blob: bytes) -> None:
        """Spool an already-frozen checkpoint blob under ``session_id``.

        The one spool writer: :meth:`save` writes through it, and the
        cluster handoff path ships the *exact* frozen
        :class:`SessionCheckpoint` bytes a spool entry stores (see
        :meth:`load_payload`), so an entry written back here is
        indistinguishable from a local :meth:`save` — same atomic
        replace, same header CRC — and the receiving node's ordinary
        recovery path can adopt it.

        Raises:
            RecoveryError: If the entry cannot be written.
        """
        crc, length = zlib.crc32(blob), len(blob)
        raw_id = session_id.encode("utf-8")
        target = self.path_for(session_id)
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
            os.replace(tmp, target)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise RecoveryError(
                f"cannot spool session {session_id!r}: {exc}"
            ) from exc
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load_payload(self, session_id: str) -> bytes:
        """The verified frozen-checkpoint bytes spooled for
        ``session_id`` — the blob a cluster ``HANDOFF`` frame carries.

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
        (payload damage only surfaces at :meth:`load` time). No payload
        is unpickled; duplicates (two files claiming one session id)
        keep the first and salvage the rest.
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
        return self.quarantine_path(self.path_for(session_id))

    def quarantine_path(self, path: Path) -> Path:
        target = path.with_suffix(BAD_SUFFIX)
        serial = 2
        while target.exists():
            target = path.with_suffix(f"{BAD_SUFFIX}{serial}")
            serial += 1
        try:
            os.replace(path, target)
        except OSError:
            pass  # already gone — quarantine is best-effort
        return target

    def delete(self, session_id: str) -> None:
        """Drop the spool entry (a closed session needs no recovery)."""
        try:
            self.path_for(session_id).unlink()
        except OSError:
            pass


def _flip_byte(path: Path, action) -> None:
    """Flip one payload byte of a finished spool file (the ``corrupt``
    fault op) — deterministic via the action's seeded RNG."""
    try:
        data = bytearray(path.read_bytes())
    except OSError:
        return
    start = len(SPOOL_MAGIC) + _HEADER_LEN.size
    if len(data) <= start + 1:
        return
    pos = action.rng.randrange(start, len(data))
    data[pos] ^= 1 << action.rng.randrange(8)
    path.write_bytes(bytes(data))
