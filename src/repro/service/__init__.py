"""``repro.service`` — the multi-tenant streaming analysis service.

The paper's deployment model is *online*: AeroDrome's constant-space
vector-clock state (Theorem 4) means a per-client checker never grows
with the stream, so the analysis is servable — many concurrent event
streams, analyzed as they arrive, for as long as they run. This package
turns the one-pass :mod:`repro.api` session engine into that service:

* :mod:`~repro.service.protocol` — the versioned ``repro-wire/1``
  framed wire format (length-prefixed frames; events travel as text
  lines or packed column deltas riding the
  :class:`~repro.trace.packed.Interner` tables);
* :mod:`~repro.service.session` — :class:`StreamingSession`, one live
  tenant: incremental analyses state, a monotonic violation log, a
  checkpoint handle;
* :mod:`~repro.service.router` — sharded routing: sessions hash to
  shards, shards share nothing and each runs inline on the server's
  event loop, per-shard metrics aggregate into ``stats()``;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — the
  TCP daemon behind ``repro serve`` and the client SDK behind
  ``repro submit`` (plus :class:`~repro.service.client.RemoteChecker`,
  the adapter that lets :class:`repro.instrument.LiveMonitor` police a
  program against a remote service);
* :mod:`~repro.service.recovery` — checkpoint spooling and
  restart-from-spool, riding :mod:`repro.core.snapshot`.

See ``docs/SERVICE.md`` for the wire format spec, the session
lifecycle, and the recovery semantics.
"""

from .protocol import (
    FrameError,
    FrameType,
    PayloadError,
    PROTOCOL,
    WireError,
)
from .session import StreamingSession
from .router import (
    BusyError,
    Router,
    SessionNotFound,
    SessionQuarantined,
    ShardCrashed,
)
from .recovery import RecoveryError, RecoveryManager, SessionCheckpoint
from .server import ServiceServer
from .backoff import BACKOFF_CAP, Backoff
from .client import (
    DeadlineExceeded,
    RemoteChecker,
    ServiceClient,
    ServiceError,
    ServiceUnreachable,
    SessionFenced,
    SessionRedirect,
    submit_trace,
)

__all__ = [
    "BACKOFF_CAP",
    "PROTOCOL",
    "Backoff",
    "BusyError",
    "DeadlineExceeded",
    "FrameError",
    "FrameType",
    "PayloadError",
    "RecoveryError",
    "RecoveryManager",
    "RemoteChecker",
    "Router",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceUnreachable",
    "SessionCheckpoint",
    "SessionFenced",
    "SessionNotFound",
    "SessionQuarantined",
    "SessionRedirect",
    "ShardCrashed",
    "StreamingSession",
    "WireError",
    "submit_trace",
]
