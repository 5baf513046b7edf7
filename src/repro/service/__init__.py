"""The QFE session service layer: suspendable, persistent, multiplexable sessions.

The paper's interaction loop is human-paced — response time dominates
per-iteration wall clock — so serving many interactive users from one process
means never blocking on a user. This package builds that serving story on the
resumable :class:`~repro.core.session.QFESession` state machine:

* :mod:`repro.service.checkpoint` — versioned checkpoint and transcript
  serializers (suspend a session to its inputs and choices, resume it by a
  verified replay, in the same process or another one);
* :mod:`repro.service.store` — checkpoint persistence: in-memory and on-disk
  backends with atomic writes and LRU/TTL eviction;
* :mod:`repro.service.manager` — :class:`SessionManager` multiplexing many
  live sessions over shared per-database joins and prologue memos, with
  per-session locks and service metrics;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a small HTTP
  JSON API over the manager (stdlib only) and the matching client;
* :mod:`repro.service.cli` — the ``qfe-serve`` console entry point.
"""

from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    DatabaseRef,
    capture_checkpoint,
    read_checkpoint_header,
    restore_checkpoint,
    session_transcript,
    transcript_json,
)
from repro.service.manager import SessionManager
from repro.service.store import FileSessionStore, InMemorySessionStore, SessionStore

__all__ = [
    "CHECKPOINT_VERSION",
    "DatabaseRef",
    "capture_checkpoint",
    "read_checkpoint_header",
    "restore_checkpoint",
    "session_transcript",
    "transcript_json",
    "SessionManager",
    "SessionStore",
    "InMemorySessionStore",
    "FileSessionStore",
]
