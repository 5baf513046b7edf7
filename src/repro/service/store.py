"""Checkpoint persistence: the :class:`SessionStore` backends.

A store maps session ids to opaque checkpoint blobs (produced by
:mod:`repro.service.checkpoint`). Two backends ship:

* :class:`InMemorySessionStore` — per-process, for tests and ephemeral
  services;
* :class:`FileSessionStore` — one file per session under a directory, written
  **atomically** (temp file + ``os.replace`` in the same directory), so a
  killed process never leaves a half-written checkpoint and a concurrent
  reader always sees either the previous or the new blob.

Both evict automatically: entries older than ``ttl_seconds`` die on any store
operation, and when ``max_sessions`` is exceeded the least-recently-*used*
entries go first (a ``get`` refreshes recency, so active sessions survive a
crowd of abandoned ones). The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from pathlib import Path
from typing import Callable

from repro.exceptions import CheckpointError, SessionNotFound

__all__ = ["SessionStore", "InMemorySessionStore", "FileSessionStore"]

#: Session ids must be fit for filenames: no separators, no traversal.
_SESSION_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")

#: Suffix of on-disk checkpoint files.
CHECKPOINT_SUFFIX = ".qfec"


def _check_session_id(session_id: str) -> str:
    if not _SESSION_ID_PATTERN.match(session_id):
        raise CheckpointError(f"invalid session id {session_id!r}")
    return session_id


class SessionStore(ABC):
    """Persist and recall session checkpoints by id."""

    @abstractmethod
    def put(self, session_id: str, blob: bytes) -> None:
        """Store (overwrite) the checkpoint for *session_id*."""

    @abstractmethod
    def get(self, session_id: str) -> bytes:
        """The stored checkpoint; raises :class:`SessionNotFound` when absent."""

    @abstractmethod
    def delete(self, session_id: str) -> bool:
        """Drop the checkpoint; returns whether one existed."""

    @abstractmethod
    def ids(self) -> list[str]:
        """All stored (non-expired) session ids."""

    def __contains__(self, session_id: str) -> bool:
        return session_id in self.ids()

    def __len__(self) -> int:
        return len(self.ids())

    def close(self) -> None:
        """Release store resources (no-op by default)."""


class InMemorySessionStore(SessionStore):
    """Checkpoints in an LRU-ordered dict with optional TTL expiry."""

    def __init__(
        self,
        *,
        max_sessions: int | None = None,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        # The manager checkpoints concurrent sessions from their own threads.
        self._lock = threading.Lock()
        #: id -> (blob, last-used timestamp); order == recency (oldest first).
        self._entries: "OrderedDict[str, tuple[bytes, float]]" = OrderedDict()

    def _expire_locked(self) -> None:
        if self.ttl_seconds is None:
            return
        deadline = self._clock() - self.ttl_seconds
        stale = [sid for sid, (_, used) in self._entries.items() if used <= deadline]
        for sid in stale:
            del self._entries[sid]

    def put(self, session_id: str, blob: bytes) -> None:
        _check_session_id(session_id)
        with self._lock:
            self._expire_locked()
            self._entries[session_id] = (bytes(blob), self._clock())
            self._entries.move_to_end(session_id)
            if self.max_sessions is not None:
                while len(self._entries) > self.max_sessions:
                    self._entries.popitem(last=False)

    def get(self, session_id: str) -> bytes:
        _check_session_id(session_id)
        with self._lock:
            self._expire_locked()
            entry = self._entries.get(session_id)
            if entry is None:
                raise SessionNotFound(f"no checkpoint stored for session {session_id!r}")
            blob, _ = entry
            self._entries[session_id] = (blob, self._clock())
            self._entries.move_to_end(session_id)
            return blob

    def delete(self, session_id: str) -> bool:
        _check_session_id(session_id)
        with self._lock:
            return self._entries.pop(session_id, None) is not None

    def ids(self) -> list[str]:
        with self._lock:
            self._expire_locked()
            return list(self._entries)


class FileSessionStore(SessionStore):
    """One checkpoint file per session under *directory*, written atomically.

    Recency for LRU eviction and TTL expiry rides on file modification
    times: ``put`` rewrites the file, ``get`` touches it. The directory is
    the unit of persistence — a service restarted with the same directory
    sees every checkpoint the killed process had durably written.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        max_sessions: int | None = None,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self._clock = clock

    def _path(self, session_id: str) -> Path:
        return self.directory / f"{_check_session_id(session_id)}{CHECKPOINT_SUFFIX}"

    def _entries(self) -> list[tuple[int, str, Path]]:
        """Checkpoints ordered least-recently-used first.

        Recency is ``st_mtime_ns``: the float ``st_mtime`` quantizes to
        ~100 ns at current epochs (and to whole seconds on coarse
        filesystems), so checkpoints written close together tied and the sort
        fell through to ``Path`` comparison — which could evict the *newest*
        session. Exact ties (same nanosecond) break on the file name, which
        is stable rather than recency-correct but at least deterministic.
        """
        entries = []
        for path in self.directory.glob(f"*{CHECKPOINT_SUFFIX}"):
            try:
                entries.append((path.stat().st_mtime_ns, path.name, path))
            except OSError:  # pragma: no cover - raced with a delete
                continue
        entries.sort(key=lambda entry: entry[:2])
        return entries

    def _expire(self) -> None:
        if self.ttl_seconds is None and self.max_sessions is None:
            return  # unbounded: nothing can expire, so never list the directory
        entries = self._entries()
        if self.ttl_seconds is not None:
            deadline_ns = int((self._clock() - self.ttl_seconds) * 1_000_000_000)
            for mtime_ns, _, path in entries:
                if mtime_ns <= deadline_ns:
                    path.unlink(missing_ok=True)
            entries = [entry for entry in entries if entry[0] > deadline_ns]
        if self.max_sessions is not None:
            overflow = len(entries) - self.max_sessions
            if overflow > 0:  # a negative slice bound would evict from the front
                for _, _, path in entries[:overflow]:
                    path.unlink(missing_ok=True)

    def put(self, session_id: str, blob: bytes) -> None:
        path = self._path(session_id)
        # Atomic replace: the temp file lives in the same directory so the
        # rename never crosses filesystems; a crash leaves either the old
        # checkpoint or the new one, never a torn write.
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{session_id}.", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._expire()

    def get(self, session_id: str) -> bytes:
        self._expire()
        path = self._path(session_id)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            raise SessionNotFound(
                f"no checkpoint stored for session {session_id!r}"
            ) from None
        os.utime(path)  # refresh recency for LRU eviction
        return blob

    def __contains__(self, session_id: str) -> bool:
        self._expire()
        return self._path(session_id).exists()

    def delete(self, session_id: str) -> bool:
        path = self._path(session_id)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    def ids(self) -> list[str]:
        self._expire()
        return sorted(path.name[: -len(CHECKPOINT_SUFFIX)] for path in
                      self.directory.glob(f"*{CHECKPOINT_SUFFIX}"))
