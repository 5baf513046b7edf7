"""Unit tests for the session-checkpoint stores (in-memory and on-disk)."""

import os
import select
import signal
import subprocess
import sys

import pytest

import repro
from repro.core import QFEConfig, QFESession, WorstCaseSelector
from repro.exceptions import CheckpointError, SessionNotFound
from repro.service.checkpoint import restore_checkpoint, session_transcript, transcript_json
from repro.service.manager import workload_session_inputs
from repro.service.store import CHECKPOINT_SUFFIX, FileSessionStore, InMemorySessionStore


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemorySessionStore()
    return FileSessionStore(tmp_path / "checkpoints")


class TestBasicOperations:
    def test_put_get_roundtrip(self, store):
        store.put("s1", b"alpha")
        assert store.get("s1") == b"alpha"
        store.put("s1", b"beta")  # overwrite
        assert store.get("s1") == b"beta"

    def test_missing_session_raises(self, store):
        with pytest.raises(SessionNotFound):
            store.get("nope")

    def test_delete(self, store):
        store.put("s1", b"alpha")
        assert store.delete("s1") is True
        assert store.delete("s1") is False
        with pytest.raises(SessionNotFound):
            store.get("s1")

    def test_ids_and_len(self, store):
        store.put("b", b"2")
        store.put("a", b"1")
        assert sorted(store.ids()) == ["a", "b"]
        assert len(store) == 2
        assert "a" in store
        assert "zz" not in store

    def test_invalid_session_ids_rejected(self, store):
        for bad in ("", "../etc/passwd", "a/b", ".hidden", "x" * 200):
            with pytest.raises(CheckpointError):
                store.put(bad, b"blob")


class TestInMemoryEviction:
    def test_lru_eviction_prefers_cold_sessions(self):
        clock = FakeClock()
        store = InMemorySessionStore(max_sessions=2, clock=clock)
        store.put("old", b"1")
        clock.advance(1)
        store.put("warm", b"2")
        clock.advance(1)
        store.get("old")  # refresh recency: "old" is now the warmest
        clock.advance(1)
        store.put("new", b"3")  # evicts "warm", the least recently used
        assert sorted(store.ids()) == ["new", "old"]

    def test_ttl_expiry(self):
        clock = FakeClock()
        store = InMemorySessionStore(ttl_seconds=10.0, clock=clock)
        store.put("s1", b"1")
        clock.advance(5)
        assert store.get("s1") == b"1"  # refreshes the TTL too
        clock.advance(9)
        assert store.ids() == ["s1"]  # 9 < 10 since last use
        clock.advance(2)
        assert store.ids() == []
        with pytest.raises(SessionNotFound):
            store.get("s1")

    def test_validation(self):
        with pytest.raises(ValueError):
            InMemorySessionStore(max_sessions=0)
        with pytest.raises(ValueError):
            InMemorySessionStore(ttl_seconds=0)


class TestFileStore:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.put("s1", b"x" * 4096)
        store.put("s1", b"y" * 4096)
        names = [p.name for p in tmp_path.iterdir()]
        assert names == [f"s1{CHECKPOINT_SUFFIX}"]

    def test_survives_reopen(self, tmp_path):
        FileSessionStore(tmp_path).put("s1", b"durable")
        # A second store instance over the same directory (a restarted
        # process) sees the checkpoint.
        assert FileSessionStore(tmp_path).get("s1") == b"durable"

    def test_under_capacity_store_never_evicts(self, tmp_path):
        # Regression: a negative overflow slice (entries[:-1]) used to delete
        # checkpoints from the *front* while the store was UNDER capacity.
        store = FileSessionStore(tmp_path, max_sessions=4)
        store.put("a", b"1")
        store.put("b", b"2")
        store.put("c", b"3")
        assert sorted(store.ids()) == ["a", "b", "c"]
        assert store.get("a") == b"1"  # get() runs the expiry sweep too
        assert sorted(store.ids()) == ["a", "b", "c"]

    def test_an_unbounded_store_never_scans_its_directory(self, tmp_path, monkeypatch):
        def scan(self):
            raise AssertionError("an unbounded store listed its checkpoints")

        monkeypatch.setattr(FileSessionStore, "_entries", scan)
        store = FileSessionStore(tmp_path)  # neither max_sessions nor ttl_seconds
        store.put("a", b"1")
        store.put("b", b"2")
        assert store.get("a") == b"1"
        assert store.ids() == ["a", "b"]
        # A bound makes the expiry sweep list the directory again.
        with pytest.raises(AssertionError, match="listed its checkpoints"):
            FileSessionStore(tmp_path, max_sessions=4).put("c", b"3")

    def test_lru_eviction_by_mtime(self, tmp_path):
        store = FileSessionStore(tmp_path, max_sessions=2)
        store.put("old", b"1")
        store.put("warm", b"2")
        # Backdate "warm" so "old" is the most recently used of the two.
        warm = tmp_path / f"warm{CHECKPOINT_SUFFIX}"
        past = os.stat(warm).st_mtime - 100
        os.utime(warm, (past, past))
        store.put("new", b"3")
        assert sorted(store.ids()) == ["new", "old"]

    def test_ttl_expiry_by_mtime(self, tmp_path):
        clock = FakeClock(now=1_000_000.0)
        store = FileSessionStore(tmp_path, ttl_seconds=60.0, clock=clock)
        store.put("s1", b"1")
        stale = tmp_path / f"s1{CHECKPOINT_SUFFIX}"
        os.utime(stale, (clock.now - 120, clock.now - 120))
        assert store.ids() == []
        assert not stale.exists()

    def test_membership_reads_one_file_and_honours_the_ttl(self, tmp_path, monkeypatch):
        clock = FakeClock(now=1_000_000.0)
        store = FileSessionStore(tmp_path, ttl_seconds=60.0, clock=clock)
        store.put("s1", b"1")
        monkeypatch.setattr(FileSessionStore, "ids", lambda self: pytest.fail("listed ids"))
        assert "s1" in store
        assert "s2" not in store
        stale = tmp_path / f"s1{CHECKPOINT_SUFFIX}"
        os.utime(stale, (clock.now - 120, clock.now - 120))
        assert "s1" not in store

    def test_get_refreshes_recency(self, tmp_path):
        store = FileSessionStore(tmp_path, max_sessions=2)
        store.put("a", b"1")
        store.put("b", b"2")
        # Backdate both, then read "a": its mtime refreshes to now.
        for name in ("a", "b"):
            path = tmp_path / f"{name}{CHECKPOINT_SUFFIX}"
            past = os.stat(path).st_mtime - 100
            os.utime(path, (past, past))
        store.get("a")
        store.put("c", b"3")  # evicts "b"
        assert sorted(store.ids()) == ["a", "c"]

    def test_directory_is_created(self, tmp_path):
        nested = tmp_path / "deep" / "nested"
        store = FileSessionStore(nested)
        store.put("s1", b"1")
        assert nested.is_dir()

    def test_eviction_orders_by_mtime_ns_not_float_seconds(self, tmp_path):
        # Regression: LRU ordering used the float ``st_mtime``, which
        # quantizes nanosecond timestamps (~256 ns spacing at current
        # epochs, whole seconds on coarse filesystems). Checkpoints written
        # close together tied, the sort fell through to path comparison, and
        # the *newest* session could be evicted. Freeze both mtimes to
        # nanosecond values that collapse onto the same float second but
        # differ in ``st_mtime_ns``; the lexically-smaller name is the newer
        # session, so the old float ordering evicted exactly the wrong file.
        store = FileSessionStore(tmp_path, max_sessions=2)
        store.put("a-newest", b"new")
        store.put("b-older", b"old")
        base_ns = (1_700_000_000_000_000_000 // 4096) * 4096
        newer_ns = base_ns + 100
        assert base_ns / 1e9 == newer_ns / 1e9  # the float tie being fixed
        os.utime(tmp_path / f"b-older{CHECKPOINT_SUFFIX}", ns=(base_ns, base_ns))
        os.utime(tmp_path / f"a-newest{CHECKPOINT_SUFFIX}", ns=(newer_ns, newer_ns))
        assert os.stat(tmp_path / f"a-newest{CHECKPOINT_SUFFIX}").st_mtime_ns == newer_ns
        store.put("c", b"3")  # evicts the ns-oldest: "b-older"
        assert sorted(store.ids()) == ["a-newest", "c"]

    def test_exact_ns_ties_break_on_name_deterministically(self, tmp_path):
        # Same nanosecond on both files: no recency signal exists at all, so
        # eviction falls back to the stable name order instead of racing.
        store = FileSessionStore(tmp_path, max_sessions=2)
        store.put("b", b"2")
        store.put("a", b"1")
        tied_ns = 1_700_000_000_000_000_000
        for name in ("a", "b"):
            os.utime(tmp_path / f"{name}{CHECKPOINT_SUFFIX}", ns=(tied_ns, tied_ns))
        store.put("c", b"3")  # one overflow slot: "a" goes first (name order)
        assert sorted(store.ids()) == ["b", "c"]

    def test_ttl_with_frozen_clock_is_ns_exact(self, tmp_path):
        # Checkpoints written "within the same second" (sub-second mtime
        # deltas) expire individually against a frozen injected clock.
        clock = FakeClock(now=2_000.0)
        store = FileSessionStore(tmp_path, ttl_seconds=1.0, clock=clock)
        store.put("stale", b"1")
        store.put("fresh", b"2")
        second_ns = 1_000_000_000
        base_ns = int(clock.now) * second_ns
        os.utime(
            tmp_path / f"stale{CHECKPOINT_SUFFIX}",
            ns=(base_ns - second_ns - 1, base_ns - second_ns - 1),
        )
        os.utime(
            tmp_path / f"fresh{CHECKPOINT_SUFFIX}",
            ns=(base_ns - second_ns + 400_000_000, base_ns - second_ns + 400_000_000),
        )
        assert store.ids() == ["fresh"]


# ------------------------------------------------------------ fault injection
_KILLED_WRITER = r"""
import os, sys, time

from repro.core import QFEConfig, QFESession, WorstCaseSelector
from repro.service.checkpoint import DatabaseRef, capture_checkpoint
from repro.service.manager import workload_session_inputs
from repro.service.store import FileSessionStore

store_dir, expected_path = sys.argv[1:3]
database, result, _, candidates = workload_session_inputs("Q2", 0.03, candidate_count=6)
session = QFESession(
    database, result, candidates=candidates, config=QFEConfig(delta_seconds=30.0)
)
reference = DatabaseRef.workload("Q2", 0.03)
store = FileSessionStore(store_dir)
pending = session.propose()
blob = capture_checkpoint(session, session_id="victim", database_ref=reference)
store.put("victim", blob)
with open(expected_path, "wb") as handle:
    handle.write(blob)
session.submit(WorstCaseSelector().select(pending.round, pending.partition))
session.propose()


def blocked_fsync(fd):
    print("in fsync", flush=True)
    time.sleep(600)


os.fsync = blocked_fsync
store.put("victim", capture_checkpoint(session, session_id="victim", database_ref=reference))
"""


class TestKilledCheckpointWrite:
    def test_sigkill_during_put_keeps_the_previous_checkpoint(self, tmp_path):
        store_dir, expected_path = tmp_path / "store", tmp_path / "expected.qfec"
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_WRITER, str(store_dir), str(expected_path)],
            stdout=subprocess.PIPE, env=env,
        )
        try:
            # The child blocks inside put's fsync: the second checkpoint is
            # written to its temp file but not yet renamed into place.
            ready, _, _ = select.select([child.stdout], [], [], 120)
            assert ready, "the writer never reached fsync"
            assert child.stdout.readline() == b"in fsync\n"
            assert list(store_dir.glob(".victim.*.tmp"))
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL

        store = FileSessionStore(store_dir)
        assert store.ids() == ["victim"]  # the orphaned temp file is not a session
        blob = store.get("victim")
        assert blob == expected_path.read_bytes()
        session, header = restore_checkpoint(blob)
        assert header["iteration"] == 1 and session.status == "awaiting-choice"
        selector = WorstCaseSelector()
        while (pending := session.propose()) is not None:
            session.submit(selector.select(pending.round, pending.partition))

        database, result, _, candidates = workload_session_inputs(
            "Q2", 0.03, candidate_count=6
        )
        reference = QFESession(
            database, result, candidates=candidates, config=QFEConfig(delta_seconds=30.0)
        )
        reference.run(WorstCaseSelector())
        assert transcript_json(session_transcript(session)) == transcript_json(
            session_transcript(reference)
        )
