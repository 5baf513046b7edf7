"""Unit tests for the versioned checkpoint and transcript serializers."""

import io
import json
import pickle

import pytest

from repro.core.feedback import WorstCaseSelector
from repro.core.session import QFESession
from repro.exceptions import CheckpointError
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    DatabaseRef,
    capture_checkpoint,
    read_checkpoint_header,
    restore_checkpoint,
    session_transcript,
    transcript_json,
)


def _drive(session, selector, rounds=None):
    taken = 0
    while rounds is None or taken < rounds:
        pending = session.propose()
        if pending is None:
            return
        session.submit(selector.select(pending.round, pending.partition))
        taken += 1


def _payload(blob):
    """A checkpoint's inline pair and its session state, with the state's
    references to the example pair left as their bare persistent ids."""
    stream = io.BytesIO(blob.partition(b"\n")[2])
    inline = pickle.load(stream)
    unpickler = pickle.Unpickler(stream)
    unpickler.persistent_load = lambda pid: pid
    return inline, unpickler.load()


@pytest.fixture()
def mid_session(employee_db, employee_result, employee_candidates):
    session = QFESession(employee_db, employee_result, candidates=employee_candidates)
    session.propose()  # leave a round pending — the suspended-session shape
    return session


class TestCheckpointFormat:
    def test_header_is_readable_without_unpickling(self, mid_session):
        blob = capture_checkpoint(mid_session, session_id="abc123")
        header_line, _, _ = blob.partition(b"\n")
        header = json.loads(header_line)
        assert header == read_checkpoint_header(blob)
        assert header["version"] == CHECKPOINT_VERSION
        assert header["session_id"] == "abc123"
        assert header["status"] == "awaiting-choice"
        assert header["iteration"] == 1
        assert header["database_ref"] == {"kind": "inline"}

    def test_unsupported_version_is_refused(self, mid_session):
        blob = capture_checkpoint(mid_session, session_id="abc123")
        header_line, _, body = blob.partition(b"\n")
        header = json.loads(header_line)
        # A newer version, version 4 (each pickled feedback round carries a
        # copy of D'), version 3 (its pickled config carries the key and
        # validation flags, its round statistics three modification counts),
        # version 2 (a worker count too) and version 1 (no payload checksum).
        assert CHECKPOINT_VERSION == 5
        for version in (CHECKPOINT_VERSION + 1, 4, 3, 2, 1):
            header["version"] = version
            tampered = json.dumps(header).encode() + b"\n" + body
            with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
                restore_checkpoint(tampered)

    def test_restore_binds_a_shared_join_cache(
        self, mid_session, employee_db, employee_result
    ):
        from repro.relational.evaluator import JoinCache

        shared = JoinCache()
        blob = capture_checkpoint(mid_session, session_id="abc123")
        restored, _ = restore_checkpoint(
            blob, database=employee_db, result=employee_result, join_cache=shared
        )
        assert restored.join_cache is shared
        restored.run(WorstCaseSelector())
        restored.close()
        # A shared cache is the caller's: the session neither owns nor clears it.
        assert shared.cached_join_count > 0

    def test_state_carries_no_worker_count(self, mid_session):
        blob = capture_checkpoint(mid_session, session_id="abc123")
        _, state = _payload(blob)
        assert "workers" not in state
        assert not hasattr(state["config"], "workers")

    def test_state_carries_no_key_flags_or_round_counts(self, mid_session):
        blob = capture_checkpoint(mid_session, session_id="abc123")
        _, state = _payload(blob)
        for flag in ("protect_key_columns", "validate_constraints"):
            assert not hasattr(state["config"], flag)
        for count in ("modification_count", "modified_relation_count", "modified_tuple_count"):
            assert not hasattr(state["pending"].stats, count)

    def test_garbage_is_refused(self):
        with pytest.raises(CheckpointError):
            read_checkpoint_header(b"this is not a checkpoint")
        with pytest.raises(CheckpointError):
            read_checkpoint_header(b'{"magic": "something-else"}\n')

    def test_corrupt_payload_is_refused(self, mid_session):
        blob = capture_checkpoint(mid_session, session_id="abc123")
        header_line, _, _ = blob.partition(b"\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            restore_checkpoint(header_line + b"\n" + b"\x80\x04garbage")

    @pytest.mark.parametrize("damage", ["flip", "truncate", "extend", "unsigned"])
    def test_damaged_payload_is_refused_before_unpickling(
        self, mid_session, monkeypatch, damage
    ):
        import pickle

        blob = bytearray(capture_checkpoint(mid_session, session_id="abc123"))
        header = read_checkpoint_header(bytes(blob))
        assert len(header["payload_sha256"]) == 64
        if damage == "flip":
            blob[-len(blob) // 3] ^= 0x01  # one bit, inside the payload
        elif damage == "truncate":
            del blob[-1]
        elif damage == "extend":
            blob += b"\x00"  # trailing bytes pickle.loads would ignore
        else:
            # A v2 header whose checksum was stripped must not skip the check.
            del header["payload_sha256"]
            _, _, body = bytes(blob).partition(b"\n")
            blob = bytearray(json.dumps(header).encode() + b"\n" + body)

        reached = []

        def unreachable(*args, **kwargs):
            # restore_checkpoint wraps unpickling errors, so record the call
            # instead of relying on the exception to escape.
            reached.append(True)
            raise AssertionError("a damaged payload reached the unpickler")

        for name in ("load", "loads"):
            monkeypatch.setattr(pickle, name, unreachable)
        with pytest.raises(CheckpointError, match="sha256 does not match"):
            restore_checkpoint(bytes(blob))
        assert not reached

    def test_metadata_rides_in_the_header(self, mid_session):
        blob = capture_checkpoint(
            mid_session, session_id="abc123", metadata={"user": "alice"}
        )
        assert read_checkpoint_header(blob)["metadata"] == {"user": "alice"}


class TestDatabaseRef:
    def test_workload_ref_requires_name(self):
        with pytest.raises(CheckpointError):
            DatabaseRef(kind="workload")
        with pytest.raises(CheckpointError):
            DatabaseRef(kind="banana")

    def test_json_roundtrip(self):
        ref = DatabaseRef.workload("Q2", 0.25)
        assert DatabaseRef.from_json(ref.to_json()) == ref
        assert DatabaseRef.from_json(DatabaseRef.inline().to_json()) == DatabaseRef.inline()

    def test_inline_ref_cannot_build(self):
        with pytest.raises(CheckpointError):
            DatabaseRef.inline().build()


class TestRestore:
    def test_inline_roundtrip_resumes_identically(self, employee_db, employee_result,
                                                  employee_candidates, mid_session):
        reference = QFESession(employee_db, employee_result, candidates=employee_candidates)
        reference.run(WorstCaseSelector())
        expected = transcript_json(session_transcript(reference))

        blob = capture_checkpoint(mid_session, session_id="abc123")
        resumed, header = restore_checkpoint(blob)
        assert header["session_id"] == "abc123"
        # The inline pair was embedded: no explicit database needed.
        _drive(resumed, WorstCaseSelector())
        assert transcript_json(session_transcript(resumed)) == expected

    def test_explicit_pair_wins_over_inline(self, employee_db, employee_result,
                                            mid_session):
        blob = capture_checkpoint(mid_session, session_id="abc123")
        resumed, _ = restore_checkpoint(blob, database=employee_db, result=employee_result)
        assert resumed.database is employee_db
        assert resumed.result is employee_result

    def test_workload_ref_keeps_checkpoints_small_and_rebuilds(self):
        from repro.service.manager import workload_session_inputs

        database, result, _, candidates = workload_session_inputs(
            "Q2", 0.03, candidate_count=6
        )
        session = QFESession(database, result, candidates=candidates)
        session.propose()

        by_ref = capture_checkpoint(
            session, session_id="x", database_ref=DatabaseRef.workload("Q2", 0.03)
        )
        inline = capture_checkpoint(session, session_id="x")
        assert len(by_ref) < len(inline)  # the base database is not embedded

        resumed, _ = restore_checkpoint(by_ref)  # rebuilds D from the workload
        assert resumed.database.table_names == database.table_names
        assert resumed.status == "awaiting-choice"


def _q2_session():
    """A Q2@0.03 session over its workload pair, not yet started."""
    from repro.service.manager import workload_session_inputs

    database, result, _, candidates = workload_session_inputs("Q2", 0.03, candidate_count=6)
    return QFESession(database, result, candidates=candidates)


_Q2_REF = DatabaseRef.workload("Q2", 0.03)


class TestThePairIsNeverCopied:
    """Every feedback round refers to the base ``D`` and records its delta;
    a checkpoint writes ``D`` and ``R`` as references, never as copies."""

    def test_a_workload_checkpoint_holds_no_database(self):
        session = _q2_session()
        _drive(session, WorstCaseSelector(), rounds=1)
        session.propose()
        blob = capture_checkpoint(session, session_id="x", database_ref=_Q2_REF)
        assert b"repro.relational.database" not in blob  # no Database is pickled
        inline, state = _payload(blob)
        assert inline is None
        assert len(state["rounds"]) == 2
        assert all(round_.database == "database" for round_ in state["rounds"])

        restored, _ = restore_checkpoint(
            blob, database=session.database, result=session.result
        )
        assert all(round_.database is session.database for round_ in restored.last_rounds)
        assert restored.pending_round.round.database is session.database
        _drive(restored, WorstCaseSelector())
        _drive(session, WorstCaseSelector())
        assert transcript_json(session_transcript(restored)) == transcript_json(
            session_transcript(session)
        )

    def test_a_round_does_not_grow_the_checkpoint_by_a_database(self):
        session = _q2_session()
        database_bytes = len(pickle.dumps(session.database, protocol=pickle.HIGHEST_PROTOCOL))
        sizes = []
        while (pending := session.propose()) is not None:
            sizes.append(len(capture_checkpoint(session, session_id="x", database_ref=_Q2_REF)))
            session.submit(WorstCaseSelector().select(pending.round, pending.partition))
        assert len(sizes) >= 2
        assert all(0 < later - earlier < database_bytes for earlier, later in zip(sizes, sizes[1:]))

    def test_an_inline_pair_is_embedded_once(self):
        session = _q2_session()
        _drive(session, WorstCaseSelector(), rounds=1)
        session.propose()
        by_ref = capture_checkpoint(session, session_id="x", database_ref=_Q2_REF)
        inline = capture_checkpoint(session, session_id="x")
        pair = pickle.dumps((session.database, session.result), protocol=pickle.HIGHEST_PROTOCOL)
        none = pickle.dumps(None, protocol=pickle.HIGHEST_PROTOCOL)
        embedded = len(inline.partition(b"\n")[2]) - len(by_ref.partition(b"\n")[2])
        assert embedded == len(pair) - len(none)

        resumed, _ = restore_checkpoint(inline)
        assert resumed.database is not session.database
        assert all(round_.database is resumed.database for round_ in resumed.last_rounds)


class TestTranscript:
    def test_canonical_form_has_no_timings(self, mid_session):
        transcript = session_transcript(mid_session)
        assert "total_seconds" not in transcript
        for record in transcript["iterations"]:
            assert "execution_seconds" not in record
        timed = session_transcript(mid_session, include_timings=True)
        assert "total_seconds" in timed
        assert all("execution_seconds" in r for r in timed["iterations"])

    def test_canonical_json_is_byte_stable(self, employee_db, employee_result,
                                           employee_candidates):
        def run_once():
            session = QFESession(
                employee_db, employee_result, candidates=employee_candidates
            )
            session.run(WorstCaseSelector())
            return transcript_json(session_transcript(session, workload="employee"))

        assert run_once() == run_once()

    def test_transcript_carries_rounds_and_sql(self, employee_db, employee_result,
                                               employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        session.run(WorstCaseSelector())
        transcript = session_transcript(session)
        assert transcript["status"] == "converged"
        assert transcript["identified_sql"].startswith("SELECT")
        assert len(transcript["rounds"]) == transcript["iteration_count"]
        first = transcript["rounds"][0]
        assert first["database_delta"]["lines"]
        assert all("rows" in option for option in first["options"])
        json.dumps(transcript)  # JSON-able all the way down
