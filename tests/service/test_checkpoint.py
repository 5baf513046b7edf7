"""Unit tests for the versioned checkpoint and transcript serializers."""

import hashlib
import json
import pickle

import pytest

from repro.core.feedback import OracleSelector, WorstCaseSelector
from repro.core.session import QFESession
from repro.exceptions import CheckpointError
from repro.relational.database import Database
from repro.relational.evaluator import evaluate
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.relational.types import exact_repr
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


def _body(blob):
    """A checkpoint's body, parsed."""
    return json.loads(blob.partition(b"\n")[2])


def _signed(blob, body: bytes) -> bytes:
    """*blob*'s header over *body*, with the body's sha256 recomputed."""
    header = json.loads(blob.partition(b"\n")[0])
    header["payload_sha256"] = hashlib.sha256(body).hexdigest()
    return json.dumps(header).encode() + b"\n" + body


@pytest.fixture()
def mid_session(employee_db, employee_result, employee_candidates):
    session = QFESession(employee_db, employee_result, candidates=employee_candidates)
    session.propose()  # leave a round pending — the suspended-session shape
    return session


class TestCheckpointFormat:
    def test_header_is_readable_without_reading_the_body(self, mid_session):
        blob = capture_checkpoint(mid_session, session_id="abc123")
        header_line, _, _ = blob.partition(b"\n")
        header = json.loads(header_line)
        assert header == read_checkpoint_header(blob)
        assert header["version"] == CHECKPOINT_VERSION
        assert header["session_id"] == "abc123"
        assert header["status"] == "awaiting-choice"
        assert header["iteration"] == 1
        assert header["database_ref"] is None  # no reference: the pair is the caller's

    def test_unsupported_version_is_refused(self, mid_session):
        blob = capture_checkpoint(mid_session, session_id="abc123")
        header_line, _, body = blob.partition(b"\n")
        header = json.loads(header_line)
        # A newer version, and versions 5 to 1, which pickled the session's
        # object graph: 5 each round's base and TupleDelta, 4 a copy of D'
        # per round, 3 the key and validation flags in the config, 2 a
        # worker count too, 1 no payload checksum.
        assert CHECKPOINT_VERSION == 6
        for version in (CHECKPOINT_VERSION + 1, 5, 4, 3, 2, 1):
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

    def test_the_body_is_the_sessions_inputs_and_choices(self):
        session = _q2_session()
        _drive(session, WorstCaseSelector(), rounds=1)
        session.propose()
        body = _body(capture_checkpoint(session, session_id="abc123"))
        assert set(body) == {
            "config", "qbo_config", "candidates", "log", "round_sha256", "state_sha256"
        }
        for field in ("workers", "protect_key_columns", "validate_constraints"):
            assert field not in body["config"]
        assert len(body["candidates"]) == len(session.initial_candidates)
        assert [entry[0] for entry in body["log"]] == ["round", "choose", "round"]
        assert body["log"] == [list(entry) for entry in session.log]
        assert body["round_sha256"] == [r.sha256 for r in session.last_rounds]

    def test_nothing_is_unpickled(self, mid_session, employee_db, employee_result,
                                  monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a checkpoint was unpickled")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, unreachable)
        blob = capture_checkpoint(mid_session, session_id="abc123")
        restored, _ = restore_checkpoint(blob, database=employee_db, result=employee_result)
        assert restored.status == "awaiting-choice"

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
    def test_damaged_payload_is_refused_before_replaying(
        self, mid_session, employee_db, employee_result, monkeypatch, damage
    ):
        blob = bytearray(capture_checkpoint(mid_session, session_id="abc123"))
        header = read_checkpoint_header(bytes(blob))
        assert len(header["payload_sha256"]) == 64
        if damage == "flip":
            blob[-len(blob) // 3] ^= 0x01  # one bit, inside the payload
        elif damage == "truncate":
            del blob[-1]
        elif damage == "extend":
            blob += b" "  # trailing whitespace a JSON parser would ignore
        else:
            # A header whose checksum was stripped must not skip the check.
            del header["payload_sha256"]
            _, _, body = bytes(blob).partition(b"\n")
            blob = bytearray(json.dumps(header).encode() + b"\n" + body)

        reached = []
        monkeypatch.setattr(QFESession, "replay", lambda *args: reached.append(True))
        with pytest.raises(CheckpointError, match="sha256 does not match"):
            restore_checkpoint(bytes(blob), database=employee_db, result=employee_result)
        assert not reached

    def test_metadata_rides_in_the_header(self, mid_session):
        blob = capture_checkpoint(
            mid_session, session_id="abc123", metadata={"user": "alice"}
        )
        assert read_checkpoint_header(blob)["metadata"] == {"user": "alice"}


class TestCraftedCheckpoints:
    """A body edited and signed again is refused: the replay must reproduce
    every logged round. (The checkpoint is verified, not authenticated: a
    consistent edit, such as another option in the last round, describes
    another valid session.)"""

    @pytest.fixture(scope="class")
    def after_one_choice(self):
        """A Q2@0.03 checkpoint with round 2 pending, and the session's pair."""
        session = _q2_session()
        _drive(session, WorstCaseSelector(), rounds=1)
        session.propose()
        blob = capture_checkpoint(session, session_id="crafted")
        return blob, session.database, session.result

    @staticmethod
    def _refused(after_one_choice, edit, match=None):
        blob, database, result = after_one_choice
        body = _body(blob)
        edit(body)
        crafted = _signed(blob, json.dumps(body).encode())
        with pytest.raises(CheckpointError, match=match):
            restore_checkpoint(crafted, database=database, result=result)

    def test_the_untouched_body_restores(self, after_one_choice):
        blob, database, result = after_one_choice
        resigned = _signed(blob, json.dumps(_body(blob)).encode())
        restored, _ = restore_checkpoint(resigned, database=database, result=result)
        assert restored.status == "awaiting-choice"

    def test_an_edited_choice_is_refused(self, after_one_choice):
        def edit(body):
            (choice,) = [entry for entry in body["log"] if entry[0] == "choose"]
            choice[1] = 1 - choice[1]  # the other option of round 1

        self._refused(after_one_choice, edit)

    def test_an_edited_digest_is_refused(self, after_one_choice):
        def edit(body):
            digest = body["round_sha256"][-1]
            body["round_sha256"][-1] = ("0" if digest[0] != "0" else "1") + digest[1:]

        self._refused(after_one_choice, edit)

    def test_an_edited_pair_count_is_refused(self, after_one_choice):
        def edit(body):
            body["log"][0][1] += 1

        self._refused(after_one_choice, edit)

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("config", "beta", float("nan")),
            ("config", "delta_seconds", -1.0),
            ("config", "max_iterations", 0),
            ("config", "iteration_estimator", "psychic"),
            ("config", "workers", 4),
            ("qbo_config", "threshold_variants", 9),
        ],
    )
    def test_a_config_field_out_of_range_is_refused(
        self, after_one_choice, section, field, value
    ):
        def edit(body):
            body[section][field] = value

        self._refused(after_one_choice, edit)

    @pytest.mark.parametrize("count", [0, -1, 10**12, True, "64", None])
    def test_a_pair_count_that_is_not_the_rounds_is_refused(self, after_one_choice, count):
        # The round is planned as it was live and logs its own count, which
        # no edited count matches; the replay stops at that first entry.
        def edit(body):
            body["log"][0][1] = count

        self._refused(after_one_choice, edit, match="log entry 0, ")

    def test_a_finish_where_the_session_plans_is_refused(self, after_one_choice):
        blob, database, result = after_one_choice
        body = _body(blob)
        body["log"][0] = ["finish"]
        crafted = _signed(blob, json.dumps(body).encode())
        with pytest.raises(CheckpointError, match="would plan a round"):
            restore_checkpoint(crafted, database=database, result=result)

    def test_a_flipped_last_choice_is_refused(
        self, employee_db, employee_result, employee_candidates
    ):
        # One round of three singleton options: no later round shows the choice.
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        _drive(session, WorstCaseSelector())
        assert session.status == "converged"
        assert [entry[0] for entry in session.log] == ["round", "choose"]
        body = _body(blob := capture_checkpoint(session, session_id="flipped"))
        body["log"][1][1] = (body["log"][1][1] + 1) % 3
        crafted = _signed(blob, json.dumps(body).encode())
        with pytest.raises(CheckpointError, match="differs from the checkpointed one"):
            restore_checkpoint(crafted, database=employee_db, result=employee_result)

    def test_an_unknown_log_entry_is_refused(self, after_one_choice):
        self._refused(after_one_choice, lambda body: body["log"].append(["rewind", 1]))

    def test_a_pickle_body_is_refused(self, after_one_choice, monkeypatch):
        blob, database, result = after_one_choice
        crafted = _signed(blob, pickle.dumps({"log": []}))

        def unreachable(*args, **kwargs):
            raise AssertionError("a checkpoint was unpickled")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, unreachable)
        with pytest.raises(CheckpointError, match="does not replay"):
            restore_checkpoint(crafted, database=database, result=result)


class TestDatabaseRef:
    def test_workload_ref_requires_name(self):
        with pytest.raises(CheckpointError):
            DatabaseRef.workload("")
        with pytest.raises(CheckpointError):
            DatabaseRef.from_json({"scale": 1.0})

    def test_json_roundtrip(self):
        ref = DatabaseRef.workload("Q2", 0.25)
        assert DatabaseRef.from_json(ref.to_json()) == ref

    def test_a_malformed_reference_is_refused(self):
        for payload in (None, [], {"name": "Q2", "scale": "large"}):
            with pytest.raises(CheckpointError):
                DatabaseRef.from_json(payload)


class TestRestore:
    def test_the_pair_passed_in_resumes_identically(self, employee_db, employee_result,
                                                    employee_candidates, mid_session):
        reference = QFESession(employee_db, employee_result, candidates=employee_candidates)
        reference.run(WorstCaseSelector())
        expected = transcript_json(session_transcript(reference))

        blob = capture_checkpoint(mid_session, session_id="abc123")
        resumed, header = restore_checkpoint(blob, database=employee_db, result=employee_result)
        assert header["session_id"] == "abc123"
        assert resumed.database is employee_db
        assert resumed.result is employee_result
        _drive(resumed, WorstCaseSelector())
        assert transcript_json(session_transcript(resumed)) == expected

    def test_a_warm_resume_replays_from_the_live_sessions_memo(self):
        from repro.core.round_planner import PLAN_MEMO_STATS
        from repro.relational.evaluator import JoinCache

        join_cache = JoinCache()
        session = _q2_session(join_cache)
        _drive(session, WorstCaseSelector(), rounds=1)
        session.propose()
        rounds = [entry for entry in session.log if entry[0] == "round"]
        assert len(rounds) == 2
        before = (PLAN_MEMO_STATS.memo_hits, PLAN_MEMO_STATS.memo_misses)
        # Candidates decoded from the checkpoint key the same memo entries.
        restored, _ = restore_checkpoint(
            capture_checkpoint(session, session_id="warm"),
            database=session.database,
            result=session.result,
            join_cache=join_cache,
        )
        after = (PLAN_MEMO_STATS.memo_hits, PLAN_MEMO_STATS.memo_misses)
        assert after == (before[0] + len(rounds), before[1])
        assert restored.log == session.log

    def test_a_checkpoint_without_a_reference_needs_the_pair(self, mid_session):
        blob = capture_checkpoint(mid_session, session_id="abc123")
        with pytest.raises(CheckpointError, match="pass database= and result="):
            restore_checkpoint(blob)

    def test_workload_ref_rebuilds_the_pair(self):
        from repro.service.manager import workload_session_inputs

        database, result, _, candidates = workload_session_inputs(
            "Q2", 0.03, candidate_count=6
        )
        session = QFESession(database, result, candidates=candidates)
        session.propose()

        by_ref = capture_checkpoint(
            session, session_id="x", database_ref=DatabaseRef.workload("Q2", 0.03)
        )
        resumed, _ = restore_checkpoint(by_ref)  # rebuilds D from the workload
        assert resumed.database is not database
        assert resumed.database.table_names == database.table_names
        assert resumed.status == "awaiting-choice"


def _q2_session(join_cache=None):
    """A Q2@0.03 session over its workload pair, not yet started."""
    from repro.service.manager import workload_session_inputs

    database, result, _, candidates = workload_session_inputs("Q2", 0.03, candidate_count=6)
    return QFESession(database, result, candidates=candidates, join_cache=join_cache)


_Q2_REF = DatabaseRef.workload("Q2", 0.03)


class TestThePairIsNeverCopied:
    """A checkpoint holds the session's inputs and choices, never a relation;
    restored rounds refer to the pair the caller binds."""

    def test_a_workload_checkpoint_holds_no_database(self):
        session = _q2_session()
        _drive(session, WorstCaseSelector(), rounds=1)
        session.propose()
        blob = capture_checkpoint(session, session_id="x", database_ref=_Q2_REF)
        assert len(_body(blob)["round_sha256"]) == 2
        row = session.database.relation(session.database.table_names[0]).rows()[0]
        assert json.dumps(list(row)).encode() not in blob

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

    def test_a_round_grows_the_checkpoint_by_its_log_entries_and_digest(self):
        session = _q2_session()
        sizes = []
        while (pending := session.propose()) is not None:
            sizes.append(len(capture_checkpoint(session, session_id="x", database_ref=_Q2_REF)))
            session.submit(WorstCaseSelector().select(pending.round, pending.partition))
        assert len(sizes) >= 2
        assert all(0 < later - earlier < 200 for earlier, later in zip(sizes, sizes[1:]))


class TestIntegersBeyondTheDecimalDigitLimit:
    """Ints with more digits than ``sys.get_int_max_str_digits()`` allows
    render exactly in rounds and transcripts and checkpoint exactly."""

    @staticmethod
    def _roundtrip(session, selector):
        """Drive *session*, checkpointing and restoring at every step."""
        database, result = session.database, session.result
        while True:
            blob = capture_checkpoint(session, session_id="long")
            session, _ = restore_checkpoint(blob, database=database, result=result)
            pending = session.propose()
            if pending is None:
                return session
            session.submit(selector.select(pending.round, pending.partition))

    @staticmethod
    def _over_x(projection, op, constant):
        """``SELECT projection FROM T WHERE T.x op constant``."""
        return SPJQuery(["T"], projection, DNFPredicate.from_terms([Term("T.x", op, constant)]))

    def test_a_long_int_in_a_modified_row(self):
        long_int = 10**5000
        rows = [[i, x, long_int] for i, x in enumerate([5, 15, 21, 25, 13, 30])]
        database = Database.from_tables({"T": (["id", "x", "y"], rows)})
        at_least_20 = self._over_x(["T.id", "T.y"], ComparisonOp.GE, 20)
        above_12 = self._over_x(["T.id", "T.y"], ComparisonOp.GT, 12)
        result = evaluate(at_least_20, database)
        session = QFESession(database, result, candidates=[at_least_20, above_12])
        session.run(WorstCaseSelector())
        lines = session.last_rounds[0].database_delta.describe()
        assert hex(long_int) in " ".join(lines)
        transcript = transcript_json(session_transcript(session))
        assert hex(long_int) in transcript

        resumed = self._roundtrip(
            QFESession(database, result, candidates=[at_least_20, above_12]), WorstCaseSelector()
        )
        assert transcript_json(session_transcript(resumed)) == transcript

    def test_a_long_int_constant(self):
        long_int = 10**5000
        database = Database.from_tables(
            {"T": (["id", "x"], [[0, 5], [1, 8], [2, 12], [3, long_int], [4, long_int + 1]])}
        )
        target = self._over_x(["T.id"], ComparisonOp.GE, long_int)
        other = self._over_x(["T.id"], ComparisonOp.GT, 12)
        result = evaluate(target, database)
        session = QFESession(database, result, candidates=[other, target])
        session.run(OracleSelector(target))
        transcript = transcript_json(session_transcript(session))
        assert session.outcome.identified_query == target
        assert hex(long_int) in session_transcript(session)["identified_sql"]

        fresh = QFESession(database, result, candidates=[other, target])
        blob = capture_checkpoint(fresh, session_id="long")
        restored, _ = restore_checkpoint(blob, database=database, result=result)
        (constant,) = [t.constant for t in restored.initial_candidates[1].predicate.terms()]
        assert constant == long_int and type(constant) is int
        resumed = self._roundtrip(fresh, OracleSelector(target))
        assert transcript_json(session_transcript(resumed)) == transcript


@pytest.mark.parametrize(
    "constant",
    [float("nan"), float("inf"), -float("inf"), -0.0, 2**53 + 1, -(10**4300), True, None, "it's"],
    ids=["nan", "inf", "-inf", "-0.0", "2**53+1", "-10**4300", "true", "null", "quote"],
)
def test_candidate_constants_roundtrip_exactly(employee_db, employee_result,
                                               employee_candidates, constant):
    """Candidates are written structurally: every constant the engine accepts
    comes back with its type and value, an ``IN`` tuple as a tuple."""
    extra = SPJQuery(
        ["Employee"],
        ["Employee.name"],
        DNFPredicate.from_terms(
            [
                Term("Employee.salary", ComparisonOp.NE, constant),
                Term("Employee.name", ComparisonOp.IN, (constant, "Bob")),
            ]
        ),
    )
    session = QFESession(employee_db, employee_result, candidates=[*employee_candidates, extra])
    restored, _ = restore_checkpoint(
        capture_checkpoint(session, session_id="c"), database=employee_db, result=employee_result
    )
    (ne, member) = restored.initial_candidates[-1].predicate.terms()
    for value in (ne.constant, member.constant[0]):
        assert type(value) is type(constant)
        assert exact_repr(value) == exact_repr(constant)
    assert member.constant[1] == "Bob" and isinstance(member.constant, tuple)


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
