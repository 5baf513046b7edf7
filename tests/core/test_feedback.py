"""Unit tests for the Result Feedback presentation and selectors."""

import pytest

from repro.core.feedback import (
    NONE_OF_THE_ABOVE,
    CallbackSelector,
    OracleSelector,
    ScriptedSelector,
    WorstCaseSelector,
    build_feedback_round,
    feedback_round_dict,
)
from repro.core.materialize import MaterializationResult
from repro.core.partitioner import partition_queries
from repro.exceptions import FeedbackError
from tests.oracles.delta_reference import apply_tuple_delta


def _bob_below_4000_database(employee_db, bob_below_4000):
    return apply_tuple_delta(employee_db, bob_below_4000.delta)


@pytest.fixture()
def modified_round(employee_db, employee_result, employee_candidates, bob_below_4000):
    partition = partition_queries(
        employee_candidates, _bob_below_4000_database(employee_db, bob_below_4000)
    )
    round_ = build_feedback_round(1, employee_db, employee_result, bob_below_4000, partition)
    return round_, partition


class TestFeedbackRound:
    def test_round_structure(self, modified_round, employee_db, bob_below_4000):
        round_, partition = modified_round
        assert round_.iteration == 1
        assert round_.option_count == partition.group_count
        assert round_.database is employee_db
        assert round_.delta is bob_below_4000.delta
        assert round_.database_delta.cost == 1
        assert round_.database_delta.describe() == [
            "Employee: change salary from 4200 to 3900 in row (2, 'Bob', 'M', 'IT', 4200)"
        ]
        assert sum(option.query_count for option in round_.options) == 3

    def test_option_deltas_reflect_result_changes(self, modified_round):
        round_, _ = modified_round
        costs = sorted(option.delta.cost for option in round_.options)
        # one option keeps the original result (cost 0), the other drops Bob (cost 1)
        assert costs == [0, 1]

    def test_pretty_mentions_changes(self, modified_round):
        round_, _ = modified_round
        text = round_.pretty()
        assert "Iteration 1" in text
        assert "salary" in text
        assert "Result option" in text


class TestSelectors:
    def test_worst_case_picks_largest(self, modified_round):
        round_, partition = modified_round
        choice = WorstCaseSelector().select(round_, partition)
        assert round_.options[choice].query_count == max(o.query_count for o in round_.options)

    def test_oracle_picks_target_group(self, modified_round, employee_candidates):
        round_, partition = modified_round
        target = employee_candidates[1]  # salary > 4000
        choice = OracleSelector(target).select(round_, partition)
        chosen_group = partition.groups[choice]
        assert target in chosen_group.queries

    def test_oracle_evaluates_on_its_cached_base_join_patched_by_the_delta(
        self, modified_round, employee_candidates
    ):
        from repro.relational.join import JOIN_STATS

        round_, partition = modified_round
        selector = OracleSelector(employee_candidates[1])
        first = selector.select(round_, partition)
        JOIN_STATS.reset()
        # Every later round patches the join the selector built once; no
        # round's D' is joined cold.
        assert selector.select(round_, partition) == first
        assert JOIN_STATS.full_joins == 0 and JOIN_STATS.delta_applies == 1

    def test_oracle_rejects_when_no_option_matches(self, employee_db, employee_result,
                                                   employee_candidates, bob_below_4000):
        # present a partition built from only two candidates; the oracle's
        # target produces a different result on the modified database
        partition = partition_queries(
            employee_candidates[:1], _bob_below_4000_database(employee_db, bob_below_4000)
        )
        round_ = build_feedback_round(1, employee_db, employee_result, bob_below_4000, partition)
        target = employee_candidates[1]
        assert OracleSelector(target).select(round_, partition) == NONE_OF_THE_ABOVE

    def test_callback_selector(self, modified_round):
        round_, partition = modified_round
        selector = CallbackSelector(lambda r, p: r.option_count - 1)
        assert selector.select(round_, partition) == round_.option_count - 1

    def test_scripted_selector_replays_choices(self, modified_round):
        round_, partition = modified_round
        selector = ScriptedSelector([1, 0])
        assert selector.select(round_, partition) == 1
        assert selector.select(round_, partition) == 0
        with pytest.raises(FeedbackError):
            selector.select(round_, partition)

    def test_scripted_selector_validates_range(self, modified_round):
        round_, partition = modified_round
        with pytest.raises(FeedbackError):
            ScriptedSelector([99]).select(round_, partition)

    def test_scripted_selector_allows_rejection(self, modified_round):
        round_, partition = modified_round
        assert ScriptedSelector([NONE_OF_THE_ABOVE]).select(round_, partition) == NONE_OF_THE_ABOVE


@pytest.fixture()
def single_group_round(employee_db, employee_result, employee_candidates, bob_below_4000):
    """A round whose partition has exactly one group (nothing distinguished)."""
    partition = partition_queries(
        employee_candidates[:1], _bob_below_4000_database(employee_db, bob_below_4000)
    )
    round_ = build_feedback_round(1, employee_db, employee_result, bob_below_4000, partition)
    assert partition.group_count == 1
    return round_, partition


class TestSingleGroupPartition:
    def test_none_of_the_above_is_valid_on_single_group(self, single_group_round):
        # A user may reject even a one-option round; every selector that can
        # reject must return NONE_OF_THE_ABOVE cleanly rather than exploding
        # on the degenerate partition.
        round_, partition = single_group_round
        assert ScriptedSelector([NONE_OF_THE_ABOVE]).select(round_, partition) == NONE_OF_THE_ABOVE

    def test_oracle_rejects_single_group_when_target_differs(self, single_group_round,
                                                             employee_candidates):
        round_, partition = single_group_round
        target = employee_candidates[1]  # produces a different result on D'
        assert OracleSelector(target).select(round_, partition) == NONE_OF_THE_ABOVE

    def test_worst_case_picks_the_only_option(self, single_group_round):
        round_, partition = single_group_round
        assert WorstCaseSelector().select(round_, partition) == 0


class TestOutOfRangeChoice:
    def test_session_rejects_out_of_range_selector(self, employee_db, employee_result,
                                                   employee_candidates):
        from repro.core.session import QFESession

        # A selector returning one past the last option index: the session
        # must fail with FeedbackError, not IndexError.
        selector = CallbackSelector(lambda round_, partition: round_.option_count)
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        with pytest.raises(FeedbackError, match="invalid option index"):
            session.run(selector)

    def test_session_rejects_negative_non_sentinel_choice(self, employee_db, employee_result,
                                                          employee_candidates):
        from repro.core.session import QFESession

        # -2 is neither a valid index nor the NONE_OF_THE_ABOVE sentinel (-1).
        selector = CallbackSelector(lambda round_, partition: -2)
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        with pytest.raises(FeedbackError, match="invalid option index"):
            session.run(selector)


class TestEmptyDeltaRound:
    def test_build_feedback_round_on_unmodified_database(self, employee_db, employee_result,
                                                         employee_candidates):
        # D' == D: the delta presentation must degrade to explicit
        # "(no changes)" text, with zero costs, for every option whose result
        # matches the original.
        unmodified = MaterializationResult()
        partition = partition_queries(employee_candidates, employee_db)
        round_ = build_feedback_round(
            1, employee_db, employee_result, unmodified, partition
        )
        assert round_.database_delta.cost == 0
        assert round_.database_delta.modified_relation_count == 0
        assert round_.database_delta.describe() == ["(no database changes)"]
        matching = [o for o in round_.options if o.delta.cost == 0]
        assert matching, "at least one candidate reproduces R on the unmodified D"
        assert matching[0].delta.describe() == ["(result unchanged)"]
        text = round_.pretty()
        assert "(no database changes)" in text


def _digest(presentation: dict) -> str:
    import hashlib
    import json

    text = json.dumps(presentation, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPresentation:
    def test_each_round_builds_its_presentation_once(self, modified_round, monkeypatch):
        from repro.core import feedback

        round_, _ = modified_round
        built = []
        present = feedback._presentation
        monkeypatch.setattr(feedback, "_presentation", lambda r: built.append(r) or present(r))
        first = feedback.feedback_round_dict(round_)
        assert round_.sha256 == _digest(first)
        assert feedback.feedback_round_dict(round_) == first
        assert built == [round_]

    def test_what_a_caller_changes_reaches_no_digest_and_no_later_copy(
        self, employee_db, employee_result, employee_candidates
    ):
        from repro.core import feedback
        from repro.core.session import QFESession
        from repro.service.checkpoint import session_transcript

        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        round_ = session.propose().round
        fresh = feedback._presentation(round_)  # an independent build
        handed = feedback.feedback_round_dict(round_)
        handed["iteration"] = 99
        handed["database_delta"]["lines"].append("forged")
        handed["options"][0]["rows"][0][0][0] = "forged"
        handed["options"].pop()
        transcript = session_transcript(session)
        transcript["rounds"][0]["options"][0]["delta_lines"].clear()
        transcript["rounds"].clear()
        assert feedback.feedback_round_dict(round_) == fresh
        assert round_.sha256 == _digest(fresh)
        assert session_transcript(session)["rounds"] == [fresh]

    def test_the_decoded_presentation_equals_the_build_exactly(self):
        import json

        from repro.core.feedback import FeedbackRound, ResultOption, _presentation
        from repro.relational.delta import DatabaseDelta, ResultDelta, TupleDelta
        from repro.relational.edit import EditScript
        from repro.relational.relation import Relation, Tuple

        # Stored rows as the presentation can meet them, beyond what a typed
        # column coerces to: every value JSON must carry exactly.
        rows = [
            (-0.0, float("inf"), 2**53 + 1, "é \"", None),
            (1e-320, float("-inf"), 10**5000, "", True),
            (0.1, float("nan"), 2.0**53, "NaN", False),
            (1, 1.0, -(2**64), "x", 1e308),
        ]
        result = Relation.from_rows("R", ["a", "b", "c", "d", "e"], [])
        result._tuples = [Tuple(row, index) for index, row in enumerate(rows)]
        option = ResultOption(0, result, ResultDelta(EditScript(())), 3)
        round_ = FeedbackRound(2, None, TupleDelta(), DatabaseDelta(()), (option,))
        built = _presentation(round_)
        decoded = feedback_round_dict(round_)
        assert decoded == built
        assert json.dumps(decoded) == json.dumps(built)
        assert round_.sha256 == _digest(built)
        for row, expected in zip(
            (row for row, _ in decoded["options"][0]["rows"]),
            (row for row, _ in built["options"][0]["rows"]),
        ):
            assert [type(value) for value in row] == [type(value) for value in expected]
