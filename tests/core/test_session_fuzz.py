"""Session-level fuzzer: arbitrary choice scripts over generated scenarios.

Hypothesis draws a script of user actions — pick an option, reject every
option (``NONE_OF_THE_ABOVE``), or send an out-of-range index — and drives a
:class:`~repro.core.session.QFESession` through it, checking the state
machine's invariants after every step:

* a chosen option strictly shrinks the candidate set, and a replenishment
  strictly grows it (or, when no further candidate exists, raises
  :class:`~repro.exceptions.FeedbackError` and leaves the round pending);
* an out-of-range choice raises :class:`~repro.exceptions.FeedbackError`
  and ``propose()`` then returns the same pending round;
* suspending the session through ``capture_checkpoint`` →
  ``restore_checkpoint`` at a drawn step (with that step's round pending),
  then finishing the script, gives a canonical transcript byte-identical to
  the uninterrupted run;
* a truthful user — one who always picks the option the target query
  produces, whatever rejections and bad indexes it mixes in — never loses
  the target.

Inputs are built once per workload, and sessions over one workload share a
join cache the way the session service does.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import QFEConfig, QFESession
from repro.core.feedback import NONE_OF_THE_ABOVE, OracleSelector
from repro.exceptions import FeedbackError
from repro.relational.evaluator import JoinCache
from repro.service.checkpoint import (
    DatabaseRef,
    capture_checkpoint,
    restore_checkpoint,
    session_transcript,
    transcript_json,
)
from repro.service.manager import workload_session_inputs

_WORKLOADS = ("scenario:mixed@2", "scenario:mixed@29", "scenario:star@7")
_SCALE = 1.0
#: Effectively no wall-clock bound on Algorithm 3, so rounds are deterministic.
_CONFIG = QFEConfig(delta_seconds=1e6)

_INPUTS: dict[str, tuple] = {}


def _inputs(workload: str) -> tuple:
    """``(database, result, candidates, join cache, target)``, built once per workload."""
    if workload not in _INPUTS:
        database, result, target, candidates = workload_session_inputs(workload, _SCALE)
        _INPUTS[workload] = (database, result, candidates, JoinCache(), target)
    return _INPUTS[workload]


_ACTIONS = st.one_of(
    st.tuples(st.just("pick"), st.integers(0, 7)),
    st.tuples(st.just("none"), st.just(0)),
    st.tuples(st.just("bad"), st.integers(-3, 2)),
)


def _out_of_range(group_count: int, offset: int) -> int:
    """An invalid option index: past the last option, or negative but not -1."""
    return group_count + offset if offset >= 0 else offset - 1


def _drive(workload: str, script, *, suspend_at: int | None = None) -> str:
    """Apply *script*, asserting the invariants; returns the canonical transcript."""
    database, result, candidates, join_cache, _ = _inputs(workload)
    session = QFESession(
        database, result, candidates=candidates, config=_CONFIG, join_cache=join_cache
    )
    for step, (kind, value) in enumerate(script):
        pending = session.propose()
        if step == suspend_at:
            blob = capture_checkpoint(
                session,
                session_id="fuzz",
                database_ref=DatabaseRef.workload(workload, _SCALE),
            )
            session, _ = restore_checkpoint(
                blob, database=database, result=result, join_cache=join_cache
            )
            pending = session.propose()  # replayed from the checkpoint
        if pending is None:
            break
        before = session.remaining_candidates
        if kind == "bad":
            with pytest.raises(FeedbackError):
                session.submit(_out_of_range(pending.partition.group_count, value))
            assert session.propose() is pending
            assert session.remaining_candidates == before
        elif kind == "none":
            try:
                step_result = session.submit(NONE_OF_THE_ABOVE)
            except FeedbackError:
                # No further candidate could be generated: nothing changed.
                assert session.propose() is pending
                assert session.remaining_candidates == before
            else:
                assert step_result.status == "replenished"
                assert session.remaining_candidates > before
        else:
            step_result = session.submit(value % pending.partition.group_count)
            assert step_result.status in ("chosen", "converged")
            assert session.remaining_candidates < before
    return transcript_json(session_transcript(session, workload=workload))


@pytest.mark.parametrize("workload", _WORKLOADS)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=st.lists(_ACTIONS, min_size=1, max_size=6), data=st.data())
def test_choice_scripts_keep_the_session_invariants(workload, script, data):
    uninterrupted = _drive(workload, script)
    suspend_at = data.draw(st.integers(0, len(script) - 1), label="suspend_at")
    assert _drive(workload, script, suspend_at=suspend_at) == uninterrupted


@pytest.mark.parametrize("workload", _WORKLOADS)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=st.lists(st.sampled_from(["truth", "none", "bad"]), min_size=1, max_size=6))
def test_a_truthful_user_never_loses_the_target(workload, script):
    database, result, candidates, join_cache, target = _inputs(workload)
    assert target in candidates
    session = QFESession(
        database, result, candidates=candidates, config=_CONFIG, join_cache=join_cache
    )
    user = OracleSelector(target)
    for action in script:
        pending = session.propose()
        if pending is None:
            break
        if action == "truth":
            session.submit(user.select(pending.round, pending.partition))
        elif action == "none":
            try:
                session.submit(NONE_OF_THE_ABOVE)
            except FeedbackError:
                pass
        else:
            with pytest.raises(FeedbackError):
                session.submit(pending.partition.group_count)
        assert target in session.candidates
    if session.outcome.converged:
        assert session.outcome.identified_query == target
