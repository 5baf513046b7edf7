"""The Result Feedback module: presenting ``(D', R_1..R_k)`` and collecting choices.

Section 2: rather than showing the full modified database and every candidate
result, QFE presents their *differences* from the original pair ``(D, R)``.
:class:`FeedbackRound` packages one iteration's presentation — the database
delta plus one :class:`ResultOption` per distinct candidate result, each with
its own delta — and the selector classes model how a user answers:

* :class:`WorstCaseSelector` — always picks the option backed by the most
  candidate queries (the paper's automated worst-case feedback, Section 7);
* :class:`OracleSelector` — picks the option matching the target query's
  result on ``D'`` (the paper's target-aware automated feedback);
* :class:`CallbackSelector` — delegates to a callable (interactive examples);
* :class:`ScriptedSelector` — replays a fixed list of choices (tests).

A selector may also return :data:`NONE_OF_THE_ABOVE` to signal that no
presented result matches the intended query, which makes the session trigger
another round of candidate generation (Section 2's "not shown in Algorithm 1"
escape hatch).

:func:`feedback_round_dict` is a round's canonical presentation: the form
transcripts and the HTTP API carry, and whose sha256
(:attr:`FeedbackRound.sha256`) a checkpoint records to verify its replay.
A round builds it once, on first use, and keeps it as JSON text
(:attr:`FeedbackRound.presentation_json`): the digest, every HTTP round body
and the transcript decode that one build instead of presenting the round again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Protocol, Sequence

from repro.core.materialize import MaterializationResult
from repro.core.partitioner import QueryPartition
from repro.exceptions import FeedbackError
from repro.obs.trace import get_tracer
from repro.relational.database import Database
from repro.relational.delta import (
    DatabaseDelta,
    ResultDelta,
    TupleDelta,
    database_delta,
    result_delta,
)
from repro.relational.evaluator import JoinCache, result_fingerprint
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.relational.types import exact_repr, long_int_hex

__all__ = [
    "NONE_OF_THE_ABOVE",
    "ResultOption",
    "FeedbackRound",
    "build_feedback_round",
    "feedback_round_dict",
    "ResultSelector",
    "WorstCaseSelector",
    "OracleSelector",
    "CallbackSelector",
    "ScriptedSelector",
]

NONE_OF_THE_ABOVE = -1
"""Selector return value meaning "none of the presented results is correct"."""


@dataclass(frozen=True)
class ResultOption:
    """One candidate result shown to the user, with its diff from the original ``R``."""

    index: int
    result: Relation
    delta: ResultDelta
    query_count: int

    def pretty(self) -> str:
        """A text block: the option header followed by its result delta."""
        lines = [f"Result option {self.index + 1} (consistent with {self.query_count} candidate queries):"]
        lines.extend(f"  {line}" for line in self.delta.describe())
        return "\n".join(lines)


@dataclass(frozen=True)
class FeedbackRound:
    """Everything presented to the user in one QFE iteration.

    The round's ``D'`` is ``database``, the session's base ``D`` (shared,
    never copied), plus ``delta``; the user sees it as ``database_delta``.
    """

    iteration: int
    database: Database
    delta: TupleDelta
    database_delta: DatabaseDelta
    options: tuple[ResultOption, ...]

    @property
    def option_count(self) -> int:
        """How many distinct results are on offer (the ``k`` of the iteration)."""
        return len(self.options)

    def pretty(self) -> str:
        """The full text presentation of the round (used by interactive examples)."""
        lines = [f"=== Iteration {self.iteration}: database changes ==="]
        lines.extend(f"  {line}" for line in self.database_delta.describe())
        for option in self.options:
            lines.append("")
            lines.append(option.pretty())
        return "\n".join(lines)

    @cached_property
    def presentation_json(self) -> str:
        """The canonical presentation as JSON text, built on first use and kept.

        The digest, the HTTP round body and the transcript all read this one
        build (:func:`feedback_round_dict` decodes a fresh copy of it).
        """
        return json.dumps(_presentation(self))

    @cached_property
    def sha256(self) -> str:
        """sha256 of the canonical presentation, computed once per round."""
        import hashlib  # only checkpoints digest rounds: a cold session never loads it

        text = json.dumps(feedback_round_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_value(value: Any) -> Any:
    """A cell value in JSON: NaN, and an int too long for ``str``, as text."""
    if isinstance(value, float) and value != value:
        return "NaN"
    return long_int_hex(value) or value


def _rows_payload(relation: Relation) -> list:
    """A relation's bag of rows in canonical (content-sorted) order."""
    items = sorted(relation.bag_of_rows().items(), key=exact_repr)
    return [[[_json_value(v) for v in row], count] for row, count in items]


def feedback_round_dict(round_: FeedbackRound) -> dict:
    """One :class:`FeedbackRound` presentation as a JSON-able dict.

    The round builds its presentation once (:attr:`FeedbackRound.presentation_json`);
    each call decodes a fresh copy of it, so a caller may add to or change
    what it gets without touching the round's digest or a later response.
    JSON holds every value the presentation carries exactly, in its key order.
    """
    return json.loads(round_.presentation_json)


def _presentation(round_: FeedbackRound) -> dict:
    """Build a round's canonical presentation (once per round)."""
    return {
        "iteration": round_.iteration,
        "database_delta": {
            "cost": round_.database_delta.cost,
            "modified_relation_count": round_.database_delta.modified_relation_count,
            "lines": round_.database_delta.describe(),
        },
        "options": [
            {
                "index": option.index,
                "query_count": option.query_count,
                "delta_cost": option.delta.cost,
                "delta_lines": option.delta.describe(),
                "rows": _rows_payload(option.result),
            }
            for option in round_.options
        ],
    }


def build_feedback_round(
    iteration: int,
    original_database: Database,
    original_result: Relation,
    materialization: MaterializationResult,
    partition: QueryPartition,
) -> FeedbackRound:
    """Assemble the deltas shown to the user for one iteration.

    *materialization* is the round's winning attempt: the round keeps its
    recorded delta, and ``Δ(D, D')`` is read off it.
    """
    with get_tracer().span("present.database_delta"):
        db_delta = database_delta(original_database, materialization.delta)
    options = []
    for index, group in enumerate(partition.groups):
        options.append(
            ResultOption(
                index=index,
                result=group.result,
                delta=result_delta(original_result, group.result),
                query_count=len(group),
            )
        )
    return FeedbackRound(
        iteration, original_database, materialization.delta, db_delta, tuple(options)
    )


class ResultSelector(Protocol):
    """How a (possibly simulated) user picks the correct result in a round."""

    def select(self, round_: FeedbackRound, partition: QueryPartition) -> int:
        """Return the chosen option index, or :data:`NONE_OF_THE_ABOVE`."""
        ...  # pragma: no cover - protocol definition


class WorstCaseSelector:
    """Always choose the option backed by the largest candidate subset.

    This is the paper's automated worst-case feedback: it maximizes the number
    of remaining candidates each round, giving an upper bound on iterations.
    """

    def select(self, round_: FeedbackRound, partition: QueryPartition) -> int:
        best_index = 0
        best_count = -1
        for option in round_.options:
            if option.query_count > best_count:
                best_count = option.query_count
                best_index = option.index
        return best_index


class OracleSelector:
    """Choose the option whose result equals the target query's result on ``D'``.

    This models a user who can recognize the correct output of their intended
    query — exactly the paper's minimal requirement on users. The target runs
    on the selector's own cached base join, patched by the round's delta.
    """

    def __init__(self, target_query: SPJQuery, *, set_semantics: bool = False) -> None:
        self.target_query = target_query
        self.set_semantics = set_semantics
        self._cache = JoinCache()

    def select(self, round_: FeedbackRound, partition: QueryPartition) -> int:
        expected = self._cache.evaluate(self.target_query, round_.database, delta=round_.delta)
        expected_fingerprint = result_fingerprint(expected, set_semantics=self.set_semantics)
        for option in round_.options:
            fingerprint = result_fingerprint(option.result, set_semantics=self.set_semantics)
            if fingerprint == expected_fingerprint:
                return option.index
        return NONE_OF_THE_ABOVE


class CallbackSelector:
    """Delegate the choice to a callable ``(round, partition) -> int``."""

    def __init__(self, callback: Callable[[FeedbackRound, QueryPartition], int]) -> None:
        self.callback = callback

    def select(self, round_: FeedbackRound, partition: QueryPartition) -> int:
        return self.callback(round_, partition)


class ScriptedSelector:
    """Replay a fixed sequence of option indexes (for tests and demos)."""

    def __init__(self, choices: Sequence[int]) -> None:
        self.choices = list(choices)
        self._position = 0

    def select(self, round_: FeedbackRound, partition: QueryPartition) -> int:
        if self._position >= len(self.choices):
            raise FeedbackError("scripted selector ran out of choices")
        choice = self.choices[self._position]
        self._position += 1
        if choice != NONE_OF_THE_ABOVE and not 0 <= choice < round_.option_count:
            raise FeedbackError(
                f"scripted choice {choice} is out of range for {round_.option_count} options"
            )
        return choice
