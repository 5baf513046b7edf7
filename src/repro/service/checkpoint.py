"""Versioned session checkpoints and machine-readable transcripts.

A **checkpoint** holds what a :class:`~repro.core.session.QFESession` cannot
rebuild: its inputs and its choices. Algorithm 1 is a deterministic state
machine over ``(D, R, candidates, config, choices)``, so a suspended session
resumes, in this process or another one, by replaying its call log
(:meth:`~repro.core.session.QFESession.replay`).

The blob is UTF-8 JSON. Line 1 is the **header**: magic, version, session
id, status, iteration, remaining candidates, the example pair's workload
reference (or ``null``), metadata and the body's ``payload_sha256``. The
**body** holds the ``QFEConfig`` and ``QBOConfig`` fields, the initial
candidates, the :attr:`~repro.core.session.QFESession.log` (each round with
the number of (STC, DTC) pairs Algorithm 3 enumerated, each accepted
choice), the sha256 of each presented round
(:attr:`~repro.core.feedback.FeedbackRound.sha256`)
and ``state_sha256``, a digest of the surviving candidates and canonical
iteration records the last call left. Candidates are written structurally,
not as SQL: plain JSON is exact for strings, bools, floats (NaN, ±infinity
and −0.0 included) and ints up to ``sys.get_int_max_str_digits()`` digits;
a longer int is ``{"hex": ...}``.

:func:`restore_checkpoint` checks ``payload_sha256`` before parsing the
body, builds a fresh session from the logged inputs (the config
constructors validate every field), replays the log — each round is planned
exactly as it was live, since ``δ`` is a pair budget and no clock is read, and
must reproduce its logged pair count — and compares the digests. Anything
else is refused with :class:`~repro.exceptions.CheckpointError`; nothing is
unpickled. Replayed rounds re-measure their timing fields, which the
canonical transcript excludes.

The example pair is stored by **reference** (a workload name and scale,
rebuilt from its seeded generator) unless the caller passes the live pair
(``database=``/``result=``), as the service does; a checkpoint without a
reference restores only with the pair passed in. :data:`CHECKPOINT_VERSION`
bumps on any incompatible layout change, and other versions are refused
(versions 1 to 5 pickled the session's object graph).

The **transcript** serializers at the bottom render a session's interaction
history as plain JSON-able dicts. The *canonical* form
(``include_timings=False``) contains only deterministic quantities — choices,
partitions, deltas, costs, counts, the identified SQL — so two runs of the
same session spec can be compared byte-for-byte; ``include_timings`` adds
the wall-clock fields for human consumption.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.core.config import IterationEstimator, QFEConfig
from repro.core.feedback import feedback_round_dict
from repro.core.session import IterationRecord, QFESession, SessionResult
from repro.exceptions import CheckpointError
from repro.obs.trace import get_tracer
from repro.qbo.config import QBOConfig
from repro.relational.database import Database
from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.relational.types import long_int_hex

__all__ = [
    "CHECKPOINT_VERSION",
    "CHECKPOINT_MAGIC",
    "DatabaseRef",
    "capture_checkpoint",
    "read_checkpoint_header",
    "restore_checkpoint",
    "iteration_record_dict",
    "feedback_round_dict",
    "session_transcript",
    "transcript_json",
]

CHECKPOINT_MAGIC = "qfe-session-checkpoint"
CHECKPOINT_VERSION = 6


@dataclass(frozen=True)
class DatabaseRef:
    """A checkpoint's reference to its example pair ``(D, R)``: a named
    workload at a scale, rebuilt deterministically from its seeded
    generator at resume time."""

    name: str
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise CheckpointError("a workload reference requires a name")

    @classmethod
    def workload(cls, name: str, scale: float = 1.0) -> "DatabaseRef":
        return cls(name, scale)

    def to_json(self) -> dict:
        return {"name": self.name, "scale": self.scale}

    @classmethod
    def from_json(cls, payload: dict) -> "DatabaseRef":
        try:
            return cls(name=payload["name"], scale=float(payload.get("scale", 1.0)))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed database reference {payload!r}") from exc

    def build(self) -> tuple[Database, Relation]:
        """Rebuild the referenced example pair."""
        from repro.workloads import build_pair

        database, result, _ = build_pair(self.name, self.scale)
        return database, result


# ------------------------------------------------------------------ checkpoint
def _constant_json(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_constant_json(item) for item in value]
    hexed = long_int_hex(value)
    return value if hexed is None else {"hex": hexed}


def _constant_from_json(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_constant_from_json(item) for item in value)
    if isinstance(value, dict):
        return int(value["hex"], 16)
    return value


def _query_json(query: SPJQuery) -> list:
    conjuncts = [
        [[term.attribute, term.op.value, _constant_json(term.constant)] for term in conjunct.terms]
        for conjunct in query.predicate.conjuncts
    ]
    return [list(query.tables), list(query.projection), conjuncts, query.distinct]


def _query_from_json(payload: list) -> SPJQuery:
    tables, projection, conjuncts, distinct = payload
    predicate = DNFPredicate(
        Conjunct(Term(a, ComparisonOp(op), _constant_from_json(c)) for a, op, c in terms)
        for terms in conjuncts
    )
    return SPJQuery(tables, projection, predicate, distinct=distinct)


def _config_json(config) -> dict:
    fields = {field.name: getattr(config, field.name) for field in dataclasses.fields(config)}
    if isinstance(config, QFEConfig):
        fields["iteration_estimator"] = config.iteration_estimator.value
    return fields


def _state_sha256(session: QFESession) -> str:
    """sha256 of what the calls left that no round digest covers: the
    surviving candidates, the canonical iteration records and the status."""
    candidates = session.candidates
    state = {
        "candidates": None if candidates is None else [_query_json(q) for q in candidates],
        "iterations": [iteration_record_dict(record) for record in session.outcome.iterations],
        "status": session.status,
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode("utf-8")).hexdigest()


def _rounds(session: QFESession) -> int:
    """Rounds the session planned, a round that exhausted it included."""
    return sum(1 for entry in session.log if entry[0] == "round")


def capture_checkpoint(
    session: QFESession,
    *,
    session_id: str,
    database_ref: DatabaseRef | None = None,
    metadata: dict | None = None,
) -> bytes:
    """Serialize *session*'s inputs and call log into one checkpoint blob.

    With a *database_ref* the resuming side can rebuild the example pair;
    without one, restoring needs the pair passed in.
    """
    with get_tracer().span("checkpoint.write", session_id=session_id):
        candidates = session.initial_candidates
        state = {
            "config": _config_json(session.config),
            "qbo_config": _config_json(session.qbo_config),
            "candidates": None if candidates is None else [_query_json(q) for q in candidates],
            "log": session.log,
            "round_sha256": [round_.sha256 for round_ in session.last_rounds],
            "state_sha256": _state_sha256(session),
        }
        try:
            body = json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"session cannot be serialized: {exc}") from exc
        header = {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "session_id": session_id,
            "status": session.status,
            "iteration": _rounds(session),
            "remaining_candidates": (
                session.remaining_candidates if session.status != "new" else None
            ),
            "database_ref": database_ref.to_json() if database_ref is not None else None,
            "metadata": metadata or {},
            "payload_sha256": hashlib.sha256(body).hexdigest(),
        }
        return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body


def read_checkpoint_header(blob: bytes) -> dict:
    """Parse and validate a checkpoint's JSON header without reading the body."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise CheckpointError("not a QFE checkpoint: missing header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"not a QFE checkpoint: unreadable header ({exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError("not a QFE checkpoint: bad magic")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return header


def restore_checkpoint(
    blob: bytes,
    *,
    database: Database | None = None,
    result: Relation | None = None,
    score=None,
    join_cache=None,
) -> tuple[QFESession, dict]:
    """Rebuild the checkpointed session by a verified replay; returns ``(session, header)``.

    The example pair binds in precedence order: explicit ``database``/
    ``result`` arguments (the service passes its shared live instances),
    then a rebuild from the workload reference. Process-local resources
    (score function, join cache) are never checkpointed and always come
    from the caller; the replay plans its rounds over ``join_cache``.
    """
    with get_tracer().span("checkpoint.restore") as span:
        header = read_checkpoint_header(blob)
        body = blob[blob.find(b"\n") + 1 :]
        if hashlib.sha256(body).hexdigest() != header.get("payload_sha256"):
            raise CheckpointError(
                "checkpoint payload is corrupt: its sha256 does not match the "
                "header (truncated or altered file)"
            )
        if (database is None or result is None) and header.get("database_ref") is None:
            raise CheckpointError(
                "checkpoint has no workload reference; pass database= and result= explicitly"
            )
        try:
            if database is None or result is None:
                database, result = DatabaseRef.from_json(header["database_ref"]).build()
            state = json.loads(body)
            config = dict(state["config"])
            config["iteration_estimator"] = IterationEstimator(config["iteration_estimator"])
            candidates = state["candidates"]
            if candidates is not None:
                candidates = [_query_from_json(query) for query in candidates]
            session = QFESession(
                database,
                result,
                candidates=candidates,
                config=QFEConfig(**config),
                qbo_config=QBOConfig(**state["qbo_config"]),
                score=score,
                join_cache=join_cache,
            )
            session.replay(state["log"])
            logged = (state["round_sha256"], state["state_sha256"])
        except Exception as exc:  # everything read from the store is untrusted
            raise CheckpointError(f"checkpoint does not replay: {exc}") from exc
        if ([r.sha256 for r in session.last_rounds], _state_sha256(session)) != logged:
            raise CheckpointError("the replayed session differs from the checkpointed one")
        span.set(rounds_replayed=_rounds(session))
        return session, header


# ------------------------------------------------------------------ transcript
def iteration_record_dict(record: IterationRecord, *, include_timings: bool = False) -> dict:
    """One :class:`IterationRecord` as a JSON-able dict."""
    payload = {
        "iteration": record.iteration,
        "candidate_count": record.candidate_count,
        "subset_count": record.subset_count,
        "skyline_pair_count": record.skyline_pair_count,
        "db_cost": record.db_cost,
        "result_cost": record.result_cost,
        "modified_attribute_count": record.modified_attribute_count,
        "modified_relation_count": record.modified_relation_count,
        "modified_tuple_count": record.modified_tuple_count,
        "chosen_option": record.chosen_option,
        "remaining_candidates": record.remaining_candidates,
    }
    if include_timings:
        payload["execution_seconds"] = record.execution_seconds
        payload["skyline_seconds"] = record.skyline_seconds
        payload["selection_seconds"] = record.selection_seconds
        payload["materialize_seconds"] = record.materialize_seconds
    return payload


def session_transcript(
    session: QFESession,
    *,
    workload: str | None = None,
    include_timings: bool = False,
) -> dict:
    """The session's full interaction history as one JSON-able dict.

    The default (no timings) is the **canonical transcript**: a pure function
    of the session spec and the submitted choices, identical byte-for-byte
    across processes and checkpoint/resume boundaries. Each round enters as a
    fresh copy of the presentation the round built once (the one its
    checkpoint digest and its HTTP body read), so changing the dict changes
    neither.
    """
    outcome: SessionResult = session.outcome
    identified_sql = None
    if outcome.identified_query is not None:
        from repro.sql.render import render_query

        identified_sql = render_query(outcome.identified_query, session.database.schema)
    payload: dict[str, Any] = {
        "workload": workload,
        "status": session.status,
        "converged": outcome.converged,
        "exhausted": outcome.exhausted,
        "initial_candidate_count": outcome.initial_candidate_count,
        "iteration_count": outcome.iteration_count,
        "remaining_candidate_count": len(outcome.remaining_queries),
        "identified_sql": identified_sql,
        "iterations": [
            iteration_record_dict(record, include_timings=include_timings)
            for record in outcome.iterations
        ],
        "rounds": [feedback_round_dict(round_) for round_ in session.last_rounds],
    }
    if include_timings:
        payload["query_generation_seconds"] = outcome.query_generation_seconds
        payload["total_seconds"] = outcome.total_seconds
    return payload


def transcript_json(transcript: dict) -> str:
    """Canonical JSON text of a transcript dict (stable keys and separators)."""
    return json.dumps(transcript, sort_keys=True, separators=(",", ":"))
