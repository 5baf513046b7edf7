"""Versioned session checkpoints and machine-readable transcripts.

A **checkpoint** is the full state of one :class:`~repro.core.session.QFESession`
— config, surviving candidates, transcript, pending round — serialized so the
session can be suspended (between :meth:`~repro.core.session.QFESession.propose`
and :meth:`~repro.core.session.QFESession.submit`, where sessions spend almost
all of their wall clock) and resumed later, in the same process or another
one, with a bit-identical continuation.

The on-wire format is a hybrid designed for both inspectability and fidelity:

* line 1 — a UTF-8 JSON **header**: format magic, version, session id,
  status, iteration, the *base-database reference* (see below) and the
  ``payload_sha256`` of the payload. Tools can read it without unpickling
  anything.
* the rest — a pickle **payload** of the session state
  (:meth:`QFESession.capture_state`), plus the example pair when it is
  embedded inline.

:func:`restore_checkpoint` checks the payload against ``payload_sha256``
before unpickling it, so a torn or bit-flipped file is refused with
:class:`~repro.exceptions.CheckpointError` instead of resuming a silently
different session.

The base database is stored by **reference** whenever possible: sessions
created from a named paper workload record ``{"kind": "workload", "name",
"scale"}`` and the resuming side rebuilds the (deterministic, seeded) dataset
— keeping checkpoints small and letting many resumed sessions share one live
base instance. Sessions over ad-hoc databases embed the pair inline
(``{"kind": "inline"}``).

Version policy: :data:`CHECKPOINT_VERSION` bumps on any incompatible change
to the header or payload layout; :func:`restore_checkpoint` refuses any other
version with :class:`~repro.exceptions.CheckpointError` instead of guessing.
(Version 2 added ``payload_sha256``; version 3 dropped the worker count
from the captured state and from the pickled config. Older files are
refused.)

A note on randomness: the interaction loop is deterministic end to end —
dataset builders draw from per-dataset seeded generators at *construction*
time, and round planning/materialization/partitioning contain no randomness
— so there is no live RNG state to capture, and resuming from a rebuilt
base database is exact rather than approximate.

The **transcript** serializers at the bottom render a session's interaction
history as plain JSON-able dicts. The *canonical* form
(``include_timings=False``) contains only deterministic quantities — choices,
partitions, deltas, costs, counts, the identified SQL — so two runs of the
same session spec can be compared byte-for-byte (the checkpoint/resume and
serial-vs-service differential harnesses do exactly that); ``include_timings``
adds the wall-clock fields for human consumption.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.feedback import FeedbackRound
from repro.core.session import IterationRecord, QFESession, SessionResult
from repro.exceptions import CheckpointError
from repro.obs.trace import get_tracer
from repro.relational.database import Database
from repro.relational.relation import Relation

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
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class DatabaseRef:
    """How a checkpoint refers to its base example pair ``(D, R)``.

    ``workload`` references a named paper workload (rebuilt deterministically
    at resume time from its seeded generator); ``inline`` means the pair is
    embedded in the checkpoint payload itself.
    """

    kind: str  # "workload" | "inline"
    name: str | None = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("workload", "inline"):
            raise CheckpointError(f"unknown database reference kind {self.kind!r}")
        if self.kind == "workload" and not self.name:
            raise CheckpointError("workload database reference requires a name")

    @classmethod
    def workload(cls, name: str, scale: float = 1.0) -> "DatabaseRef":
        return cls(kind="workload", name=name, scale=scale)

    @classmethod
    def inline(cls) -> "DatabaseRef":
        return cls(kind="inline")

    def to_json(self) -> dict:
        if self.kind == "workload":
            return {"kind": self.kind, "name": self.name, "scale": self.scale}
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, payload: dict) -> "DatabaseRef":
        try:
            return cls(
                kind=payload["kind"],
                name=payload.get("name"),
                scale=float(payload.get("scale", 1.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed database reference {payload!r}") from exc

    def build(self) -> tuple[Database, Relation]:
        """Rebuild the referenced example pair (workload references only)."""
        if self.kind != "workload":
            raise CheckpointError("only workload references can rebuild their pair")
        from repro.workloads import build_pair

        database, result, _ = build_pair(self.name, self.scale)
        return database, result


# ------------------------------------------------------------------ checkpoint
def capture_checkpoint(
    session: QFESession,
    *,
    session_id: str,
    database_ref: DatabaseRef | None = None,
    metadata: dict | None = None,
) -> bytes:
    """Serialize *session* into one self-describing checkpoint blob.

    With a ``workload`` *database_ref* the example pair is stored by
    reference; otherwise (``None`` or :meth:`DatabaseRef.inline`) the live
    ``database``/``result`` objects are pickled into the payload.
    """
    with get_tracer().span("checkpoint.write", session_id=session_id):
        ref = database_ref if database_ref is not None else DatabaseRef.inline()
        state = session.capture_state()
        payload: dict[str, Any] = {"state": state}
        if ref.kind == "inline":
            payload["database"] = session.database
            payload["result"] = session.result
        header = {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "session_id": session_id,
            "status": session.status,
            "iteration": state["iteration"],
            "remaining_candidates": (
                len(state["candidates"]) if state["candidates"] is not None else None
            ),
            "database_ref": ref.to_json(),
            "metadata": metadata or {},
        }
        try:
            body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            header["payload_sha256"] = hashlib.sha256(body).hexdigest()
            header_line = json.dumps(header, sort_keys=True).encode("utf-8")
        except (TypeError, ValueError, pickle.PicklingError) as exc:
            raise CheckpointError(f"session state cannot be serialized: {exc}") from exc
        return header_line + b"\n" + body


def read_checkpoint_header(blob: bytes) -> dict:
    """Parse and validate a checkpoint's JSON header without unpickling."""
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
    """Rebuild the checkpointed session; returns ``(session, header)``.

    The example pair binds in precedence order: explicit ``database``/
    ``result`` arguments (the service passes its shared live instances), the
    inline pair embedded in the payload, then a ``workload`` reference
    rebuild. Process-local resources (score function, join cache) are never
    checkpointed and always come from the caller.
    """
    with get_tracer().span("checkpoint.restore"):
        header = read_checkpoint_header(blob)
        body = blob[blob.find(b"\n") + 1 :]
        if hashlib.sha256(body).hexdigest() != header.get("payload_sha256"):
            raise CheckpointError(
                "checkpoint payload is corrupt: its sha256 does not match the "
                "header (truncated or altered file)"
            )
        try:
            payload = pickle.loads(body)
            state = payload["state"]
        except Exception as exc:
            raise CheckpointError(f"checkpoint payload is corrupt: {exc}") from exc
        if database is None or result is None:
            if payload.get("database") is not None:
                database = payload["database"]
                result = payload["result"]
            else:
                ref = DatabaseRef.from_json(header.get("database_ref") or {})
                if ref.kind != "workload":
                    raise CheckpointError(
                        "checkpoint embeds no example pair and has no workload "
                        "reference; pass database= and result= explicitly"
                    )
                database, result = ref.build()
        session = QFESession.from_state(
            database,
            result,
            state,
            score=score,
            join_cache=join_cache,
        )
        return session, header


# ------------------------------------------------------------------ transcript
def _json_value(value: Any) -> Any:
    """Coerce a stored cell value into a JSON-stable representation."""
    if isinstance(value, float) and value != value:  # NaN has no JSON form
        return "NaN"
    return value


def _rows_payload(relation: Relation) -> list:
    """A relation's bag of rows in canonical (content-sorted) order."""
    items = sorted(relation.bag_of_rows().items(), key=repr)
    return [[[_json_value(v) for v in row], count] for row, count in items]


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


def feedback_round_dict(round_: FeedbackRound) -> dict:
    """One :class:`FeedbackRound` presentation as a JSON-able dict."""
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


def session_transcript(
    session: QFESession,
    *,
    workload: str | None = None,
    include_timings: bool = False,
) -> dict:
    """The session's full interaction history as one JSON-able dict.

    The default (no timings) is the **canonical transcript**: a pure function
    of the session spec and the submitted choices, identical byte-for-byte
    across processes and checkpoint/resume boundaries.
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
