#!/usr/bin/env python3
"""Validate every span line of a ``--trace-out`` JSON-lines trace.

Usage::

    python scripts/check_trace.py trace.jsonl

Checks, per line: valid JSON object; required fields present with the right
types (``name``, ``span_id``, ``parent_id``, ``pid``, ``thread``,
``t_wall``, ``t_start``, ``duration_s``, ``attrs``); non-negative duration;
span ids unique; every non-null ``parent_id`` referring to a span id that
appears in the file; every child's ``[t_start, t_start + duration_s]``
window inside its parent's (within ``NESTING_TOLERANCE_S``). Round timings
in the session records are span durations, so a misnested span is a wrong
record too. CI runs this against a traced Q2 session so a format or nesting
regression fails fast instead of silently producing broken artifacts.

Exit code 0 when the trace is valid, 1 otherwise (problems on stderr).
Hand-rolled against the schema below because the toolchain deliberately has
no third-party deps (no ``jsonschema``).
"""

from __future__ import annotations

import json
import sys

#: field name -> accepted types (None in the tuple = null is allowed).
SPAN_SCHEMA: dict[str, tuple] = {
    "name": (str,),
    "span_id": (int,),
    "parent_id": (int, None),
    "pid": (int,),
    "thread": (str,),
    "t_wall": (int, float),
    "t_start": (int, float),
    "duration_s": (int, float),
    "attrs": (dict,),
}

#: Slack for float rounding when comparing a child's window to its parent's.
NESTING_TOLERANCE_S = 1e-9


def check_line(line_no: int, line: str, problems: list[str]) -> dict | None:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        problems.append(f"line {line_no}: not valid JSON: {exc}")
        return None
    if not isinstance(record, dict):
        problems.append(f"line {line_no}: span must be a JSON object")
        return None
    for field, accepted in SPAN_SCHEMA.items():
        if field not in record:
            problems.append(f"line {line_no}: missing field {field!r}")
            continue
        value = record[field]
        if value is None:
            if None not in accepted:
                problems.append(f"line {line_no}: field {field!r} must not be null")
            continue
        types = tuple(t for t in accepted if t is not None)
        # bool is an int subclass; a boolean span_id/pid would be a bug.
        if not isinstance(value, types) or isinstance(value, bool):
            problems.append(
                f"line {line_no}: field {field!r} has type "
                f"{type(value).__name__}, expected {'/'.join(t.__name__ for t in types)}"
            )
    unknown = set(record) - set(SPAN_SCHEMA)
    if unknown:
        problems.append(f"line {line_no}: unknown fields {sorted(unknown)}")
    if isinstance(record.get("duration_s"), (int, float)) and record["duration_s"] < 0:
        problems.append(f"line {line_no}: negative duration_s {record['duration_s']}")
    return record


def check_trace(path: str) -> list[str]:
    problems: list[str] = []
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                problems.append(f"line {line_no}: blank line in JSON-lines trace")
                continue
            record = check_line(line_no, line, problems)
            if record is not None:
                spans.append(record)
    if not spans:
        problems.append("trace contains no spans")
        return problems
    seen_ids: set[int] = set()
    for record in spans:
        span_id = record.get("span_id")
        if isinstance(span_id, int) and not isinstance(span_id, bool):
            if span_id in seen_ids:
                problems.append(f"duplicate span_id {span_id}")
            seen_ids.add(span_id)
    by_id = {record.get("span_id"): record for record in spans}
    for record in spans:
        parent_id = record.get("parent_id")
        if parent_id is None:
            continue
        if parent_id not in seen_ids:
            problems.append(
                f"span {record.get('span_id')} has dangling parent_id {parent_id}"
            )
            continue
        child, parent = _window(record), _window(by_id[parent_id])
        if child is None or parent is None:
            continue  # a malformed time field is already reported
        if (
            child[0] < parent[0] - NESTING_TOLERANCE_S
            or child[1] > parent[1] + NESTING_TOLERANCE_S
        ):
            problems.append(
                f"span {record['span_id']} ({record.get('name')}) window "
                f"[{child[0]}, {child[1]}] is not inside its parent {parent_id} "
                f"({by_id[parent_id].get('name')}) window [{parent[0]}, {parent[1]}]"
            )
    return problems


def _window(record: dict) -> tuple[float, float] | None:
    """A span's ``[t_start, t_start + duration_s]``, or None when malformed."""
    start, duration = record.get("t_start"), record.get("duration_s")
    for value in (start, duration):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return None
    return (start, start + duration)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_trace.py TRACE.jsonl", file=sys.stderr)
        return 2
    try:
        problems = check_trace(argv[1])
    except OSError as exc:
        print(f"cannot read {argv[1]}: {exc}", file=sys.stderr)
        return 2
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{argv[1]}: INVALID ({len(problems)} problem(s))", file=sys.stderr)
        return 1
    print(f"{argv[1]}: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
