"""Per-round phase breakdown computed from a span trace.

The tracer records *what happened*; this module answers *where the time
went*. Each ``session.propose`` span is one round; its descendant spans are
folded into the round's lifecycle phases:

======================  ====================================================
phase                   source spans
======================  ====================================================
``prepare``             ``round.prepare`` (join, tuple classes, Algorithms
                        3 + 4)
``evaluate``            ``round.search`` (attempt scoring)
``materialize``         ``round.materialize`` (the winner's partition)
``present``             ``round.present`` (feedback-round construction)
``other``               the propose remainder not covered above
======================  ====================================================

Because ``other`` is defined as the remainder, the phases of a round sum to
the round's measured wall-clock *by construction* — the acceptance bound
(within 10%) only has floating-point noise to survive.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

__all__ = [
    "PHASES",
    "load_spans",
    "phase_breakdown",
    "aggregate_phases",
    "render_summary",
]

PHASES = ("prepare", "evaluate", "materialize", "present", "other")

_PHASE_OF_SPAN = {
    "round.prepare": "prepare",
    "round.search": "evaluate",
    "round.materialize": "materialize",
    "round.present": "present",
}


def load_spans(source) -> list[dict]:
    """Spans from a JSON-lines path, an open file, or a list of dicts."""
    if isinstance(source, list):
        return list(source)
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    return [json.loads(line) for line in source if line.strip()]


def _children_index(spans: list[dict]) -> dict[int | None, list[dict]]:
    children: dict[int | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    return children


def _descendants(span: dict, children: dict) -> Iterable[dict]:
    stack = list(children.get(span["span_id"], ()))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children.get(node["span_id"], ()))


def phase_breakdown(source) -> list[dict]:
    """One entry per round (``session.propose`` span), in trace order.

    Each entry: ``{"round": n, "total_s": wall, "phases": {phase: seconds},
    "attrs": propose-span attrs}``. Phases sum to ``total_s`` exactly.
    """
    spans = load_spans(source)
    children = _children_index(spans)
    proposes = sorted(
        (s for s in spans if s["name"] == "session.propose"),
        key=lambda s: s["span_id"],
    )
    rounds = []
    for index, propose in enumerate(proposes, start=1):
        phases = dict.fromkeys(PHASES, 0.0)
        for node in _descendants(propose, children):
            phase = _PHASE_OF_SPAN.get(node["name"])
            if phase is not None:
                phases[phase] += node["duration_s"]
        total = propose["duration_s"]
        phases["other"] = max(0.0, total - sum(phases.values()))
        rounds.append(
            {
                "round": index,
                "total_s": total,
                "phases": phases,
                "attrs": propose.get("attrs", {}),
            }
        )
    return rounds


def aggregate_phases(source) -> dict[str, float]:
    """Phase seconds summed over every round in the trace.

    The shape the scenario sweep records per session into
    ``BENCH_scenarios.json`` (``phase_seconds``).
    """
    totals = dict.fromkeys(PHASES, 0.0)
    for entry in phase_breakdown(source):
        for phase, seconds in entry["phases"].items():
            totals[phase] += seconds
    return {phase: round(seconds, 6) for phase, seconds in totals.items()}


def render_summary(source) -> str:
    """A per-round phase table plus a totals row (the ``qfe-trace summary``)."""
    rounds = phase_breakdown(source)
    if not rounds:
        return "no session.propose spans in trace\n"
    headers = ["round", "total_s"] + [f"{p}_s" for p in PHASES] + ["top phase"]
    body: list[list[str]] = []
    totals = dict.fromkeys(PHASES, 0.0)
    grand_total = 0.0
    for entry in rounds:
        phases = entry["phases"]
        top = max(phases, key=lambda p: phases[p])
        share = 100.0 * phases[top] / entry["total_s"] if entry["total_s"] else 0.0
        body.append(
            [str(entry["round"]), f"{entry['total_s']:.4f}"]
            + [f"{phases[p]:.4f}" for p in PHASES]
            + [f"{top} ({share:.0f}%)"]
        )
        for phase in PHASES:
            totals[phase] += phases[phase]
        grand_total += entry["total_s"]
    body.append(
        ["all", f"{grand_total:.4f}"]
        + [f"{totals[p]:.4f}" for p in PHASES]
        + [""]
    )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in body)
    return "\n".join(lines) + "\n"
