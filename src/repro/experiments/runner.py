"""Experiment runner: one call = one QFE session over a paper workload.

The runner standardizes how every table and study of Section 7 obtains its
numbers: build (or accept) the workload's ``(D, R)`` pair, obtain candidate
queries (from the QBO generator, optionally expanded by constant mutation to
a requested size, always including the target query so target-aware feedback
is meaningful), run the session under the requested feedback mode and
configuration, and return the per-iteration records plus aggregate figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

from repro.core.config import QFEConfig
from repro.core.feedback import OracleSelector, ResultSelector, WorstCaseSelector
from repro.core.session import IterationRecord, QFESession, SessionResult
from repro.core.subset_selection import ScoreFunction
from repro.exceptions import NoCandidateQueriesError
from repro.experiments.simulated_user import SimulatedUser
from repro.obs.trace import get_tracer
from repro.qbo.config import QBOConfig
from repro.qbo.generator import QueryGenerator
from repro.qbo.mutation import expand_candidate_set
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.workloads import build_pair

__all__ = [
    "ExperimentRun",
    "prepare_candidates",
    "run_workload",
    "run_session",
    "set_transcript_sink",
]

FeedbackMode = Literal["worst", "oracle"]

_DEFAULT_QBO = QBOConfig(threshold_variants=2, max_terms_per_conjunct=3, max_candidates=60)

#: Process-wide sink collecting the machine-readable transcript of every
#: session :func:`run_session` executes. The experiments CLI installs a list
#: here for ``--transcript-out`` — table/study code stays oblivious — and
#: restores the previous value afterwards.
_TRANSCRIPT_SINK: list | None = None


def set_transcript_sink(sink: list | None) -> list | None:
    """Install a list collecting per-session transcripts; returns the previous sink."""
    global _TRANSCRIPT_SINK
    previous = _TRANSCRIPT_SINK
    _TRANSCRIPT_SINK = sink
    return previous


@dataclass
class ExperimentRun:
    """The outcome of one experiment session plus the inputs that produced it."""

    workload: str
    scale: float
    feedback: str
    config: QFEConfig
    candidate_count: int
    session: SessionResult
    candidate_generation_seconds: float
    simulated_user: SimulatedUser | None = None
    #: Canonical (timing-free) transcript, captured when ``run_session`` was
    #: asked to; byte-identical across runs of the same session spec.
    transcript: dict | None = None

    @property
    def iterations(self) -> list[IterationRecord]:
        """Per-iteration records of the session."""
        return self.session.iterations

    @property
    def iteration_count(self) -> int:
        """Number of feedback rounds."""
        return self.session.iteration_count

    @property
    def total_modification_cost(self) -> float:
        """Total database + result modification cost over the session."""
        return self.session.total_modification_cost

    @property
    def execution_seconds(self) -> float:
        """Candidate generation plus all iteration execution time."""
        return self.candidate_generation_seconds + sum(
            record.execution_seconds for record in self.iterations
        )


def prepare_candidates(
    database: Database,
    result: Relation,
    target: SPJQuery,
    *,
    qbo_config: QBOConfig | None = None,
    candidate_count: int | None = None,
    include_target: bool = True,
    join_cache=None,
) -> tuple[list[SPJQuery], float]:
    """Generate (and optionally resize) the candidate set for an experiment.

    Returns the candidate list and the generation time (the duration of its
    ``qbo.generate`` span). When ``candidate_count`` is given the list is
    truncated or expanded (by constant mutation, Section 7.6's device) to
    that size. ``join_cache`` (shared-not-owned, as in :func:`run_session`)
    serves generation's joins and the mutants' verification.
    """
    with get_tracer().span("qbo.generate") as span:
        generator = QueryGenerator(qbo_config or _DEFAULT_QBO)
        try:
            candidates = generator.generate(database, result, join_cache=join_cache)
        except NoCandidateQueriesError:
            # The configured search space missed every consistent query
            # (possible at very small dataset scales); fall back to the target
            # plus mutants.
            candidates = []
        if include_target and not any(candidate == target for candidate in candidates):
            candidates = [target] + candidates
        if len(candidates) < 2:
            # A single candidate would make the session trivially converge
            # with zero feedback rounds; pad with result-preserving constant
            # mutants so every experiment actually exercises the winnowing loop.
            candidates = expand_candidate_set(
                database, result, candidates, max(candidate_count or 0, 10), join_cache=join_cache
            )
        if candidate_count is not None:
            if len(candidates) > candidate_count:
                kept = candidates[:candidate_count]
                if include_target and not any(candidate == target for candidate in kept):
                    kept[-1] = target
                candidates = kept
            elif len(candidates) < candidate_count:
                candidates = expand_candidate_set(
                    database, result, candidates, candidate_count, join_cache=join_cache
                )
        report = generator.last_report
        span.set(
            join_schemas=report.join_schemas_tried,
            joins_built=report.joins_built,
            candidates=len(candidates),
        )
    return candidates, span.duration_s


def _selector_for(feedback: FeedbackMode, target: SPJQuery) -> ResultSelector:
    if feedback == "worst":
        return WorstCaseSelector()
    if feedback == "oracle":
        return OracleSelector(target)
    raise ValueError(f"unknown feedback mode {feedback!r}")


def run_session(
    database: Database,
    result: Relation,
    target: SPJQuery,
    *,
    candidates: Sequence[SPJQuery] | None = None,
    config: QFEConfig | None = None,
    qbo_config: QBOConfig | None = None,
    candidate_count: int | None = None,
    feedback: FeedbackMode = "worst",
    selector: ResultSelector | None = None,
    score: ScoreFunction | None = None,
    workload_name: str = "custom",
    scale: float = 1.0,
    join_cache=None,
    capture_transcript: bool = False,
) -> ExperimentRun:
    """Run one QFE session over an explicit ``(D, R, target)`` triple.

    ``join_cache`` is shared-not-owned when given: passing the same cache
    across several ``run_session`` calls over the same base database makes
    later sessions start warm (no cold join, prologues replayed from the
    memo), which is how the scenario sweep measures its steady state.
    ``capture_transcript`` records the canonical (timing-free) transcript on
    the returned run, the byte-comparable form the differential harnesses
    use.
    """
    config = config or QFEConfig()
    if candidates is None:
        candidate_list, generation_seconds = prepare_candidates(
            database,
            result,
            target,
            qbo_config=qbo_config,
            candidate_count=candidate_count,
        )
    else:
        candidate_list, generation_seconds = list(candidates), 0.0
    chosen_selector = selector if selector is not None else _selector_for(feedback, target)
    session = QFESession(
        database,
        result,
        candidates=candidate_list,
        config=config,
        score=score,
        join_cache=join_cache,
    )
    outcome = session.run(chosen_selector)
    canonical_transcript: dict | None = None
    if capture_transcript:
        from repro.service.checkpoint import session_transcript

        canonical_transcript = session_transcript(session, workload=workload_name)
    if _TRANSCRIPT_SINK is not None:
        from repro.service.checkpoint import session_transcript

        _TRANSCRIPT_SINK.append(
            {
                "workload": workload_name,
                "scale": scale,
                "feedback": feedback if selector is None else type(chosen_selector).__name__,
                "transcript": session_transcript(
                    session, workload=workload_name, include_timings=True
                ),
            }
        )
    simulated = chosen_selector if isinstance(chosen_selector, SimulatedUser) else None
    return ExperimentRun(
        workload=workload_name,
        scale=scale,
        feedback=feedback if selector is None else type(chosen_selector).__name__,
        config=config,
        candidate_count=len(candidate_list),
        session=outcome,
        candidate_generation_seconds=generation_seconds,
        simulated_user=simulated,
        transcript=canonical_transcript,
    )


def run_workload(
    name: str,
    *,
    scale: float = 1.0,
    config: QFEConfig | None = None,
    qbo_config: QBOConfig | None = None,
    candidate_count: int | None = None,
    feedback: FeedbackMode = "worst",
    selector: ResultSelector | None = None,
    score: ScoreFunction | None = None,
    capture_transcript: bool = False,
) -> ExperimentRun:
    """Run one QFE session over a named workload.

    Accepts the paper workloads (``Q1``…``Q6``, ``U1``…``U3``) and generated
    scenario workloads (``scenario:<preset>[@seed]``).
    """
    database, result, target = build_pair(name, scale)
    run = run_session(
        database,
        result,
        target,
        config=config,
        qbo_config=qbo_config,
        candidate_count=candidate_count,
        feedback=feedback,
        selector=selector,
        score=score,
        workload_name=name,
        scale=scale,
        capture_transcript=capture_transcript,
    )
    return run
