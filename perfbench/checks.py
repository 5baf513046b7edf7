"""Correctness checks applied to every run; each failed check is a failed operation."""

from __future__ import annotations


def cold_session_problems(record: dict, reference_sha: str | None) -> list[str]:
    """Why one cold session's record is wrong (empty when it passes).

    The truthful user must keep the target among the surviving candidates,
    no round's skyline may have stopped on the wall clock, and every session
    of one invocation must produce the same canonical transcript.
    """
    problems = []
    if not record.get("target_survived"):
        problems.append("the target query did not survive the truthful user's session")
    if record.get("truncated_by_time"):
        problems.append(
            f"{record['truncated_by_time']} round(s) had the skyline truncated by wall-clock time"
        )
    if record.get("skyline_rounds", 0) < record.get("rounds", 0):
        problems.append("a round ran without the skyline being observed")
    if reference_sha is not None and record.get("transcript_sha256") != reference_sha:
        problems.append("the canonical transcript differs from the invocation's first session")
    return problems


def transcript_problem(served: str, reference: str) -> str | None:
    """A served transcript must be byte-equal to the in-process reference."""
    if served == reference:
        return None
    return f"served transcript ({len(served)} bytes) differs from the reference ({len(reference)} bytes)"


#: Largest share of a traced session's time its root calls may keep as their
#: own self time. Every layer the benchmark names is wrapped, so the roots
#: themselves do little; a layer that loses its wrapper moves its time here.
MAX_UNATTRIBUTED_SHARE = 0.05


def coverage_problem(layer_self_s: float, unattributed_s: float, session_s: float) -> str | None:
    """Layer self times must account for the traced session's time.

    Layer self times plus the root calls' own time must add up to
    ``session_s``, and the root calls' own time must stay under
    ``MAX_UNATTRIBUTED_SHARE`` of it.
    """
    covered = layer_self_s + unattributed_s
    tolerance = max(0.01 * session_s, 0.005)
    if abs(covered - session_s) > tolerance:
        return (
            f"layer self times ({layer_self_s:.4f}s) + unattributed ({unattributed_s:.4f}s) "
            f"= {covered:.4f}s do not account for session_s {session_s:.4f}s"
        )
    if unattributed_s > MAX_UNATTRIBUTED_SHARE * session_s:
        return (
            f"unattributed time {unattributed_s:.4f}s is over {MAX_UNATTRIBUTED_SHARE:.0%} "
            f"of session_s {session_s:.4f}s: a layer is not wrapped"
        )
    return None
