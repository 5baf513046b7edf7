"""Configuration of the QFE interaction loop and Database Generator.

The paper exposes two tunables — the relation-count scale factor ``β`` of
Equation (3) and the time threshold ``δ`` bounding Algorithm 3 — and fixes a
number of behavioural choices (worst-case automated feedback, refined
iteration estimate, side-effect-aware costing). :class:`QFEConfig` captures
all of them so experiments can vary each independently, including the
ablations listed in DESIGN.md.
"""

from __future__ import annotations

import argparse
import enum
from dataclasses import dataclass

__all__ = [
    "IterationEstimator",
    "QFEConfig",
    "nonnegative_int",
    "BACKEND_CHOICES",
    "backend_name",
]

#: Execution-backend names accepted everywhere a worker count is accepted
#: (``QFEConfig.backend``, every ``--backend`` flag, the service config).
BACKEND_CHOICES = ("auto", "serial", "warm")


class _BackendNameError(ValueError, argparse.ArgumentTypeError):
    """Unknown backend name.

    Doubly derived so programmatic callers can catch the conventional
    ``ValueError`` while ``argparse`` (which only preserves the message of an
    ``ArgumentTypeError``) still shows the list of valid choices in its usage
    error instead of a bare "invalid value".
    """


def backend_name(text: str) -> str:
    """Parse/validate a backend name (``argparse`` type for ``--backend``).

    Validates at parse time — before any dataset is loaded — so an unknown
    name exits with a usage message instead of failing mid-session.
    """
    normalized = text.strip().lower()
    if normalized not in BACKEND_CHOICES:
        raise _BackendNameError(
            f"unknown backend {text!r}; choose from {', '.join(BACKEND_CHOICES)}"
        )
    return normalized


def nonnegative_int(text: str) -> int:
    """``argparse`` type for counts that must be ≥ 0 (e.g. ``--workers``).

    Validates at parse time — before any dataset is loaded — and keeps the
    invariant in one place for every CLI; a bad value makes ``argparse``
    exit with status 2 and a usage message on stderr.
    """
    value = int(text)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


class IterationEstimator(enum.Enum):
    """Which estimate of the number of remaining iterations the cost model uses."""

    NAIVE = "naive"  # Equation (6): log2 of the largest subset
    REFINED = "refined"  # Equations (7)-(9) using Lemma 3.1's bound


@dataclass(frozen=True)
class QFEConfig:
    """Tunable parameters of a QFE session.

    Attributes
    ----------
    beta:
        The scale parameter ``β`` of Equation (3): how many attribute
        modifications one additional modified *relation* is worth. The paper's
        default is 1.
    delta_seconds:
        The time threshold ``δ`` bounding Algorithm 3 (skyline enumeration).
        The paper's default is 1 second.
    iteration_estimator:
        Whether the cost model uses the naive Equation (6) or the refined
        Equations (7)–(9) estimate of remaining iterations.
    max_iterations:
        Safety bound on the number of feedback rounds before the session
        aborts (the paper's sessions finish in at most ~11 rounds).
    max_skyline_pairs:
        Hard cap on the number of skyline (STC, DTC) pairs handed to
        Algorithm 4; Table 5 shows Algorithm 4's runtime grows quickly with
        |SP| while partitioning quality saturates around 50–100 pairs.
    max_subset_size:
        Upper bound on the cardinality of the (STC, DTC) subset picked by
        Algorithm 4 (the loop of Algorithm 4 is additionally pruned by its
        balance-improvement rule).
    growth_pool_size:
        How many skyline pairs (ordered by their single-pair balance) are
        eligible to *extend* an existing pair set in Algorithm 4. A pure
        Python guard on the quadratic expansion step; Table 5 shows the
        chosen partitioning is insensitive to considering more pairs.
    max_sets_per_level:
        Cap on Algorithm 4's frontier per cardinality level (best-balance
        sets are kept), bounding the worst case of the set-growth loop.
    prefer_no_side_effects:
        Prefer base-tuple modifications whose join-index fanout is 1, so a
        single tuple-class modification changes a single joined row
        (Section 5.4.1 "tuple-class modifications that have no side-effects
        are preferred").
    validate_constraints:
        Reject materialized modifications that violate primary-key or
        foreign-key constraints (Section 6.3).
    set_semantics:
        Treat candidate queries under set semantics (Section 6.1) instead of
        the default bag semantics.
    protect_key_columns:
        Never modify primary-key or foreign-key columns when materializing a
        destination tuple class (keeps every generated database trivially
        valid; disable to exercise the constraint checker instead).
    workers:
        How many worker processes the round planner's candidate-modification
        search fans out over. ``0`` (the default) and ``1`` run the serial
        in-process backend; ``2`` or more run the warm worker pool, whose
        persistent workers hold a snapshot of the base database. Results are
        bit-identical regardless of the worker count.
    backend:
        Which execution backend the search runs on: ``"auto"`` (the default)
        derives it from ``workers`` as above, ``"serial"`` forces the
        in-process oracle, and ``"warm"`` forces the warm worker pool
        (workers keep versioned base state across rounds and sessions and
        score the attempts the driver planned). Every backend produces
        bit-identical transcripts.
    """

    beta: float = 1.0
    delta_seconds: float = 1.0
    iteration_estimator: IterationEstimator = IterationEstimator.REFINED
    max_iterations: int = 50
    max_skyline_pairs: int = 130
    max_subset_size: int = 6
    growth_pool_size: int = 48
    max_sets_per_level: int = 96
    prefer_no_side_effects: bool = True
    validate_constraints: bool = True
    set_semantics: bool = False
    protect_key_columns: bool = True
    workers: int = 0
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.delta_seconds <= 0:
            raise ValueError("delta_seconds must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.max_skyline_pairs < 1:
            raise ValueError("max_skyline_pairs must be at least 1")
        if self.max_subset_size < 1:
            raise ValueError("max_subset_size must be at least 1")
        if self.growth_pool_size < 1:
            raise ValueError("growth_pool_size must be at least 1")
        if self.max_sets_per_level < 1:
            raise ValueError("max_sets_per_level must be at least 1")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"choose from {', '.join(BACKEND_CHOICES)}"
            )

    def with_overrides(self, **overrides) -> "QFEConfig":
        """A copy of this configuration with selected fields replaced."""
        from dataclasses import replace

        return replace(self, **overrides)
