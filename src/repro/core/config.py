"""Configuration of the QFE interaction loop and Database Generator.

The paper exposes two tunables — the relation-count scale factor ``β`` of
Equation (3) and the threshold ``δ`` bounding Algorithm 3, which here buys a
fixed number of enumerated pairs instead of wall-clock time — and fixes a
number of behavioural choices (worst-case automated feedback, refined
iteration estimate, side-effect-aware costing). :class:`QFEConfig` captures
all of them so experiments can vary each independently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "IterationEstimator",
    "QFEConfig",
    "nonnegative_int",
]


def nonnegative_int(text: str) -> int:
    """``argparse`` type for counts that must be ≥ 0 (e.g. ``--candidates``).

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


def _is_finite(value) -> bool:
    """Whether *value* converts to a finite float; a non-number is a TypeError."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


_COUNT_FIELDS = (
    "max_iterations",
    "max_skyline_pairs",
    "max_subset_size",
    "growth_pool_size",
    "max_sets_per_level",
)
_FLAG_FIELDS = ("prefer_no_side_effects", "set_semantics")


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
        The threshold ``δ`` bounding Algorithm 3 (skyline enumeration) in
        reference seconds: each buys 1,000,000 enumerated (STC, DTC) pairs
        (:data:`repro.core.skyline.PAIRS_PER_DELTA_SECOND`), and no clock is
        read. The paper's default is 1 second, of wall-clock time there.
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
    set_semantics:
        Treat candidate queries under set semantics (Section 6.1) instead of
        the default bag semantics.
    backend:
        Always ``"serial"``: every round scores its attempts in process. Any
        other name is refused.
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
    set_semantics: bool = False
    backend: str = "serial"

    def __post_init__(self) -> None:
        # Client-supplied values arrive untyped (JSON): a bool is an int and a
        # non-empty string is truthy, so each field's type is checked before
        # a round slices, counts or branches on it.
        for name in ("beta", "delta_seconds"):
            if isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a number, not a bool")
        # Both meet float arithmetic in every round (Equation 3's cost, the
        # skyline's pair budget), so NaN, infinity and an integer beyond the
        # float range are refused here rather than failing or leaking there.
        if not (_is_finite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be a finite non-negative number")
        if not (_is_finite(self.delta_seconds) and self.delta_seconds > 0):
            raise ValueError("delta_seconds must be a finite positive number")
        if not isinstance(self.iteration_estimator, IterationEstimator):
            raise TypeError("iteration_estimator must be an IterationEstimator")
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer")
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in _FLAG_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool")
        if self.backend != "serial":
            raise ValueError(
                f"unknown backend {self.backend!r}: rounds always run in process, "
                "so 'serial' is the only backend"
            )

    def with_overrides(self, **overrides) -> "QFEConfig":
        """A copy of this configuration with selected fields replaced."""
        from dataclasses import replace

        return replace(self, **overrides)
