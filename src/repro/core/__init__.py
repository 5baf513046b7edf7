"""QFE core: the paper's primary contribution.

Tuple classes (Section 5.1), the user-effort cost model (Section 3), skyline
enumeration of candidate modifications (Algorithm 3), subset selection
(Algorithm 4), materialization into valid modified databases, result-feedback
presentation and the end-to-end interaction loop (Algorithm 1).
"""

from repro.core.alternative_cost import max_partitions_score
from repro.core.config import IterationEstimator, QFEConfig
from repro.core.cost_model import (
    CostBreakdown,
    balance_score,
    cost_of_effect,
    estimate_iterations,
    estimate_iterations_naive,
    estimate_iterations_refined,
)
from repro.core.database_generator import DatabaseGenerationResult, DatabaseGenerator
from repro.core.execution_backend import AttemptOutcome, SerialBackend
from repro.core.extensions import GroupedSessionResult, group_by_join_schema, run_grouped_session
from repro.core.feedback import (
    NONE_OF_THE_ABOVE,
    CallbackSelector,
    FeedbackRound,
    OracleSelector,
    ResultOption,
    ResultSelector,
    ScriptedSelector,
    WorstCaseSelector,
    build_feedback_round,
)
from repro.core.materialize import AppliedModification, MaterializationResult, materialize_pairs
from repro.core.modification import ClassPair, PairSetEffect, simulate_pair_set
from repro.core.partitioner import QueryGroup, QueryPartition, partition_queries, partition_signature
from repro.core.round_planner import RoundPlan, RoundPlanner
from repro.core.session import (
    IterationRecord,
    PendingRound,
    QFESession,
    RoundStats,
    SessionResult,
    StepResult,
)
from repro.core.skyline import SkylineResult, skyline_stc_dtc_pairs
from repro.core.timing import Stopwatch, monotonic_seconds
from repro.core.subset_selection import SubsetSelectionResult, pick_stc_dtc_subset
from repro.core.tuple_class import DomainPartition, DomainSubset, TupleClass, TupleClassSpace

__all__ = [
    "QFEConfig",
    "IterationEstimator",
    "QFESession",
    "SessionResult",
    "IterationRecord",
    "PendingRound",
    "RoundStats",
    "StepResult",
    "DatabaseGenerator",
    "DatabaseGenerationResult",
    "DomainSubset",
    "DomainPartition",
    "TupleClass",
    "TupleClassSpace",
    "ClassPair",
    "PairSetEffect",
    "simulate_pair_set",
    "CostBreakdown",
    "balance_score",
    "cost_of_effect",
    "estimate_iterations",
    "estimate_iterations_naive",
    "estimate_iterations_refined",
    "skyline_stc_dtc_pairs",
    "SkylineResult",
    "pick_stc_dtc_subset",
    "SubsetSelectionResult",
    "materialize_pairs",
    "MaterializationResult",
    "AppliedModification",
    "partition_queries",
    "partition_signature",
    "QueryPartition",
    "QueryGroup",
    "RoundPlanner",
    "RoundPlan",
    "AttemptOutcome",
    "SerialBackend",
    "Stopwatch",
    "monotonic_seconds",
    "build_feedback_round",
    "FeedbackRound",
    "ResultOption",
    "ResultSelector",
    "WorstCaseSelector",
    "OracleSelector",
    "CallbackSelector",
    "ScriptedSelector",
    "NONE_OF_THE_ABOVE",
    "max_partitions_score",
    "group_by_join_schema",
    "run_grouped_session",
    "GroupedSessionResult",
]
