"""The Section 7.7 studies: initial-pair size, active-domain entropy, user study.

The paper reports these three experiments only in summary form (details in
the companion technical report): no clear trend for the initial-pair-size and
entropy studies, and — for the simulated replay of the user study — the QFE
cost model finishing with slightly more iterations but lower total user time
than the maximize-subsets alternative. The functions below regenerate each
study and return :class:`~repro.experiments.report.ExperimentTable` objects.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.alternative_cost import max_partitions_score
from repro.core.config import QFEConfig
from repro.datasets import adult
from repro.experiments.report import ExperimentTable
from repro.experiments.runner import prepare_candidates, run_session
from repro.experiments.simulated_user import ResponseTimeModel, simulated_oracle_user
from repro.qbo.config import QBOConfig
from repro.relational.columnar import mask_positions
from repro.relational.database import Database
from repro.relational.evaluator import evaluate
from repro.relational.join import full_join
from repro.relational.relation import Relation
from repro.workloads import build_pair

__all__ = ["initial_pair_size_study", "entropy_study", "user_study"]

_QBO = QBOConfig(threshold_variants=2, max_terms_per_conjunct=3, max_candidates=40)


# ------------------------------------------------------------------ §7.7 size
def _database_subset(database: Database, fraction: float, keep_rows: dict[str, set[int]]) -> Database:
    """A copy of the database keeping a fraction of each relation's tuples.

    Tuples listed in ``keep_rows`` (by relation and tuple id) are always kept
    so the target query's result only shrinks monotonically, mirroring the
    paper's construction ``Q(D_i) ⊆ Q(D_{i+1})``.
    """
    reduced = database.copy()
    for relation in reduced:
        keep = keep_rows.get(relation.name, set())
        tuples = list(relation.tuples)
        budget = max(int(round(len(tuples) * fraction)), len(keep), 1)
        kept = 0
        for row in tuples:
            if row.tuple_id in keep:
                kept += 1
        for row in tuples:
            if kept >= budget:
                if row.tuple_id not in keep:
                    relation.delete(row.tuple_id)
                continue
            if row.tuple_id not in keep:
                kept += 1
    return reduced


def initial_pair_size_study(
    scale: float = 0.12,
    *,
    workload_name: str = "Q2",
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
) -> ExperimentTable:
    """Effect of the size of the initial ``(D, R)`` pair (Section 7.7).

    Four nested subsets ``D1 ⊂ D2 ⊂ D3 ⊂ D4 = D`` are built; each keeps the
    target query's qualifying base tuples so ``Q(D_i) ⊆ Q(D_{i+1})``.
    """
    database, result, target = build_pair(workload_name, scale)
    # Base tuples participating in the target result must survive subsetting.
    joined = full_join(database)
    keep: dict[str, set[int]] = {name: set() for name in database.table_names}
    for position in mask_positions(joined.columnar().predicate_mask(target.predicate)):
        for table in joined.tables:
            keep[table].add(joined.base_tuple_of(position, table))

    table = ExperimentTable(
        title=f"Section 7.7: effect of initial database size ({workload_name})",
        columns=["|D_i| / |D|", "DB tuples", "|R_i|", "# of iterations",
                 "Modification cost", "Execution time (s)"],
    )
    for fraction in fractions:
        subset = _database_subset(database, fraction, keep)
        subset_result = evaluate(target, subset, name="R")
        run = run_session(
            subset, subset_result, target,
            qbo_config=_QBO, feedback="worst",
            workload_name=workload_name, scale=scale,
        )
        table.add_row(
            fraction, subset.total_tuples(), len(subset_result), run.iteration_count,
            round(run.total_modification_cost, 1), round(run.execution_seconds, 2),
        )
    table.notes.append("paper finding: no clear performance trend with initial-pair size")
    return table


# --------------------------------------------------------------- §7.7 entropy
def _coarsen_column(database: Database, table: str, column: str, levels: int) -> Database:
    """Reduce the number of distinct values in one column by bucketing.

    Mirrors the paper's datasets ``D1..D5`` that keep everything identical
    except the number of distinct values in a selected selection attribute.
    """
    coarsened = database.copy()
    relation = coarsened.relation(table)
    values = sorted(
        {v for v in relation.column(column) if v is not None},
        key=lambda v: (isinstance(v, str), v),
    )
    if not values or levels >= len(values):
        return coarsened
    bucket_size = max(1, len(values) // levels)
    mapping = {}
    for index, value in enumerate(values):
        bucket_index = min(index // bucket_size, levels - 1)
        mapping[value] = values[bucket_index * bucket_size]
    for row in list(relation.tuples):
        current = relation.value_of(row, column)
        if current is not None and mapping.get(current, current) != current:
            relation.update_value(row.tuple_id, column, mapping[current])
    return coarsened


def entropy_study(
    scale: float = 0.12,
    *,
    workload_name: str = "Q5",
    column: str = "HR",
    distinct_fractions: Sequence[float] = (1.0, 0.8, 0.6, 0.4, 0.2),
) -> ExperimentTable:
    """Effect of the entropy of a selection attribute's active domain (Section 7.7)."""
    database, result, target = build_pair(workload_name, scale)
    from repro.datasets import baseball

    base_distinct = len(database.relation(baseball.BATTING_TABLE).active_domain(column))
    table = ExperimentTable(
        title=f"Section 7.7: effect of active-domain entropy ({workload_name}, {column})",
        columns=["distinct fraction", "# distinct values", "# of iterations",
                 "Modification cost", "Execution time (s)"],
    )
    for fraction in distinct_fractions:
        levels = max(2, int(round(base_distinct * fraction)))
        variant = _coarsen_column(database, baseball.BATTING_TABLE, column, levels)
        variant_result = evaluate(target, variant, name="R")
        run = run_session(
            variant, variant_result, target,
            qbo_config=_QBO, feedback="worst",
            workload_name=workload_name, scale=scale,
        )
        table.add_row(
            fraction, len(variant.relation(baseball.BATTING_TABLE).active_domain(column)),
            run.iteration_count, round(run.total_modification_cost, 1),
            round(run.execution_seconds, 2),
        )
    table.notes.append("paper finding: no clear performance trend with active-domain entropy")
    return table


# ------------------------------------------------------------- §7.7 user study
def user_study(
    scale: float = 0.1,
    *,
    participants: int = 3,
    time_model: ResponseTimeModel | None = None,
) -> ExperimentTable:
    """The simulated replay of the paper's preliminary user study.

    Three simulated participants each determine the three Adult target queries
    twice: once with the QFE cost model and once with the alternative
    maximize-subsets model. Participants differ in their response-time model
    (faster / average / slower readers). Reported per (participant, query,
    approach): iterations, machine time, simulated user time and total time —
    the paper's comparison is on total time, where QFE wins despite sometimes
    needing more iterations.
    """
    base_model = time_model or ResponseTimeModel()
    participant_models = [
        ResponseTimeModel(
            base=base_model.base * factor,
            per_db_edit=base_model.per_db_edit * factor,
            per_result_edit=base_model.per_result_edit * factor,
            per_option=base_model.per_option * factor,
        )
        for factor in (0.7, 1.0, 1.4)[: max(participants, 1)]
    ]
    table = ExperimentTable(
        title="Section 7.7: simulated user study on the Adult dataset",
        columns=["Participant", "Target", "Approach", "# of iterations",
                 "Machine time (s)", "User time (s)", "Total time (s)", "Identified"],
    )
    database = adult.build_database(scale)
    targets = adult.user_study_queries()
    for target_index, target in enumerate(targets, start=1):
        result = evaluate(target, database, name="R")
        candidates, _ = prepare_candidates(database, result, target, qbo_config=_QBO)
        for participant_index, model in enumerate(participant_models, start=1):
            for approach, score in (("QFE", None), ("max-subsets", max_partitions_score)):
                user = simulated_oracle_user(target, time_model=model)
                run = run_session(
                    database, result, target,
                    candidates=candidates, selector=user, score=score,
                    workload_name=f"U{target_index}", scale=scale,
                )
                identified = run.session.identified_query == target
                machine_time = run.execution_seconds
                user_time = user.total_response_seconds
                table.add_row(
                    f"P{participant_index}", f"U{target_index}", approach,
                    run.iteration_count, round(machine_time, 2), round(user_time, 1),
                    round(machine_time + user_time, 1), identified,
                )
    table.notes.append(
        "paper findings: all participants identified their targets; user response time "
        "dominates; the QFE cost model yields lower total time than the maximize-subsets "
        "alternative even when it needs more iterations"
    )
    return table
