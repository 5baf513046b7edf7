"""The Query Generator module (Section 4).

Given an example database–result pair ``(D, R)``, :class:`QueryGenerator`
reverse-engineers a set of candidate SPJ queries ``QC`` with ``Q(D) = R`` for
every ``Q ∈ QC``, in the spirit of the QBO system of Tran et al. that the
paper plugs in. The pipeline per candidate join schema is:

1. join through a :class:`~repro.relational.evaluator.JoinCache` (the
   caller's, so a session or a service pair shares the joins and their term
   masks, or a private one);
2. enumerate plausible projections (:mod:`repro.qbo.projection`);
3. label joined rows as positive/negative/ambiguous (:mod:`repro.qbo.labeling`);
4. build the atom pool from the join's cached term masks and search
   conjunctions / DNF covers as bitmask operations
   (:mod:`repro.qbo.atoms`, :mod:`repro.qbo.search`);
5. verify each assembled query by exact (bag or set) result equality and
   deduplicate.

The generator is deterministic for a given configuration and input pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import NoCandidateQueriesError
from repro.qbo.atoms import build_atom_pool
from repro.qbo.config import QBOConfig
from repro.qbo.join_enumeration import enumerate_join_schemas
from repro.qbo.labeling import label_rows
from repro.qbo.projection import candidate_projections
from repro.qbo.search import search_conjunctions, search_dnf_covers
from repro.relational.database import Database
from repro.relational.evaluator import JoinCache, evaluate_batch, result_fingerprint
from repro.relational.join import foreign_key_join  # noqa: F401 - perfbench wraps it as qbo.join
from repro.relational.predicates import DNFPredicate
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation

__all__ = ["QueryGenerator", "GenerationReport"]


@dataclass
class GenerationReport:
    """Diagnostics of one generation run (useful in experiments and tests)."""

    candidate_count: int = 0
    join_schemas_tried: int = 0
    projections_tried: int = 0
    predicates_verified: int = 0
    predicates_rejected: int = 0
    join_schema_sizes: dict[int, int] = field(default_factory=dict)
    #: Joins built cold during the run; 0 when every schema's join was cached.
    joins_built: int = 0


class QueryGenerator:
    """Reverse-engineer candidate SPJ queries from a ``(D, R)`` example pair."""

    def __init__(self, config: QBOConfig | None = None) -> None:
        self.config = config or QBOConfig()
        self.last_report: GenerationReport | None = None

    # ------------------------------------------------------------------- API
    def generate(
        self,
        database: Database,
        result: Relation,
        *,
        set_semantics: bool = False,
        join_cache: JoinCache | None = None,
    ) -> list[SPJQuery]:
        """All candidate queries consistent with the pair, deterministically ordered.

        Each schema is joined through *join_cache* (a private cache when none
        is given); a warm cache serves the joins and their term masks.
        Raises :class:`NoCandidateQueriesError` when the search space contains
        no consistent query (e.g. the result references values absent from the
        database).
        """
        config = self.config
        cache = join_cache if join_cache is not None else JoinCache()
        built_before = cache.joins_built
        report = GenerationReport()
        candidates: dict[tuple, SPJQuery] = {}
        target_fingerprint = result_fingerprint(result, set_semantics=set_semantics)

        for join_tables in enumerate_join_schemas(database.schema, config):
            report.join_schemas_tried += 1
            report.join_schema_sizes[len(join_tables)] = (
                report.join_schema_sizes.get(len(join_tables), 0) + 1
            )
            try:
                joined = cache.join_for(database, join_tables)
            except Exception:  # not join-connected in a usable way
                continue
            if len(joined) == 0:
                continue
            for projection in candidate_projections(joined, result, config):
                report.projections_tried += 1
                self._candidates_for_projection(
                    database,
                    result,
                    joined,
                    join_tables,
                    projection,
                    set_semantics,
                    target_fingerprint,
                    candidates,
                    report,
                )
                if len(candidates) >= config.max_candidates:
                    break
            if len(candidates) >= config.max_candidates:
                break

        report.candidate_count = len(candidates)
        report.joins_built = cache.joins_built - built_before
        self.last_report = report
        if not candidates:
            raise NoCandidateQueriesError(
                "no candidate SPJ query reproduces the example result under the "
                "current QBOConfig; try QBOConfig.exhaustive() or check the (D, R) pair"
            )
        ordered = sorted(
            candidates.values(),
            key=lambda q: (len(q.tables), q.predicate.term_count(), str(q)),
        )
        return ordered[: config.max_candidates]

    # ------------------------------------------------------------------ steps
    def _excluded_attributes(self, database: Database, join_tables: tuple[str, ...]) -> tuple[str, ...]:
        """Qualified key columns that must not appear in selection predicates."""
        if not self.config.exclude_key_columns:
            return ()
        excluded: list[str] = []
        schema = database.schema
        for table in join_tables:
            for column in schema.table(table).primary_key:
                excluded.append(f"{table}.{column}")
        for fk in schema.foreign_keys:
            if fk.child_table in join_tables:
                excluded.extend(f"{fk.child_table}.{c}" for c in fk.child_columns)
            if fk.parent_table in join_tables:
                excluded.extend(f"{fk.parent_table}.{c}" for c in fk.parent_columns)
        return tuple(dict.fromkeys(excluded))

    def _candidates_for_projection(
        self,
        database: Database,
        result: Relation,
        joined,
        join_tables: tuple[str, ...],
        projection: tuple[str, ...],
        set_semantics: bool,
        target_fingerprint,
        candidates: dict,
        report: GenerationReport,
    ) -> None:
        config = self.config
        projection_positions = [joined.schema.index_of(a) for a in projection]
        labeling = label_rows(joined, projection_positions, result, set_semantics=set_semantics)
        if not labeling.feasible:
            return

        predicates: list[DNFPredicate] = []
        if labeling.is_trivially_all and config.allow_true_predicate:
            predicates.append(DNFPredicate.true())
        excluded = self._excluded_attributes(database, join_tables)
        # Ambiguous rows (projected-value groups only partially required by R)
        # may or may not belong to the selection; search both readings and let
        # the exact bag-equality verification decide.
        keep_drop_variants = [
            (
                list(labeling.positive_rows) + list(labeling.ambiguous_rows),
                list(labeling.negative_rows),
            )
        ]
        if labeling.has_ambiguity and labeling.positive_rows:
            keep_drop_variants.append(
                (list(labeling.positive_rows), list(labeling.negative_rows))
            )
        seen_predicates: set = set()
        for must_keep, must_drop in keep_drop_variants:
            if not must_keep or not must_drop:
                continue
            atoms = build_atom_pool(
                joined, must_keep, must_drop, config, excluded_attributes=excluded
            )
            found_for_variant: list[DNFPredicate] = []
            for conjunct in search_conjunctions(atoms, must_keep, must_drop, config):
                found_for_variant.append(
                    DNFPredicate((conjunct,)) if conjunct.terms else DNFPredicate.true()
                )
            if not found_for_variant and config.max_conjuncts > 1:
                found_for_variant.extend(
                    search_dnf_covers(
                        joined, must_keep, must_drop, config, excluded_attributes=excluded
                    )
                )
            for predicate in found_for_variant:
                key = predicate.canonical_key()
                if key not in seen_predicates:
                    seen_predicates.add(key)
                    predicates.append(predicate)

        # Verify all assembled queries in one columnar batch over the shared
        # join: every distinct selection term is evaluated once per column,
        # and queries selecting identical rows share one materialized result
        # and fingerprint. Bag/set fingerprint equality is exactly bag/set
        # result equality, so comparing against the target fingerprint is the
        # same check ``results_equal`` performed row-at-a-time before.
        pending: list[tuple[tuple, SPJQuery]] = []
        pending_keys: set = set()
        for predicate in predicates:
            query = SPJQuery(join_tables, projection, predicate)
            key = query.canonical_key()
            if key in candidates or key in pending_keys:
                continue
            pending_keys.add(key)
            pending.append((key, query))
        if not pending:
            return
        batch = evaluate_batch(
            [query for _, query in pending],
            joined,
            database,
            set_semantics=set_semantics,
            name=result.schema.name,
        )
        for (key, query), fingerprint in zip(pending, batch.fingerprints):
            report.predicates_verified += 1
            if fingerprint == target_fingerprint:
                candidates[key] = query
                if config.include_distinct_variants and not set_semantics:
                    # The distinct variant reuses the cached predicate mask;
                    # only the deduplicated gather is new work.
                    distinct_query = query.with_distinct(True)
                    distinct_batch = evaluate_batch(
                        [distinct_query], joined, database, name=result.schema.name
                    )
                    if distinct_batch.fingerprints[0] == target_fingerprint:
                        candidates[distinct_query.canonical_key()] = distinct_query
            else:
                report.predicates_rejected += 1
            if len(candidates) >= config.max_candidates:
                return
