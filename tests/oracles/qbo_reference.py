"""Reference QBO candidate generation: per-row joins, value sets and row scans.

The pieces candidate generation used before it ran on the shared join
engine, with one correction: join keys, value domains and row groups compare
raw values, so distinct integers beyond 2^53 stay distinct.

* :func:`foreign_key_join_reference` builds each joined row as a dict,
  inserts it through ``Relation.insert`` (per-cell coercion) and keeps a
  per-row provenance dict: a :class:`ReferenceJoin`. It becomes the engine's
  :class:`~repro.relational.join.JoinedRelation` only where the reference
  calls into the engine (labeling and result verification).
* :func:`candidate_projections_reference` scans a joined column once per
  (result column, joined column) pair.
* :func:`build_atom_pool_reference` selects rows with the term interpreter
  (:func:`~tests.oracles.evaluator_reference.evaluate_value_reference`) into
  position sets.
* :func:`search_conjunctions_reference` and :func:`search_dnf_covers_reference`
  combine those sets with fresh Python sets per combination.
* :func:`generate_reference` is the generator loop over these pieces, joining
  every schema cold. It is the oracle for ``QueryGenerator.generate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Any, Sequence

from repro.exceptions import NoCandidateQueriesError
from repro.qbo.atoms import _categorical_atoms, _is_numeric_value, _numeric_atoms
from repro.qbo.config import QBOConfig
from repro.qbo.join_enumeration import enumerate_join_schemas
from repro.qbo.labeling import label_rows
from repro.qbo.projection import _name_matches, _types_compatible
from repro.relational.columnar import ColumnarView
from repro.relational.database import Database
from repro.relational.evaluator import evaluate_batch, result_fingerprint
from repro.relational.join import JoinedRelation, _joined_schema
from repro.relational.predicates import Conjunct, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.relational.schema import ForeignKey, qualify
from tests.oracles.evaluator_reference import evaluate_value_reference


# ------------------------------------------------------------------- the join
@dataclass
class ReferenceJoin:
    """The dict-row join: its rows, coerced cell by cell, and per-row provenance."""

    relation: Relation
    tables: tuple[str, ...]
    foreign_keys: tuple[ForeignKey, ...]
    provenance: list[dict[str, int]]

    def __len__(self) -> int:
        return len(self.relation)

    @cached_property
    def engine(self) -> JoinedRelation:
        """These rows and ids as the engine's join, for calls into the engine."""
        schema = self.relation.schema
        return JoinedRelation(
            schema=schema,
            tables=self.tables,
            foreign_keys=self.foreign_keys,
            tuple_ids={t: tuple(ids[t] for ids in self.provenance) for t in self.tables},
            view=ColumnarView(schema.attribute_names, self.relation.rows()),
        )


def foreign_key_join_reference(database: Database, tables: Sequence[str]) -> ReferenceJoin:
    """The foreign-key join of *tables*, one dict per joined row."""
    ordered = list(dict.fromkeys(tables))
    spanning = database.schema.spanning_foreign_keys(ordered)
    schema = _joined_schema("_JOIN_".join(ordered), database, ordered)
    joined_tables = [ordered[0]]
    first = database.relation(ordered[0])
    rows: list[dict[str, Any]] = []
    provenance: list[dict[str, int]] = []
    for base_tuple in first.tuples:
        rows.append(
            {
                qualify(ordered[0], name): value
                for name, value in zip(first.schema.attribute_names, base_tuple.values)
            }
        )
        provenance.append({ordered[0]: base_tuple.tuple_id})
    remaining = list(spanning)
    while len(joined_tables) < len(ordered):
        for fk in list(remaining):
            if fk.child_table in joined_tables and fk.parent_table not in joined_tables:
                new_table, existing_table = fk.parent_table, fk.child_table
                pairs = [(parent, child) for child, parent in fk.column_pairs()]
            elif fk.parent_table in joined_tables and fk.child_table not in joined_tables:
                new_table, existing_table = fk.child_table, fk.parent_table
                pairs = [(child, parent) for child, parent in fk.column_pairs()]
            else:
                continue
            rows, provenance = _attach_reference(
                database, rows, provenance, existing_table, new_table, pairs
            )
            joined_tables.append(new_table)
            remaining.remove(fk)
            break
    relation = Relation(schema)
    names = schema.attribute_names
    for row in rows:
        relation.insert([row.get(name) for name in names])
    return ReferenceJoin(relation, tuple(ordered), tuple(spanning), provenance)


def _attach_reference(database, rows, provenance, existing_table, new_table, pairs):
    new_relation = database.relation(new_table)
    positions = [new_relation.schema.index_of(new) for new, _ in pairs]
    existing = [qualify(existing_table, old) for _, old in pairs]
    index: dict[tuple, list] = {}
    for base_tuple in new_relation.tuples:
        key = tuple(base_tuple.values[p] for p in positions)
        if any(part is None for part in key):
            continue
        index.setdefault(key, []).append(base_tuple)
    names = new_relation.schema.attribute_names
    joined_rows, joined_provenance = [], []
    for row, row_provenance in zip(rows, provenance):
        key = tuple(row.get(name) for name in existing)
        if any(part is None for part in key):
            continue
        for match in index.get(key, ()):
            combined = dict(row)
            for name, value in zip(names, match.values):
                combined[qualify(new_table, name)] = value
            joined_rows.append(combined)
            extended = dict(row_provenance)
            extended[new_table] = match.tuple_id
            joined_provenance.append(extended)
    return joined_rows, joined_provenance


# ------------------------------------------------------------- projections
def candidate_projections_reference(
    joined: ReferenceJoin, result: Relation, config: QBOConfig
) -> list[tuple[str, ...]]:
    """Projection lists, scanning each joined column per result column."""
    per_column: list[list[str]] = []
    for result_attribute in result.schema.attributes:
        needed = {v for v in result.column(result_attribute.name) if v is not None}
        matches = []
        for joined_attribute in joined.relation.schema.attributes:
            if not _types_compatible(result_attribute.type, joined_attribute.type):
                continue
            available = {
                v for v in joined.relation.column(joined_attribute.name) if v is not None
            }
            if needed <= available:
                matches.append(joined_attribute.name)
        if config.match_columns_by_name:
            named = [m for m in matches if _name_matches(result_attribute.name, m)]
            if named:
                matches = named
        if not matches:
            return []
        per_column.append(matches)
    projections: list[tuple[str, ...]] = []
    for combination in product(*per_column):
        if len(set(combination)) != len(combination):
            continue
        projections.append(tuple(combination))
        if len(projections) >= config.max_projection_mappings:
            break
    return projections


# ------------------------------------------------------------------- atoms
def build_atom_pool_reference(
    joined: ReferenceJoin,
    positive: Sequence[int],
    negative: Sequence[int],
    config: QBOConfig,
    *,
    excluded_attributes: Sequence[str] = (),
) -> list[tuple[Term, frozenset]]:
    """``(term, selected row positions)`` per atom, in the generator's order."""
    atoms: list[tuple[Term, frozenset]] = []
    negatives = list(negative)
    for attribute in joined.relation.schema.attribute_names:
        if attribute in excluded_attributes:
            continue
        values = joined.relation.column(attribute)
        terms = list(_numeric_atoms(attribute, values, positive, negatives, config))
        if not all(_is_numeric_value(values[i]) or values[i] is None for i in positive):
            terms.extend(_categorical_atoms(attribute, values, positive, negatives, config))
        for term in terms:
            selected = frozenset(
                i for i, v in enumerate(values) if evaluate_value_reference(term, v)
            )
            if not all(p in selected for p in positive):
                continue
            if negatives and all(n in selected for n in negatives):
                continue
            atoms.append((term, selected))
    unique: dict[tuple, tuple[Term, frozenset]] = {}
    for term, selected in atoms:
        unique.setdefault((term.attribute, term.op.value, term.constants()), (term, selected))
    return sorted(
        unique.values(),
        key=lambda atom: (-len(frozenset(n for n in negatives if n not in atom[1])), str(atom[0])),
    )


# ------------------------------------------------------------------ search
def search_conjunctions_reference(
    atoms: Sequence[tuple[Term, frozenset]],
    negative: Sequence[int],
    config: QBOConfig,
) -> list[Conjunct]:
    """Irredundant separating conjunctions, checked with one set per combination."""
    negative_set = frozenset(negative)
    if not negative_set:
        return [Conjunct(())]
    valid: list[Conjunct] = []
    valid_keys: list[frozenset] = []
    nodes = 0
    for size in range(1, min(config.max_terms_per_conjunct, len(atoms)) + 1):
        for combo in combinations(range(len(atoms)), size):
            nodes += 1
            if nodes > config.max_search_nodes:
                return valid
            picked = [atoms[i] for i in combo]
            if len({term.attribute for term, _ in picked}) > config.max_selection_attributes:
                continue
            combo_key = frozenset(combo)
            if any(existing <= combo_key for existing in valid_keys):
                continue
            excluded: set[int] = set()
            for _, selected in picked:
                excluded |= set(negative_set) - set(selected)
            if excluded >= negative_set:
                valid.append(Conjunct(tuple(term for term, _ in picked)))
                valid_keys.append(combo_key)
    return valid


def _grow_reference(joined, seed, positives, negatives, config, excluded_attributes):
    pool = build_atom_pool_reference(
        joined, [seed], negatives, config, excluded_attributes=excluded_attributes
    )
    if not pool:
        return None
    remaining = set(negatives)
    chosen: list[tuple[Term, frozenset]] = []
    covered = frozenset(positives)
    while remaining and len(chosen) < config.max_terms_per_conjunct:
        best = None
        for atom in pool:
            if atom in chosen:
                continue
            newly_excluded = remaining - set(atom[1])
            if not newly_excluded:
                continue
            key = (len(newly_excluded), len(covered & atom[1]))
            if best is None or key > best[:2]:
                best = (*key, atom)
        if best is None:
            return None
        atom = best[2]
        chosen.append(atom)
        remaining -= remaining - set(atom[1])
        covered = covered & atom[1]
    if remaining:
        return None
    return Conjunct(tuple(term for term, _ in chosen)), covered


def search_dnf_covers_reference(
    joined: ReferenceJoin,
    positive: Sequence[int],
    negative: Sequence[int],
    config: QBOConfig,
    *,
    excluded_attributes: Sequence[str] = (),
) -> list[DNFPredicate]:
    """The greedy sequential cover over position sets."""
    uncovered = set(positive)
    conjuncts: list[Conjunct] = []
    guard = 0
    while uncovered and len(conjuncts) < config.max_conjuncts and guard < 10 * len(positive) + 10:
        guard += 1
        seed = min(uncovered)
        learned = _grow_reference(
            joined, seed, sorted(uncovered), negative, config, excluded_attributes
        )
        if learned is None:
            return []
        conjunct, covered = learned
        newly_covered = uncovered & covered
        if not newly_covered:
            newly_covered = {seed} if seed in covered else set()
            if not newly_covered:
                return []
        conjuncts.append(conjunct)
        uncovered -= newly_covered
    if uncovered:
        return []
    return [DNFPredicate(tuple(conjuncts))]


# --------------------------------------------------------------- generation
def _excluded_attributes(database: Database, tables: Sequence[str], config: QBOConfig):
    if not config.exclude_key_columns:
        return ()
    excluded: list[str] = []
    schema = database.schema
    for table in tables:
        excluded.extend(f"{table}.{c}" for c in schema.table(table).primary_key)
    for fk in schema.foreign_keys:
        if fk.child_table in tables:
            excluded.extend(f"{fk.child_table}.{c}" for c in fk.child_columns)
        if fk.parent_table in tables:
            excluded.extend(f"{fk.parent_table}.{c}" for c in fk.parent_columns)
    return tuple(dict.fromkeys(excluded))


def generate_reference(
    database: Database,
    result: Relation,
    config: QBOConfig,
    *,
    set_semantics: bool = False,
) -> list[SPJQuery]:
    """The candidate list ``QueryGenerator(config).generate`` must return."""
    candidates: dict[tuple, SPJQuery] = {}
    target = result_fingerprint(result, set_semantics=set_semantics)
    for tables in enumerate_join_schemas(database.schema, config):
        try:
            joined = foreign_key_join_reference(database, list(tables))
        except Exception:
            continue
        if len(joined) == 0:
            continue
        for projection in candidate_projections_reference(joined, result, config):
            _candidates_for_projection(
                database, result, joined, tables, projection, set_semantics, target,
                candidates, config,
            )
            if len(candidates) >= config.max_candidates:
                break
        if len(candidates) >= config.max_candidates:
            break
    if not candidates:
        raise NoCandidateQueriesError("the reference generator found no candidate")
    ordered = sorted(
        candidates.values(), key=lambda q: (len(q.tables), q.predicate.term_count(), str(q))
    )
    return ordered[: config.max_candidates]


def _candidates_for_projection(
    database, result, joined, tables, projection, set_semantics, target, candidates, config
) -> None:
    positions = [joined.relation.schema.index_of(a) for a in projection]
    labeling = label_rows(joined.engine, positions, result, set_semantics=set_semantics)
    if not labeling.feasible:
        return
    predicates: list[DNFPredicate] = []
    if labeling.is_trivially_all and config.allow_true_predicate:
        predicates.append(DNFPredicate.true())
    excluded = _excluded_attributes(database, tables, config)
    variants = [
        (
            list(labeling.positive_rows) + list(labeling.ambiguous_rows),
            list(labeling.negative_rows),
        )
    ]
    if labeling.has_ambiguity and labeling.positive_rows:
        variants.append((list(labeling.positive_rows), list(labeling.negative_rows)))
    seen: set = set()
    for keep, drop in variants:
        if not keep or not drop:
            continue
        atoms = build_atom_pool_reference(joined, keep, drop, config, excluded_attributes=excluded)
        found = [
            DNFPredicate((conjunct,)) if conjunct.terms else DNFPredicate.true()
            for conjunct in search_conjunctions_reference(atoms, drop, config)
        ]
        if not found and config.max_conjuncts > 1:
            found.extend(
                search_dnf_covers_reference(
                    joined, keep, drop, config, excluded_attributes=excluded
                )
            )
        for predicate in found:
            key = predicate.canonical_key()
            if key not in seen:
                seen.add(key)
                predicates.append(predicate)
    pending: list[tuple[tuple, SPJQuery]] = []
    pending_keys: set = set()
    for predicate in predicates:
        query = SPJQuery(tables, projection, predicate)
        key = query.canonical_key()
        if key in candidates or key in pending_keys:
            continue
        pending_keys.add(key)
        pending.append((key, query))
    if not pending:
        return
    batch = evaluate_batch(
        [query for _, query in pending],
        joined.engine,
        database,
        set_semantics=set_semantics,
        name=result.schema.name,
    )
    for (key, query), fingerprint in zip(pending, batch.fingerprints):
        if fingerprint == target:
            candidates[key] = query
            if config.include_distinct_variants and not set_semantics:
                distinct = query.with_distinct(True)
                check = evaluate_batch(
                    [distinct], joined.engine, database, name=result.schema.name
                )
                if check.fingerprints[0] == target:
                    candidates[distinct.canonical_key()] = distinct
        if len(candidates) >= config.max_candidates:
            return
