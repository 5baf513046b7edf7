"""Selection-predicate search: conjunctions and DNF covers over atom pools.

Two entry points:

* :func:`search_conjunctions` — enumerate conjunctions (subsets of the atom
  pool) that select every positive row and reject every negative row. All
  valid combinations up to the configured size limits are returned (within a
  node budget), because *each* of them is a legitimate candidate query that
  QFE must later tell apart.
* :func:`search_dnf_covers` — when no single conjunction separates positives
  from negatives, greedily build a disjunction of conjunctions by sequential
  covering: each conjunct is anchored on an uncovered positive row, must
  reject every negative row, and is grown to cover as many positives as
  possible.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from repro.qbo.atoms import Atom, build_atom_pool
from repro.qbo.config import QBOConfig
from repro.relational.columnar import positions_mask
from repro.relational.join import JoinedRelation
from repro.relational.predicates import Conjunct, DNFPredicate

__all__ = ["search_conjunctions", "search_dnf_covers"]


def search_conjunctions(
    atoms: Sequence[Atom],
    positive: Sequence[int],
    negative: Sequence[int],
    config: QBOConfig,
) -> list[Conjunct]:
    """All conjunctions of atoms that keep every positive and drop every negative.

    The atoms are assumed to already select every positive row (that is how
    :func:`repro.qbo.atoms.build_atom_pool` constructs them), so the search
    only has to check negative coverage: a combination separates when the OR
    of its atoms' rejected-negative masks is every negative. Combinations are
    enumerated in increasing size; supersets of an already-valid combination
    are skipped so the result lists *irredundant* predicates, and the whole
    search respects ``config.max_search_nodes``.
    """
    negative_mask = positions_mask(negative)
    if not negative_mask:
        return [Conjunct(())]

    rejected = [negative_mask & ~atom.selected for atom in atoms]
    attributes = [atom.term.attribute for atom in atoms]
    valid: list[Conjunct] = []
    # Valid combinations as bitmasks of atom indexes: single atoms in one mask,
    # larger combinations listed.
    valid_singles = 0
    valid_keys: list[int] = []
    nodes = 0
    max_size = min(config.max_terms_per_conjunct, len(atoms))
    for size in range(1, max_size + 1):
        check_attributes = size > config.max_selection_attributes
        for combo in combinations(range(len(atoms)), size):
            nodes += 1
            if nodes > config.max_search_nodes:
                return valid
            if check_attributes and (
                len({attributes[i] for i in combo}) > config.max_selection_attributes
            ):
                continue
            combo_key = 0
            for i in combo:
                combo_key |= 1 << i
            if combo_key & valid_singles or any(not k & ~combo_key for k in valid_keys):
                continue  # a subset already separates; skip redundant supersets
            excluded = 0
            for i in combo:
                excluded |= rejected[i]
            if excluded == negative_mask:
                valid.append(Conjunct(tuple(atoms[i].term for i in combo)))
                if size == 1:
                    valid_singles |= combo_key
                else:
                    valid_keys.append(combo_key)
    return valid


def _grow_conjunct_for_seed(
    joined: JoinedRelation,
    seed: int,
    positives: int,
    negatives: Sequence[int],
    config: QBOConfig,
    excluded_attributes: Sequence[str] = (),
) -> tuple[Conjunct, int] | None:
    """Learn one conjunct that keeps *seed*, drops all negatives, keeps many positives.

    *positives* is a row mask; the returned mask is the part of it the
    conjunct keeps.
    """
    pool = build_atom_pool(
        joined, [seed], negatives, config, excluded_attributes=excluded_attributes
    )
    if not pool:
        return None
    remaining_negatives = positions_mask(negatives)
    chosen: list[int] = []
    covered = positives
    while remaining_negatives and len(chosen) < config.max_terms_per_conjunct:
        best: tuple[int, int, int] | None = None
        for index, atom in enumerate(pool):
            if index in chosen:
                continue
            newly_excluded = (remaining_negatives & ~atom.selected).bit_count()
            if not newly_excluded:
                continue
            key = (newly_excluded, (covered & atom.selected).bit_count())
            if best is None or key > best[:2]:
                best = (*key, index)
        if best is None:
            return None
        chosen.append(best[2])
        selected = pool[best[2]].selected
        remaining_negatives &= selected
        covered &= selected
    if remaining_negatives:
        return None
    return Conjunct(tuple(pool[index].term for index in chosen)), covered


def search_dnf_covers(
    joined: JoinedRelation,
    positive: Sequence[int],
    negative: Sequence[int],
    config: QBOConfig,
    *,
    excluded_attributes: Sequence[str] = (),
) -> list[DNFPredicate]:
    """Greedy sequential-covering search for multi-conjunct DNF predicates.

    Returns at most one DNF predicate (the greedy cover) — richer enumeration
    of alternative covers explodes combinatorially and the single cover is
    enough for the generator to offer a DNF-shaped candidate when no single
    conjunction reproduces the example result.
    """
    uncovered = positions_mask(positive)
    conjuncts: list[Conjunct] = []
    guard = 0
    while uncovered and len(conjuncts) < config.max_conjuncts and guard < 10 * len(positive) + 10:
        guard += 1
        seed = (uncovered & -uncovered).bit_length() - 1
        learned = _grow_conjunct_for_seed(
            joined, seed, uncovered, negative, config, excluded_attributes
        )
        if learned is None:
            return []
        conjunct, covered = learned
        # Every pool atom keeps the seed, so the conjunct covers at least it.
        conjuncts.append(conjunct)
        uncovered &= ~covered
    if uncovered:
        return []
    return [DNFPredicate(tuple(conjuncts))]
