"""Unit tests for conjunction search and DNF covering."""

from repro.qbo.atoms import build_atom_pool
from repro.qbo.config import QBOConfig
from repro.qbo.search import search_conjunctions, search_dnf_covers
from repro.relational.join import full_join
from tests.columns import joined_dicts
from tests.oracles.evaluator_reference import evaluate_row_reference


def _atoms(db, positive, negative, config=None):
    joined = full_join(db)
    config = config or QBOConfig()
    return joined, build_atom_pool(joined, positive, negative, config)


class TestSearchConjunctions:
    def test_empty_negatives_yields_true_conjunct(self, two_table_db):
        joined, atoms = _atoms(two_table_db, [0, 1, 2, 3, 4], [])
        conjuncts = search_conjunctions(atoms, [0, 1, 2, 3, 4], [], QBOConfig())
        assert len(conjuncts) == 1
        assert len(conjuncts[0]) == 0

    def test_every_conjunct_separates(self, two_table_db):
        positive, negative = [0, 2], [1, 3, 4]
        joined, atoms = _atoms(two_table_db, positive, negative)
        config = QBOConfig()
        rows = joined_dicts(joined)
        for conjunct in search_conjunctions(atoms, positive, negative, config):
            for p in positive:
                assert evaluate_row_reference(conjunct, rows[p])
            for n in negative:
                assert not evaluate_row_reference(conjunct, rows[n])

    def test_irredundant_results(self, two_table_db):
        positive, negative = [0], [1, 2, 3, 4]
        joined, atoms = _atoms(two_table_db, positive, negative)
        conjuncts = search_conjunctions(atoms, positive, negative, QBOConfig())
        keys = [frozenset(str(t) for t in c.terms) for c in conjuncts]
        for i, key in enumerate(keys):
            for j, other in enumerate(keys):
                if i != j:
                    assert not key < other  # no conjunct is a strict subset of another

    def test_respects_max_terms(self, two_table_db):
        positive, negative = [0, 2], [1, 3, 4]
        joined, atoms = _atoms(two_table_db, positive, negative)
        config = QBOConfig(max_terms_per_conjunct=1)
        for conjunct in search_conjunctions(atoms, positive, negative, config):
            assert len(conjunct) <= 1

    def test_respects_node_budget(self, two_table_db):
        positive, negative = [0, 2], [1, 3, 4]
        joined, atoms = _atoms(two_table_db, positive, negative)
        config = QBOConfig(max_search_nodes=1)
        assert len(search_conjunctions(atoms, positive, negative, config)) <= 1


class TestSearchDNFCovers:
    def test_cover_found_for_disjoint_groups(self, two_table_db):
        # Positives Bo (Sales, 55) and Di (Service, 40) share no single
        # conjunction that excludes all others with one attribute each, but a
        # 2-conjunct DNF over dname works.
        positive, negative = [1, 3], [0, 2, 4]
        joined, _ = _atoms(two_table_db, positive, negative)
        config = QBOConfig(max_conjuncts=2)
        covers = search_dnf_covers(joined, positive, negative, config)
        assert covers
        rows = joined_dicts(joined)
        for predicate in covers:
            for p in positive:
                assert evaluate_row_reference(predicate, rows[p])
            for n in negative:
                assert not evaluate_row_reference(predicate, rows[n])

    def test_cover_respects_max_conjuncts(self, two_table_db):
        positive, negative = [1, 3], [0, 2, 4]
        joined, _ = _atoms(two_table_db, positive, negative)
        covers = search_dnf_covers(joined, positive, negative, QBOConfig(max_conjuncts=1))
        for predicate in covers:
            assert len(predicate.conjuncts) <= 1

    def test_no_cover_for_impossible_split(self, two_table_db):
        # A row cannot be both positive and negative… simulate impossibility by
        # demanding a cover while excluding the seed's identical twin via an
        # attribute set that cannot distinguish them: use max_terms 0 budget.
        positive, negative = [1, 3], [0, 2, 4]
        joined, _ = _atoms(two_table_db, positive, negative)
        config = QBOConfig(max_conjuncts=2, max_terms_per_conjunct=1, allow_membership_terms=False)
        covers = search_dnf_covers(joined, positive, negative, config)
        rows = joined_dicts(joined)
        for predicate in covers:
            for n in negative:
                assert not evaluate_row_reference(predicate, rows[n])
