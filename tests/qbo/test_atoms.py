"""Unit tests for candidate atom generation."""

import pytest

from repro.qbo.atoms import build_atom_pool
from repro.qbo.config import QBOConfig
from repro.relational.columnar import mask_positions
from repro.relational.database import Database
from repro.relational.join import full_join
from repro.relational.predicates import ComparisonOp


def _pool(db, positive, negative, **config_kwargs):
    joined = full_join(db)
    config = QBOConfig(**config_kwargs)
    return joined, build_atom_pool(joined, positive, negative, config)


class TestAtomInvariants:
    def test_atoms_cover_all_positives(self, two_table_db):
        joined, pool = _pool(two_table_db, positive=[0, 2], negative=[1, 3, 4])
        assert pool
        for atom in pool:
            assert {0, 2} <= set(mask_positions(atom.selected))

    def test_atoms_exclude_some_negative(self, two_table_db):
        joined, pool = _pool(two_table_db, positive=[0, 2], negative=[1, 3, 4])
        assert pool
        for atom in pool:
            assert {1, 3, 4} - set(mask_positions(atom.selected))

    def test_deterministic_order(self, two_table_db):
        _, first = _pool(two_table_db, positive=[0], negative=[1, 2, 3, 4])
        _, second = _pool(two_table_db, positive=[0], negative=[1, 2, 3, 4])
        assert [str(a.term) for a in first] == [str(a.term) for a in second]

    def test_excluded_attributes_respected(self, two_table_db):
        joined = full_join(two_table_db)
        config = QBOConfig()
        pool = build_atom_pool(
            joined, [0], [1, 2, 3, 4], config,
            excluded_attributes=("Emp.eid", "Emp.did", "Dept.did"),
        )
        attributes = {atom.term.attribute for atom in pool}
        assert "Emp.eid" not in attributes
        assert "Emp.did" not in attributes


class TestNumericAtoms:
    def test_threshold_variants_scale_with_config(self, two_table_db):
        _, one = _pool(two_table_db, positive=[0], negative=[1, 3, 4], threshold_variants=1)
        _, three = _pool(two_table_db, positive=[0], negative=[1, 3, 4], threshold_variants=3)
        salary_one = [a for a in one if a.term.attribute == "Emp.salary"]
        salary_three = [a for a in three if a.term.attribute == "Emp.salary"]
        assert len(salary_three) >= len(salary_one)

    def test_integer_domain_avoids_equivalent_thresholds(self, two_table_db):
        # Emp.salary values: 90(+), 55, 70, 40, 65 — all integers. The variants
        # emitted for the positive row must be pairwise distinguishable, i.e.
        # an integer value can fall strictly between consecutive cut points.
        _, pool = _pool(two_table_db, positive=[0], negative=[1, 2, 3, 4], threshold_variants=3)
        cuts = sorted(
            float(a.term.constant)
            for a in pool
            if a.term.attribute == "Emp.salary" and a.term.op in (ComparisonOp.GE, ComparisonOp.GT)
        )
        for low, high in zip(cuts, cuts[1:]):
            assert int(high) - int(low) >= 1 or (high - low) >= 1

    def test_equality_atom_for_single_positive_value(self, two_table_db):
        _, pool = _pool(two_table_db, positive=[0], negative=[1, 2, 3, 4])
        equals = [a for a in pool if a.term.attribute == "Emp.salary" and a.term.op is ComparisonOp.EQ]
        assert equals and equals[0].term.constant == 90

    def test_tight_atoms_keep_integers_beyond_2_53_exact(self):
        # 2^53 + 1 and 2^53 + 3 have no double of their own; through float()
        # the tight atoms named 2^53 and missed the positive row.
        big = 2**53
        database = Database.from_tables({"S": (["id", "x"], [[0, big + 1], [1, big + 3], [2, 5]])})
        _, pool = _pool(database, positive=[0], negative=[1, 2], threshold_variants=3)
        terms = {str(atom.term) for atom in pool if atom.term.attribute == "S.x"}
        assert {f"S.x <= {big + 1}", f"S.x >= {big + 1}", f"S.x = {big + 1}"} <= terms


    @pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
    def test_integer_cuts_beyond_the_float_range_are_exact(self, sign):
        # p ± 1.5 overflowed for an int beyond the float range; on an integer
        # column x > p - 1.5 is x > p - 2 (and x < p + 1.5 is x < p + 2).
        huge = sign * 10**400
        rows = [[0, huge, "a"], [1, 5, "b"], [2, 8, "c"], [3, 12, "d"], [4, huge + sign, "e"]]
        database = Database.from_tables({"T": (["id", "x", "name"], rows)})
        _, pool = _pool(database, positive=[0, 4], negative=[1, 2, 3])
        terms = {str(atom.term) for atom in pool if atom.term.attribute == "T.x"}
        if sign > 0:
            tight, cut = f"T.x >= {huge}", f"T.x > {huge - 2}"
        else:
            tight, cut = f"T.x <= {huge}", f"T.x < {huge + 2}"
        assert {tight, cut} <= terms

    @pytest.mark.parametrize(
        "target", [f"T.x >= {10**400}", f"T.x <= {-10**400}"], ids=["above", "below"]
    )
    def test_generation_over_integers_beyond_the_float_range(self, target):
        from repro.qbo.generator import QueryGenerator
        from repro.relational.evaluator import evaluate
        from repro.sql.parser import parse_query

        huge = 10**400 if ">" in target else -(10**400)
        step = 1 if huge > 0 else -1
        rows = [[0, huge, "a"], [1, 5, "b"], [2, 8, "c"], [3, 12, "d"], [4, huge + step, "e"]]
        database = Database.from_tables({"T": (["id", "x", "name"], rows)})
        result = evaluate(parse_query(f"SELECT T.name FROM T WHERE {target}"), database)
        candidates = QueryGenerator().generate(database, result)
        assert candidates
        assert all(evaluate(query, database).bag_equal(result) for query in candidates)
        assert target in {str(query.predicate) for query in candidates}


class TestCategoricalAtoms:
    def test_equality_for_single_value(self, two_table_db):
        _, pool = _pool(two_table_db, positive=[0], negative=[1, 3])
        names = [a for a in pool if a.term.attribute == "Emp.ename"]
        assert any(a.term.op is ComparisonOp.EQ and a.term.constant == "Ann" for a in names)

    def test_membership_for_multiple_values(self, two_table_db):
        joined, pool = _pool(two_table_db, positive=[0, 2], negative=[1, 3])
        enames = joined.columnar().column("Emp.ename")
        expected = {enames[0], enames[2]}
        names = [a for a in pool if a.term.attribute == "Emp.ename"]
        assert any(a.term.op is ComparisonOp.IN and set(a.term.constant) == expected for a in names)

    def test_membership_disabled(self, two_table_db):
        _, pool = _pool(two_table_db, positive=[0, 2], negative=[1, 3], allow_membership_terms=False)
        assert not any(a.term.op is ComparisonOp.IN for a in pool)

    def test_negated_atoms_when_enabled(self, two_table_db):
        _, with_negation = _pool(
            two_table_db, positive=[0, 1, 2, 4], negative=[3], allow_negated_terms=True
        )
        assert any(a.term.op in (ComparisonOp.NE, ComparisonOp.NOT_IN) for a in with_negation)
        _, without = _pool(two_table_db, positive=[0, 1, 2, 4], negative=[3])
        assert not any(a.term.op in (ComparisonOp.NE, ComparisonOp.NOT_IN) for a in without)
