"""Unit tests for primary-key / foreign-key validation (Section 6.3)."""

import pytest

from repro.exceptions import ForeignKeyViolation, PrimaryKeyViolation
from tests.oracles.constraints_reference import (
    check_foreign_keys,
    check_primary_keys,
    constraint_violations,
    modification_is_valid,
    validate_database,
)


class TestPrimaryKeys:
    def test_valid_database_has_no_violations(self, two_table_db):
        assert check_primary_keys(two_table_db) == []

    def test_duplicate_primary_key_detected(self, two_table_db):
        broken = two_table_db.copy()
        broken.relation("Emp").update_value(1, "eid", 1)
        violations = check_primary_keys(broken)
        assert len(violations) == 1
        assert "duplicate primary key" in violations[0]

    def test_null_primary_key_detected(self, two_table_db):
        broken = two_table_db.copy()
        broken.relation("Dept").update_value(0, "did", None)
        assert any("NULL in primary key" in v for v in check_primary_keys(broken))


class TestForeignKeys:
    def test_valid_database_has_no_violations(self, two_table_db):
        assert check_foreign_keys(two_table_db) == []

    def test_dangling_reference_detected(self, two_table_db):
        broken = two_table_db.copy()
        broken.relation("Emp").update_value(0, "did", 99)
        violations = check_foreign_keys(broken)
        assert len(violations) == 1
        assert "missing parent key" in violations[0]

    def test_null_foreign_key_is_allowed(self, two_table_db):
        modified = two_table_db.copy()
        modified.relation("Emp").update_value(0, "did", None)
        assert check_foreign_keys(modified) == []


class TestValidation:
    def test_validate_passes_on_valid_database(self, two_table_db):
        validate_database(two_table_db)
        assert modification_is_valid(two_table_db)

    def test_validate_raises_primary_key_first(self, two_table_db):
        broken = two_table_db.copy()
        broken.relation("Dept").update_value(0, "did", 2)  # duplicate PK and dangling FK
        with pytest.raises(PrimaryKeyViolation):
            validate_database(broken)

    def test_validate_raises_foreign_key(self, two_table_db):
        broken = two_table_db.copy()
        broken.relation("Emp").update_value(0, "did", 42)
        with pytest.raises(ForeignKeyViolation):
            validate_database(broken)
        assert not modification_is_valid(broken)

    def test_constraint_violations_aggregates(self, two_table_db):
        broken = two_table_db.copy()
        broken.relation("Emp").update_value(0, "did", 42)
        broken.relation("Emp").update_value(1, "eid", 3)
        assert len(constraint_violations(broken)) == 2

    def test_datasets_are_valid(self, scientific_db, baseball_db, adult_db):
        for database in (scientific_db, baseball_db, adult_db):
            assert modification_is_valid(database)
