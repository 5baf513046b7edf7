"""In-memory relational engine: the substrate QFE runs on.

This package implements everything the QFE algorithms assume from an RDBMS:
typed schemas with primary/foreign keys, bag-semantics relations, foreign-key
joins with base-tuple ids and join indexes, SPJ query evaluation, the
Section 3 edit model (``minEdit``), the recorded tuple delta and delta
presentation.
"""

from repro.relational.columnar import COLUMNAR_STATS, ColumnarView
from repro.relational.database import Database
from repro.relational.delta import (
    DatabaseDelta,
    ResultDelta,
    TupleDelta,
    database_delta,
    result_delta,
)
from repro.relational.edit import (
    EditKind,
    EditOperation,
    EditScript,
    min_edit_relation,
    min_edit_script,
    tuple_distance,
)
from repro.relational.evaluator import (
    BatchEvaluation,
    JoinCache,
    evaluate,
    evaluate_batch,
    evaluate_on_join,
    results_equal,
)
from repro.relational.join import JOIN_STATS, JoinedRelation, foreign_key_join, full_join
from repro.relational.predicates import (
    ComparisonOp,
    Conjunct,
    DNFPredicate,
    Term,
    compile_term,
)
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation, Tuple
from repro.relational.schema import Attribute, DatabaseSchema, ForeignKey, TableSchema, qualify
from repro.relational.types import AttributeType

__all__ = [
    "AttributeType",
    "Attribute",
    "TableSchema",
    "ForeignKey",
    "DatabaseSchema",
    "qualify",
    "Tuple",
    "Relation",
    "Database",
    "ComparisonOp",
    "Term",
    "Conjunct",
    "DNFPredicate",
    "SPJQuery",
    "compile_term",
    "ColumnarView",
    "COLUMNAR_STATS",
    "evaluate",
    "evaluate_on_join",
    "evaluate_batch",
    "BatchEvaluation",
    "results_equal",
    "JoinCache",
    "JoinedRelation",
    "JOIN_STATS",
    "foreign_key_join",
    "full_join",
    "EditKind",
    "EditOperation",
    "EditScript",
    "tuple_distance",
    "min_edit_relation",
    "min_edit_script",
    "DatabaseDelta",
    "ResultDelta",
    "TupleDelta",
    "database_delta",
    "result_delta",
]
