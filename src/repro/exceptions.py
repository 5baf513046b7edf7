"""Exception hierarchy for the QFE reproduction library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class. Sub-hierarchies mirror the package layout:
relational-engine errors, SQL-layer errors, query-generation errors and
QFE-session errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class SchemaError(ReproError):
    """Raised when a schema definition or schema lookup is invalid."""


class TypeMismatchError(SchemaError):
    """Raised when a value does not conform to the declared attribute type."""


class ConstraintViolation(ReproError):
    """Raised when a database instance violates a declared integrity constraint."""


class PrimaryKeyViolation(ConstraintViolation):
    """Raised when two tuples share a primary-key value."""


class ForeignKeyViolation(ConstraintViolation):
    """Raised when a non-null foreign-key value has no referenced primary key."""


class EvaluationError(ReproError):
    """Raised when a query cannot be evaluated on a database."""


class UnsupportedQueryError(EvaluationError):
    """Raised when a query uses features outside the supported SPJ subset."""


class SQLSyntaxError(ReproError):
    """Raised when SQL text cannot be parsed into the supported SPJ subset."""


class QueryGenerationError(ReproError):
    """Raised when the QBO-style query generator cannot produce candidates."""


class NoCandidateQueriesError(QueryGenerationError):
    """Raised when no candidate query is consistent with the (D, R) pair."""


class QFESessionError(ReproError):
    """Raised when the QFE interaction loop is driven incorrectly."""


class FeedbackError(QFESessionError):
    """Raised when user feedback references a result that was not presented."""


class DatabaseGenerationError(ReproError):
    """Raised when no distinguishing modified database can be produced."""


class ServiceError(ReproError):
    """Raised when the session service layer is driven incorrectly."""


class CheckpointError(ServiceError):
    """Raised when a session checkpoint cannot be serialized or restored."""


class SessionNotFound(ServiceError):
    """Raised when a session id matches neither a live session nor a checkpoint."""
