"""SQL layer: rendering, parsing and SQLite cross-validation."""

from repro.sql.parser import parse_query
from repro.sql.render import render_predicate, render_query, render_value
from repro.sql.sqlite_backend import SQLiteBackend, cross_check
from repro.sql.tokenizer import Token, tokenize

__all__ = [
    "parse_query",
    "render_query",
    "render_predicate",
    "render_value",
    "SQLiteBackend",
    "cross_check",
    "Token",
    "tokenize",
]
