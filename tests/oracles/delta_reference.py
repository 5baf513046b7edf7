"""Reference ``D'``: the base database with its ``TupleDelta`` written into a copy.

The program never builds ``D'``: a round's modified database is the base
``D`` plus the ``TupleDelta`` its materialization recorded, and everything
that reads ``D'`` patches a join of ``D`` instead. Tests that hold those
readers against an independent ``D'`` (a cold join, SQLite, the
whole-database diff, constraint checks) build it here, by copying ``D`` and
replacing each updated tuple's row.
"""

from __future__ import annotations

from repro.relational.database import Database
from repro.relational.delta import TupleDelta


def apply_tuple_delta(database: Database, delta: TupleDelta) -> Database:
    """A copy of *database* with every update of *delta* applied."""
    modified = database.copy()
    for name in delta.relations:
        relation = modified.relation(name)
        for tuple_id, row in delta.updates_for(name).items():
            relation.replace_tuple(tuple_id, row)
    return modified
