"""Reference ``Δ(D, D')``: the whole-database minimum-edit diff.

Modified relations are those whose instances differ as bags; each one is
diffed by ``min_edit_script``. This reads every row of both databases and
needs no tuple ids, which makes it the oracle for the presented delta that
``repro.relational.delta.database_delta`` reads off the recorded updates.
"""

from __future__ import annotations

from repro.relational.database import Database
from repro.relational.delta import DatabaseDelta, RelationDelta
from repro.relational.edit import min_edit_script


def database_delta_reference(original: Database, modified: Database) -> DatabaseDelta:
    """``Δ(D, D')`` as per-relation minimum edit scripts."""
    deltas = []
    for name in original.table_names:
        source, target = original.relation(name), modified.relation(name)
        if not source.bag_equal(target):
            deltas.append(RelationDelta(name, min_edit_script(source, target)))
    return DatabaseDelta(tuple(deltas))
