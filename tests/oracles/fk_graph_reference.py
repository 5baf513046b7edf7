"""Reference foreign-key graph queries, answered by networkx.

These are ``DatabaseSchema.join_graph``, ``is_join_connected``,
``spanning_foreign_keys`` and ``enumerate_join_schemas`` as they were when
they built networkx graphs, with the schema as an argument. They are the
oracles for the breadth-first search and the union-find Kruskal in
:class:`~repro.relational.schema.DatabaseSchema`, which must agree on every
answer and on the order of the spanning foreign keys (it sets the
foreign-key join's attach order). Tests that import this module need
networkx (the ``test`` extra); ``src/`` does not.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

import networkx as nx

from repro.exceptions import SchemaError
from repro.qbo.config import QBOConfig
from repro.relational.schema import DatabaseSchema, ForeignKey


def join_graph_reference(schema: DatabaseSchema) -> nx.MultiGraph:
    """The undirected foreign-key join graph (nodes = tables, edges = FKs)."""
    graph = nx.MultiGraph()
    graph.add_nodes_from(schema.tables)
    for fk in schema.foreign_keys:
        graph.add_edge(fk.child_table, fk.parent_table, foreign_key=fk)
    return graph


def is_join_connected_reference(schema: DatabaseSchema, table_names: Iterable[str]) -> bool:
    """Whether the given tables form a connected subgraph of the join graph."""
    names = list(table_names)
    if not names:
        return False
    if len(names) == 1:
        return schema.has_table(names[0])
    subgraph = join_graph_reference(schema).subgraph(names)
    return len(subgraph) == len(names) and nx.is_connected(nx.Graph(subgraph))


def spanning_foreign_keys_reference(
    schema: DatabaseSchema, table_names: Iterable[str]
) -> tuple[ForeignKey, ...]:
    """A set of foreign keys forming a spanning tree over *table_names*.

    Raises :class:`SchemaError` when the tables are not join-connected.
    """
    names = list(dict.fromkeys(table_names))
    if not is_join_connected_reference(schema, names):
        raise SchemaError(f"tables {names} are not connected by foreign keys")
    if len(names) <= 1:
        return ()
    subgraph = nx.Graph()
    for left in names:
        for right in names:
            if left < right and schema.foreign_keys_between(left, right):
                subgraph.add_edge(left, right)
    subgraph.add_nodes_from(names)
    tree = nx.minimum_spanning_tree(subgraph)
    picked: list[ForeignKey] = []
    for left, right in tree.edges():
        picked.append(schema.foreign_keys_between(left, right)[0])
    return tuple(picked)


def enumerate_join_schemas_reference(
    schema: DatabaseSchema, config: QBOConfig
) -> list[tuple[str, ...]]:
    """All connected table subsets of size 1..``max_join_relations``.

    Subsets are returned smallest-first (cheaper joins are tried before wider
    ones) and alphabetically within a size for determinism.
    """
    graph = nx.Graph(join_graph_reference(schema))
    tables = sorted(schema.table_names)
    schemas: list[tuple[str, ...]] = []
    max_size = min(config.max_join_relations, len(tables))
    for size in range(1, max_size + 1):
        for subset in combinations(tables, size):
            if size == 1:
                schemas.append(subset)
                continue
            subgraph = graph.subgraph(subset)
            if len(subgraph) == size and nx.is_connected(subgraph):
                schemas.append(subset)
    return schemas
