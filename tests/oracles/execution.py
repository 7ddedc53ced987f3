"""The iteration engine: the execution oracle for relation trees.

It walks the tree and applies the eager
:class:`~repro.relation.relation.Relation` operators node-for-node, so its
output *is* the eager semantics by construction.  The columnar engine must
be bit-identical to it: same rows in the same order, same schema, same
relation name, and equal provenance expressions.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SchemaError
from repro.relation import (
    Distinct,
    Engine,
    Extend,
    Join,
    Label,
    LeafRelation,
    Project,
    Relation,
    RelationExpr,
    Rename,
    Select,
)


class IterationEngine(Engine):
    """The oracle: apply the eager operators node-for-node."""

    def execute(self, tree: RelationExpr) -> Relation:
        if isinstance(tree, LeafRelation):
            return tree.relation
        if isinstance(tree, Project):
            return self.execute(tree.target).project(list(tree.names))
        if isinstance(tree, Select):
            rel = self.execute(tree.target)
            if tree.predicate is None:
                return rel.where(**dict(tree.conditions))
            return rel.select(_restricted(tree.predicate, tree.input_columns))
        if isinstance(tree, Distinct):
            return self.execute(tree.target).distinct()
        if isinstance(tree, Rename):
            return self.execute(tree.target).rename(dict(tree.mapping))
        if isinstance(tree, Label):
            return self.execute(tree.target).renamed(tree.label)
        if isinstance(tree, Extend):
            return self.execute(tree.target).extend(
                tree.column, _restricted(tree.fn, tree.input_columns)
            )
        if isinstance(tree, Join):
            return self.execute(tree.left).join(
                self.execute(tree.right),
                on=list(tree.pairs),
                suffix=tree.suffix,
                keep_right=tree.keep_right,
            )
        raise SchemaError(f"unknown tree node {tree!r}")


def _restricted(
    fn: Callable[[dict[str, Any]], Any], columns: tuple[str, ...] | None
) -> Callable[[dict[str, Any]], Any]:
    """Wrap a row function to see only the declared input columns (the
    columnar engine builds the restricted dict the same way)."""
    if columns is None:
        return fn
    return lambda row: fn({k: row[k] for k in columns})
