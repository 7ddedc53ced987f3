"""Lazy relational algebra: immutable expression trees over relations.

The eager :class:`~repro.relation.relation.Relation` operators materialize
every intermediate result — an N-way mashup join builds N-1 full wide
relations before the final projection throws most of their columns away.
This module (shaped after ``lsst.daf.relation``) makes the algebra lazy:

* a **tree** of frozen dataclass nodes describes the computation —
  :class:`LeafRelation` wraps a materialized relation, the unary ops
  :class:`Project` / :class:`Select` / :class:`Distinct` / :class:`Rename` /
  :class:`Label` / :class:`Extend` and the binary op :class:`Join` compose
  it;
* trees are built through factory methods on :class:`RelationExpr`
  (``leaf.project(...).join(other_leaf, on=...)``), mirroring the eager
  operator signatures one-for-one;
* nothing executes until the tree is handed to a
  :class:`~repro.relation.engines.Processor` (or :meth:`RelationExpr.collect`
  is called), which runs it on the columnar engine.  The result is
  **bit-identical** to applying the eager operators node-for-node: rows,
  row order, schema, relation name and provenance expressions.

Nodes are immutable and hashable (conditions permitting: a ``where`` value
or an ``extend`` callable hashes by its own rules).  The one mutability
exception, again following ``lsst.daf.relation``, is the **payload** slot:
a processor may attach the materialized :class:`Relation` to the root node
it executed, so repeated ``collect`` calls — or copies of a cached plan
sharing one tree — reuse the result instead of recomputing it.

Schema, relation-name propagation and validation errors are derived at
construction time and mirror the eager operators exactly: building
``leaf.project(["ghost"])`` raises the same
:class:`~repro.errors.UnknownColumnError` that
``relation.project(["ghost"])`` does, just earlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

from ..errors import SchemaError
from .relation import Relation
from .schema import Column, Schema


class RelationExpr:
    """Base class of all expression-tree nodes.

    Subclasses are frozen dataclasses; build them through the factory
    methods here rather than the constructors so `on`-clause resolution
    and name normalization happen in one place.
    """

    # -- tree structure ----------------------------------------------------
    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    @property
    def name(self) -> str:
        """The relation name the tree's result will carry."""
        raise NotImplementedError

    @property
    def columns(self) -> tuple[str, ...]:
        return self.schema.names

    def children(self) -> tuple["RelationExpr", ...]:
        return ()

    def leaves(self) -> tuple["LeafRelation", ...]:
        """All leaf nodes, left-to-right (duplicates preserved)."""
        if isinstance(self, LeafRelation):
            return (self,)
        out: list[LeafRelation] = []
        for child in self.children():
            out.extend(child.leaves())
        return tuple(out)

    def depth(self) -> int:
        kids = self.children()
        return 1 + max((k.depth() for k in kids), default=0)

    # -- payload (the one sanctioned mutability, as in lsst.daf.relation) --
    @property
    def payload(self) -> Relation | None:
        """The materialized result a processor attached to this node, if
        any."""
        return self.__dict__.get("_payload")

    def attach_payload(self, relation: Relation) -> None:
        """Memoize a materialized result on this node (bypasses the frozen
        dataclass guard on purpose — the payload is a cache, not state)."""
        object.__setattr__(self, "_payload", relation)

    # -- factory methods (mirror the eager Relation operators) -------------
    def project(self, names: Sequence[str]) -> "Project":
        """π — keep the given columns."""
        return Project(self, tuple(names))

    def select(
        self,
        predicate: Callable[[dict[str, Any]], bool],
        columns: Sequence[str] | None = None,
    ) -> "Select":
        """σ — keep rows for which ``predicate(row_as_dict)`` is truthy.

        ``columns`` optionally restricts the dict handed to the predicate
        (and lets engines push the selection past joins).  Structured
        predicates (:mod:`repro.relation.predicates`) declare their inputs
        themselves, so the restriction is derived when omitted."""
        if columns is None:
            referenced = getattr(predicate, "referenced_columns", None)
            if callable(referenced):
                columns = referenced()
        return Select(
            self, (), predicate,
            None if columns is None else tuple(columns),
        )

    def where(self, **conditions: Any) -> "Select":
        """σ with equality conditions given as keyword arguments."""
        return Select(self, tuple(conditions.items()), None, None)

    def distinct(self) -> "Distinct":
        return Distinct(self)

    def rename(self, mapping: dict[str, str]) -> "Rename":
        return Rename(self, tuple(mapping.items()))

    def relabel(self, name: str) -> "Label":
        """Change the relation name the result will carry (the lazy
        counterpart of ``Relation.renamed``)."""
        return Label(self, name)

    def extend(
        self,
        column: Column | str,
        fn: Callable[[dict[str, Any]], Any],
        columns: Sequence[str] | None = None,
    ) -> "Extend":
        """Append a computed column; ``columns`` optionally restricts the
        row dict handed to ``fn`` to the inputs it actually reads."""
        col = column if isinstance(column, Column) else Column(column)
        return Extend(
            self, col, fn, None if columns is None else tuple(columns)
        )

    def join(
        self,
        other: "RelationExpr",
        on: Sequence[tuple[str, str]] | Sequence[str] | None = None,
        suffix: str = "_r",
        keep_right: bool = False,
    ) -> "Join":
        """Equi-join; ``on`` is resolved exactly like the eager operator
        (pairs, shared names, or None for a natural join)."""
        if on is None:
            shared = [n for n in self.schema.names if n in other.schema]
            if not shared:
                raise SchemaError(
                    f"natural join of {self.name!r} and {other.name!r}: "
                    "no shared column names"
                )
            pairs = tuple((n, n) for n in shared)
        elif on and isinstance(on[0], str):
            pairs = tuple((n, n) for n in on)  # type: ignore[misc]
        else:
            pairs = tuple(tuple(p) for p in on)  # type: ignore[misc]
        return Join(self, other, pairs, suffix, keep_right)

    # -- execution ---------------------------------------------------------
    def collect(self) -> Relation:
        """Execute the tree and return the materialized relation, memoized
        on this node's payload slot."""
        from .engines import Processor

        return Processor().execute(self)

    def count(self) -> int:
        """Row count of the tree's result, without assembling its rows."""
        from .engines import Processor

        return Processor().count(self)


@dataclass(frozen=True, eq=False)
class LeafRelation(RelationExpr):
    """A materialized relation at the bottom of a tree.

    Equality/hash are identity-based: ``Relation.__eq__`` is bag equality
    (ignoring name and provenance), which is too coarse to identify a leaf
    inside an expression tree.
    """

    relation: Relation

    @property
    def schema(self) -> Schema:
        return self.relation.schema

    @property
    def name(self) -> str:
        return self.relation.name

    def __repr__(self) -> str:
        return f"LeafRelation({self.relation!r})"


@dataclass(frozen=True)
class Project(RelationExpr):
    """π — keep ``names``, in order (duplicates preserved)."""

    target: RelationExpr
    names: tuple[str, ...]

    def __post_init__(self):
        self.schema  # validate column names at construction

    def children(self) -> tuple[RelationExpr, ...]:
        return (self.target,)

    @cached_property
    def schema(self) -> Schema:
        return self.target.schema.project(self.names)

    @property
    def name(self) -> str:
        return self.target.name


@dataclass(frozen=True)
class Select(RelationExpr):
    """σ — either equality ``conditions`` or a row ``predicate``.

    ``input_columns`` (predicate selects only) restricts the row dict
    handed to the predicate; None means the full row.
    """

    target: RelationExpr
    conditions: tuple[tuple[str, Any], ...]
    predicate: Callable[[dict[str, Any]], bool] | None = None
    #: named ``input_columns`` (not ``columns``: that is the schema-names
    #: accessor every node shares) — the inputs the predicate reads
    input_columns: tuple[str, ...] | None = None

    def __post_init__(self):
        schema = self.target.schema
        for name, _value in self.conditions:
            schema.position(name)  # raises UnknownColumnError, like where()
        if self.input_columns is not None:
            schema.positions(self.input_columns)

    def children(self) -> tuple[RelationExpr, ...]:
        return (self.target,)

    @property
    def schema(self) -> Schema:
        return self.target.schema

    @property
    def name(self) -> str:
        return self.target.name


@dataclass(frozen=True)
class Distinct(RelationExpr):
    """δ — duplicate elimination (provenance of duplicates is summed)."""

    target: RelationExpr

    def children(self) -> tuple[RelationExpr, ...]:
        return (self.target,)

    @property
    def schema(self) -> Schema:
        return self.target.schema

    @property
    def name(self) -> str:
        return self.target.name


@dataclass(frozen=True)
class Rename(RelationExpr):
    """ρ — rename columns via an (old, new) mapping."""

    target: RelationExpr
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self):
        self.schema  # validate at construction

    def children(self) -> tuple[RelationExpr, ...]:
        return (self.target,)

    @cached_property
    def schema(self) -> Schema:
        return self.target.schema.rename(dict(self.mapping))

    @property
    def name(self) -> str:
        return self.target.name


@dataclass(frozen=True)
class Label(RelationExpr):
    """Marker node: change the relation *name* the result will carry."""

    target: RelationExpr
    label: str

    def children(self) -> tuple[RelationExpr, ...]:
        return (self.target,)

    @property
    def schema(self) -> Schema:
        return self.target.schema

    @property
    def name(self) -> str:
        return self.label


@dataclass(frozen=True)
class Extend(RelationExpr):
    """Append a computed column (provenance is unchanged).

    ``input_columns`` restricts the row dict handed to ``fn`` to the
    named inputs; None passes the full row dict.
    """

    target: RelationExpr
    column: Column
    fn: Callable[[dict[str, Any]], Any]
    input_columns: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.column.name in self.target.schema:
            raise SchemaError(f"column {self.column.name!r} already exists")
        if self.input_columns is not None:
            self.target.schema.positions(self.input_columns)
        self.schema  # build + validate

    def children(self) -> tuple[RelationExpr, ...]:
        return (self.target,)

    @cached_property
    def schema(self) -> Schema:
        return Schema(list(self.target.schema.columns) + [self.column])

    @property
    def name(self) -> str:
        return self.target.name


@dataclass(frozen=True)
class Join(RelationExpr):
    """⋈ — hash equi-join on (left, right) column ``pairs``.

    Output columns and name match the eager operator: left columns, then
    the kept right columns (all of them under ``keep_right``, otherwise the
    non-key ones), clashing right names suffixed; NULL keys never join.
    """

    left: RelationExpr
    right: RelationExpr
    pairs: tuple[tuple[str, str], ...]
    suffix: str = "_r"
    keep_right: bool = False

    def __post_init__(self):
        self.schema  # resolves both sides' key positions: validates

    def children(self) -> tuple[RelationExpr, ...]:
        return (self.left, self.right)

    def right_kept(self) -> list[int]:
        """Positions of the right-side columns kept in the output."""
        right_schema = self.right.schema
        right_idx = right_schema.positions([p[1] for p in self.pairs])
        drop = set() if self.keep_right else set(right_idx)
        return [i for i in range(len(right_schema)) if i not in drop]

    @cached_property
    def schema(self) -> Schema:
        left_schema = self.left.schema
        left_schema.positions([p[0] for p in self.pairs])  # validate left
        left_names = set(left_schema.names)
        out_cols = list(left_schema.columns)
        for i in self.right_kept():
            col = self.right.schema.columns[i]
            if col.name in left_names:
                col = col.renamed(col.name + self.suffix)
            out_cols.append(col)
        return Schema(out_cols)

    @property
    def name(self) -> str:
        return f"{self.left.name}⋈{self.right.name}"

    def right_output_names(self) -> dict[str, str]:
        """Output column name -> right-side source column name (for
        selection pushdown through the join)."""
        left_names = set(self.left.schema.names)
        out: dict[str, str] = {}
        for i in self.right_kept():
            col = self.right.schema.columns[i]
            out_name = (
                col.name + self.suffix if col.name in left_names else col.name
            )
            out[out_name] = col.name
        return out
