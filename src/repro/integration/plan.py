"""Mashup plans: inspectable, executable recipes for combining datasets.

A mashup "is a combination of datasets using relational, non-relational, and
fusion operations" (Section 1).  A :class:`MashupPlan` is the transparent
record of that combination — Section 4.4 requires that "buyers may request
transparent access to the mashup building process to understand the original
datasets that contribute to the mashup", which is exactly ``plan.describe()``.

Execution is **lazy**: :meth:`MashupPlan.build_tree` resolves dataset names
through a caller-supplied resolver, renames every incoming column to a
qualified ``dataset__column`` form (so arbitrary join trees never clash),
and assembles joins, synthesized transforms and the final
projection/rename into an immutable expression tree — nothing touches the
rows until the tree is collected (:meth:`MashupPlan.run`, or
``Mashup.relation`` on first access).  Provenance flows through untouched,
which is what lets the revenue-sharing engine split the sale price over
contributing datasets afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import IntegrationError
from .synthesis import MappingFunction
from ..relation import Column, Relation, RelationExpr


def qualified(dataset: str, column: str) -> str:
    return f"{dataset}__{column}"


def _qualify(relation: Relation) -> RelationExpr:
    mapping = {n: qualified(relation.name, n) for n in relation.columns}
    return relation.lazy().rename(mapping)


@dataclass(frozen=True)
class JoinStep:
    """Join the running mashup with ``dataset`` on qualified columns.

    ``left_on``/``right_on`` carry the primary column pair; composite-key
    joins add further pairs through ``extra_on``.  :attr:`pairs` exposes the
    full equi-join predicate.
    """

    dataset: str
    left_on: str  # qualified column already present in the running mashup
    right_on: str  # qualified column of the incoming dataset
    score: float = 1.0
    #: additional (left, right) qualified column pairs of a composite key
    extra_on: tuple[tuple[str, str], ...] = ()
    #: estimated matching rows of ``dataset`` per running-mashup row (the
    #: cost model's per-step blow-up factor), or None when unknown
    fanout: float | None = None

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return ((self.left_on, self.right_on), *self.extra_on)

    def describe(self) -> str:
        predicate = " and ".join(f"{lc} = {rc}" for lc, rc in self.pairs)
        return (
            f"join {self.dataset} on {predicate} "
            f"(confidence {self.score:.2f})"
        )


@dataclass(frozen=True)
class TransformStep:
    """Derive a new column by applying a synthesized mapping function."""

    source_column: str  # qualified
    output_column: str  # final (requested) name
    mapping: MappingFunction

    def describe(self) -> str:
        return (
            f"derive {self.output_column} from {self.source_column} via "
            f"{self.mapping.describe()}"
        )


@dataclass
class MashupPlan:
    """Base dataset + joins + transforms + final projection."""

    base: str
    joins: list[JoinStep] = field(default_factory=list)
    transforms: list[TransformStep] = field(default_factory=list)
    #: requested attribute name -> qualified column it comes from;
    #: transformed attributes map to their own name (already final).
    output: dict[str, str] = field(default_factory=dict)

    def sources(self) -> list[str]:
        """All datasets the plan reads, in join order."""
        return [self.base] + [j.dataset for j in self.joins]

    def describe(self) -> str:
        lines = [f"base: {self.base}"]
        lines += [step.describe() for step in self.joins]
        lines += [step.describe() for step in self.transforms]
        out = ", ".join(
            f"{attr}<-{src}" for attr, src in sorted(self.output.items())
        )
        lines.append(f"project: {out}")
        return "\n".join(lines)

    def build_tree(self, resolver: Callable[[str], Relation],
                   name: str = "mashup") -> RelationExpr:
        """Assemble the plan into a lazy expression tree (nothing runs).

        ``resolver`` maps dataset name -> Relation.  Plan-consistency
        errors (missing join columns, transform sources, output columns)
        are raised here, at tree-construction time, exactly as the eager
        executor raised them."""
        tree = _qualify(resolver(self.base))
        for step in self.joins:
            right = _qualify(resolver(step.dataset))
            for left_col, right_col in step.pairs:
                if left_col not in tree.schema:
                    raise IntegrationError(
                        f"join column {left_col!r} missing from running "
                        f"mashup (plan is inconsistent)"
                    )
                if right_col not in right.schema:
                    raise IntegrationError(
                        f"join column {right_col!r} missing from dataset "
                        f"{step.dataset!r}"
                    )
            tree = tree.join(right, on=list(step.pairs), keep_right=True)
        for step in self.transforms:
            if step.source_column not in tree.schema:
                raise IntegrationError(
                    f"transform source {step.source_column!r} missing"
                )
            src = step.source_column
            mapping = step.mapping
            tree = tree.extend(
                Column(step.output_column, "any"),
                lambda row, _src=src, _m=mapping: (
                    None if row[_src] is None else _m.apply(row[_src])
                ),
                columns=(src,),
            )
        # final projection: rename qualified columns to requested names
        missing = [
            src for src in self.output.values() if src not in tree.schema
        ]
        if missing:
            raise IntegrationError(
                f"plan output references missing columns: {missing}"
            )
        projected = tree.project(list(self.output.values()))
        rename = {
            src: attr
            for attr, src in self.output.items()
            if src != attr
        }
        return projected.rename(rename).relabel(name)

    def run(self, resolver: Callable[[str], Relation],
            name: str = "mashup") -> Relation:
        """Build the plan's tree and collect it."""
        return self.build_tree(resolver, name).collect()


class Mashup:
    """A mashup: the plan, its (lazily evaluated) result, and match data.

    The result is carried as an unevaluated expression tree; the first
    access to :attr:`relation` collects it (memoized — also shared with
    plan-cache copies holding the same tree).  Constructing a mashup from
    an already-materialized ``relation`` still works: it becomes a leaf
    tree with the relation pre-attached.
    """

    def __init__(
        self,
        plan: MashupPlan,
        relation: Relation | None = None,
        matched: dict[str, tuple[str, str, float]] | None = None,
        missing: tuple[str, ...] = (),
        tree: RelationExpr | None = None,
    ):
        if tree is None:
            if relation is None:
                raise IntegrationError(
                    "a Mashup needs a result tree (or a materialized "
                    "relation)"
                )
            tree = relation.lazy()
        self.plan = plan
        #: the unevaluated result (collected on first ``relation`` access)
        self.tree = tree
        #: requested attribute -> (dataset, column, score) it was matched to
        self.matched: dict[str, tuple[str, str, float]] = dict(matched or {})
        #: requested attributes nobody could supply (negotiation targets)
        self.missing = tuple(missing)
        self._relation = relation

    @property
    def relation(self) -> Relation:
        """The materialized result (collected on first access)."""
        rel = self._relation
        if rel is None:
            rel = self._relation = self.collect()
        return rel

    @property
    def materialized(self) -> bool:
        """True once the result tree has been collected."""
        return self._relation is not None

    def collect(self) -> Relation:
        """Materialize the result tree (memoized on the tree, so shared
        with plan-cache copies)."""
        rel = self.tree.collect()
        if self._relation is None:
            self._relation = rel
        return rel

    @property
    def coverage(self) -> float:
        total = len(self.matched) + len(self.missing)
        return len(self.matched) / total if total else 0.0

    def sources(self) -> list[str]:
        return self.plan.sources()

    def __repr__(self) -> str:
        state = "materialized" if self.materialized else "lazy"
        return (
            f"Mashup(base={self.plan.base!r}, sources={self.sources()}, "
            f"{state})"
        )
