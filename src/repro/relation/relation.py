"""In-memory relations with provenance-carrying relational algebra.

The substrate the whole market platform stands on.  A :class:`Relation` is an
immutable ordered bag of rows with a :class:`~repro.relation.schema.Schema`
and a parallel vector of provenance annotations — every operator propagates
provenance per Green et al.'s semiring rules so the revenue-sharing engine
can later split a mashup's price across the contributing datasets.

The vector is built on first read.  Until then a relation holds a
:class:`~repro.relation.provenance.DeferredProvenance`: base token tags for
a relation built from rows, or the factorised per-leaf row-index form a
columnar collect leaves behind.  ``provenance`` resolves it once and caches
the tuple (a leaf's tags are built once and shared by every relation
collected over it); operators that pass provenance through unchanged carry
the deferred form, and operators that index or combine it resolve it first,
so every vector read is the one eager per-row tagging would have built.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import SchemaError, UnknownColumnError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .tree import LeafRelation
from .columnar import SCALAR_DTYPES, ColumnarView
from .provenance import DeferredProvenance, ProvExpr, ProvOne, plus, times
from .schema import Column, Schema

Row = tuple


def _freeze(value: Any) -> Any:
    """Make a cell hashable for grouping/dedup (lists become tuples)."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    return value


class Relation:
    """An immutable, provenance-annotated bag of tuples."""

    __slots__ = ("name", "schema", "_rows", "_prov", "_columnar", "_chash")

    def __init__(
        self,
        name: str,
        schema: Schema | Iterable,
        rows: Iterable[Sequence] = (),
        /,
        provenance: Sequence[ProvExpr] | None = None,
        validate: bool = True,
    ):
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._rows: tuple[Row, ...] = tuple(tuple(r) for r in rows)
        self._columnar: ColumnarView | None = None
        self._chash: str | None = None
        if validate:
            self.schema.validate_rows(self._rows)
        if provenance is None:
            self._prov: tuple[ProvExpr, ...] | DeferredProvenance = (
                DeferredProvenance(len(self._rows), source=name)
            )
        else:
            if len(provenance) != len(self._rows):
                raise SchemaError(
                    "provenance vector length does not match row count"
                )
            self._prov = tuple(provenance)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        name: str,
        records: Iterable[Mapping[str, Any]],
        schema: Schema | Iterable | None = None,
    ) -> "Relation":
        """Build a relation from dict records, inferring a schema if needed."""
        records = list(records)
        if schema is None:
            if not records:
                raise SchemaError("cannot infer a schema from zero records")
            names = list(records[0].keys())
            schema = Schema([Column(n, _infer_dtype(records, n)) for n in names])
        elif not isinstance(schema, Schema):
            schema = Schema(schema)
        rows = [tuple(rec.get(n) for n in schema.names) for rec in records]
        return cls(name, schema, rows)

    @classmethod
    def empty(cls, name: str, schema: Schema | Iterable) -> "Relation":
        return cls(name, schema, [])

    # ------------------------------------------------------------------
    # container protocol / accessors
    # ------------------------------------------------------------------
    @property
    def rows(self) -> tuple[Row, ...]:
        return self._rows

    @property
    def provenance(self) -> tuple[ProvExpr, ...]:
        """Per-row annotations, built on first read and cached."""
        prov = self._prov
        if isinstance(prov, DeferredProvenance):
            prov = self._prov = prov.resolve()
        return prov

    @property
    def columns(self) -> tuple[str, ...]:
        return self.schema.names

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality on (schema names, rows), ignoring order and name:
        each row occurs as often on both sides, rows compared as
        :meth:`distinct` compares them."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.names != other.schema.names:
            return False
        return Counter(map(_freeze_row, self._rows)) == Counter(
            map(_freeze_row, other._rows)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash
        return id(self)

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, {len(self._rows)} rows, "
            f"cols={list(self.columns)})"
        )

    @property
    def columnar(self) -> ColumnarView:
        """Lazily-built, memoized columnar view (per-column value vectors,
        packed canonical rows, ranks, value counts, numeric arrays).  Safe
        to share: the relation is immutable, so the view is computed at
        most once per column."""
        view = self._columnar
        if view is None:
            view = self._columnar = ColumnarView(self)
        return view

    @property
    def _all_scalar(self) -> bool:
        """True when every declared dtype guarantees hashable scalar cells,
        enabling the freeze-free fast paths."""
        return all(c.dtype in SCALAR_DTYPES for c in self.schema.columns)

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        return list(self.columnar.values(name))

    def to_dicts(self) -> list[dict[str, Any]]:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self._rows]

    def row_dict(self, index: int) -> dict[str, Any]:
        return dict(zip(self.schema.names, self._rows[index]))

    def head(self, n: int = 5) -> "Relation":
        return self._derive(
            self.name, self.schema, self._rows[:n], self.provenance[:n]
        )

    def pretty(self, limit: int = 10) -> str:
        """A fixed-width textual rendering, for examples and debugging."""
        names = list(self.schema.names)
        shown = [list(map(_cell_str, row)) for row in self._rows[:limit]]
        widths = [
            max([len(n)] + [len(r[i]) for r in shown]) for i, n in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in shown
        ]
        more = len(self._rows) - limit
        tail = [f"... ({more} more rows)"] if more > 0 else []
        return "\n".join([header, sep, *body, *tail])

    def content_hash(self) -> str:
        """The relation's content identity: an order-insensitive digest of
        schema and rows under which cells of a typed column that ``==``
        treats as equal (``1`` and ``1.0``, ``0.0`` and ``-0.0``, a str and
        a str subclass with its characters) are equal; ``any``-typed
        cells are told apart by ``repr``.  It keys
        dataset versions, component fingerprints, a round's goods and the
        plan cache's examples.  Built from the columnar view
        (:meth:`~repro.relation.columnar.ColumnarView.content_digest`) and
        memoized, since the relation is immutable."""
        if self._chash is None:
            self._chash = self.columnar.content_digest()
        return self._chash

    def lazy(self) -> "LeafRelation":
        """This relation as a lazy expression-tree leaf.

        The entry point of the tree API: chain the lazy operators on the
        returned node and materialize with ``collect()`` —
        ``rel.lazy().join(other.lazy(), on=["k"]).project(["a"]).collect()``.
        """
        from .tree import LeafRelation

        return LeafRelation(self)

    # ------------------------------------------------------------------
    # relational algebra (all provenance-propagating)
    # ------------------------------------------------------------------
    @classmethod
    def _build(
        cls,
        name: str,
        schema: Schema,
        rows: Iterable[Row],
        prov: Iterable[ProvExpr] | DeferredProvenance,
    ) -> "Relation":
        """Raw constructor for operators and engines: rows are trusted
        (already schema-valid) and provenance is supplied — a vector, or a
        deferred form kept as is — so validation and tagging are skipped."""
        rel = cls.__new__(cls)
        rel.name = name
        rel.schema = schema
        rel._rows = tuple(rows)
        rel._prov = (
            prov if isinstance(prov, DeferredProvenance) else tuple(prov)
        )
        rel._columnar = None
        rel._chash = None
        return rel

    def _derive(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Row],
        prov: Iterable[ProvExpr] | DeferredProvenance,
    ) -> "Relation":
        return Relation._build(name, schema, rows, prov)

    def project(self, names: Sequence[str]) -> "Relation":
        """π — keep the given columns (duplicates preserved: bag semantics)."""
        schema = self.schema.project(names)
        if names:
            # recombine memoized column vectors (zip is one C-level pass)
            view = self.columnar
            rows: Iterable[Row] = zip(*[view.values(n) for n in names])
        else:
            rows = [() for _ in self._rows]
        return self._derive(self.name, schema, rows, self._prov)

    def select(self, predicate: Callable[[dict[str, Any]], bool]) -> "Relation":
        """σ — keep rows for which ``predicate(row_as_dict)`` is truthy."""
        names = self.schema.names
        keep_rows, keep_prov = [], []
        for row, prov in zip(self._rows, self.provenance):
            if predicate(dict(zip(names, row))):
                keep_rows.append(row)
                keep_prov.append(prov)
        return self._derive(self.name, self.schema, keep_rows, keep_prov)

    def where(self, **conditions: Any) -> "Relation":
        """σ with equality conditions given as keyword arguments."""
        idx = {self.schema.position(k): v for k, v in conditions.items()}
        keep_rows, keep_prov = [], []
        for row, prov in zip(self._rows, self.provenance):
            if all(row[i] == v for i, v in idx.items()):
                keep_rows.append(row)
                keep_prov.append(prov)
        return self._derive(self.name, self.schema, keep_rows, keep_prov)

    def rename(self, mapping: dict[str, str]) -> "Relation":
        return self._derive(
            self.name, self.schema.rename(mapping), self._rows, self._prov
        )

    def renamed(self, name: str) -> "Relation":
        """Change the relation's name (does not re-tag provenance)."""
        return self._derive(name, self.schema, self._rows, self._prov)

    def extend(
        self,
        column: Column | str,
        fn: Callable[[dict[str, Any]], Any],
    ) -> "Relation":
        """Append a computed column; provenance is unchanged."""
        col = column if isinstance(column, Column) else Column(column)
        if col.name in self.schema:
            raise SchemaError(f"column {col.name!r} already exists")
        names = self.schema.names
        rows = [
            row + (fn(dict(zip(names, row))),) for row in self._rows
        ]
        schema = Schema(list(self.schema.columns) + [col])
        return self._derive(self.name, schema, rows, self._prov)

    def drop(self, names: Sequence[str]) -> "Relation":
        keep = [n for n in self.schema.names if n not in set(names)]
        missing = set(names) - set(self.schema.names)
        if missing:
            raise UnknownColumnError(f"cannot drop unknown columns {sorted(missing)}")
        return self.project(keep)

    def distinct(self) -> "Relation":
        """δ — duplicate elimination; provenance of duplicates is summed."""
        # scalar-typed rows are already hashable: skip the per-cell freeze
        freeze = (lambda row: row) if self._all_scalar else _freeze_row
        seen: dict[Row, int] = {}
        rows: list[Row] = []
        provs: list[list[ProvExpr]] = []
        for row, prov in zip(self._rows, self.provenance):
            key = freeze(row)
            if key in seen:
                provs[seen[key]].append(prov)
            else:
                seen[key] = len(rows)
                rows.append(row)
                provs.append([prov])
        merged = [plus(*ps) if len(ps) > 1 else ps[0] for ps in provs]
        return self._derive(self.name, self.schema, rows, merged)

    def union(self, other: "Relation") -> "Relation":
        """∪ (bag union) — schemas must have identical column names."""
        if self.schema.names != other.schema.names:
            raise SchemaError(
                f"union requires identical column names: "
                f"{self.schema.names} vs {other.schema.names}"
            )
        return self._derive(
            self.name,
            self.schema,
            self._rows + other._rows,
            self.provenance + other.provenance,
        )

    def join(
        self,
        other: "Relation",
        on: Sequence[tuple[str, str]] | Sequence[str] | None = None,
        suffix: str = "_r",
        keep_right: bool = False,
    ) -> "Relation":
        """Equi-join.  ``on`` is a list of (left, right) column pairs, a list
        of shared names, or None for a natural join on all shared names.

        The right-hand join columns are dropped from the output (they equal
        the left ones) unless ``keep_right``; clashing right columns get
        ``suffix`` appended.  Provenance of an output row is the product of
        the input annotations.
        """
        if on is None:
            shared = [n for n in self.schema.names if n in other.schema]
            if not shared:
                raise SchemaError(
                    f"natural join of {self.name!r} and {other.name!r}: "
                    "no shared column names"
                )
            pairs = [(n, n) for n in shared]
        elif on and isinstance(on[0], str):
            pairs = [(n, n) for n in on]  # type: ignore[list-item]
        else:
            pairs = list(on)  # type: ignore[arg-type]

        left_idx = self.schema.positions([p[0] for p in pairs])
        right_idx = other.schema.positions([p[1] for p in pairs])
        right_drop = set() if keep_right else set(right_idx)

        # hash join: build on the right side
        table: dict[tuple, list[int]] = {}
        for j, row in enumerate(other._rows):
            key = tuple(_freeze(row[i]) for i in right_idx)
            if any(k is None for k in key):
                continue  # NULLs never join
            table.setdefault(key, []).append(j)

        right_keep = [i for i in range(len(other.schema)) if i not in right_drop]
        left_names = set(self.schema.names)
        out_cols = list(self.schema.columns)
        for i in right_keep:
            col = other.schema.columns[i]
            if col.name in left_names:
                col = col.renamed(col.name + suffix)
            out_cols.append(col)
        out_schema = Schema(out_cols)

        rows: list[Row] = []
        provs: list[ProvExpr] = []
        lprov, rprov = self.provenance, other.provenance
        for i, lrow in enumerate(self._rows):
            key = tuple(_freeze(lrow[k]) for k in left_idx)
            if any(k is None for k in key):
                continue
            for j in table.get(key, ()):
                rrow = other._rows[j]
                rows.append(lrow + tuple(rrow[k] for k in right_keep))
                provs.append(times(lprov[i], rprov[j]))
        return self._derive(
            f"{self.name}⋈{other.name}", out_schema, rows, provs
        )

    def left_join(
        self,
        other: "Relation",
        on: Sequence[tuple[str, str]] | Sequence[str] | None = None,
        suffix: str = "_r",
    ) -> "Relation":
        """Left outer equi-join (unmatched left rows padded with NULLs)."""
        inner = self.join(other, on=on, suffix=suffix)
        n_right = len(inner.schema) - len(self.schema)
        # Recompute the matching to find unmatched left rows.
        if on is None:
            shared = [n for n in self.schema.names if n in other.schema]
            pairs = [(n, n) for n in shared]
        elif on and isinstance(on[0], str):
            pairs = [(n, n) for n in on]  # type: ignore[list-item]
        else:
            pairs = list(on)  # type: ignore[arg-type]
        left_idx = self.schema.positions([p[0] for p in pairs])
        right_idx = other.schema.positions([p[1] for p in pairs])
        keys = set()
        for row in other._rows:
            keys.add(tuple(_freeze(row[i]) for i in right_idx))
        rows = list(inner._rows)
        provs = list(inner.provenance)
        lprov = self.provenance
        for i, lrow in enumerate(self._rows):
            key = tuple(_freeze(lrow[k]) for k in left_idx)
            if any(k is None for k in key) or key not in keys:
                rows.append(lrow + (None,) * n_right)
                provs.append(lprov[i])
        return self._derive(inner.name, inner.schema, rows, provs)

    def aggregate(
        self,
        group_by: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]],
    ) -> "Relation":
        """γ — group and aggregate.

        ``aggregations`` maps output column name to ``(input column, agg)``
        where agg ∈ {count, sum, mean, min, max, first}.  Provenance of each
        output row is the sum of the group members' annotations.
        """
        group_idx = self.schema.positions(group_by)
        groups: dict[tuple, list[int]] = {}
        for i, row in enumerate(self._rows):
            key = tuple(_freeze(row[k]) for k in group_idx)
            groups.setdefault(key, []).append(i)

        out_cols = [self.schema[n] for n in group_by]
        agg_specs: list[tuple[str, int | None, str]] = []
        for out_name, (in_name, agg) in aggregations.items():
            if agg not in _AGGS:
                raise SchemaError(f"unknown aggregate {agg!r}")
            in_idx = None if agg == "count" and in_name == "*" else (
                self.schema.position(in_name)
            )
            dtype = "int" if agg == "count" else (
                "float" if agg in ("mean", "sum") else
                self.schema[in_name].dtype
            )
            out_cols.append(Column(out_name, dtype))
            agg_specs.append((out_name, in_idx, agg))

        rows: list[Row] = []
        provs: list[ProvExpr] = []
        prov = self.provenance
        for key, members in groups.items():
            first_row = self._rows[members[0]]
            out = [first_row[k] for k in group_idx]
            for _name, in_idx, agg in agg_specs:
                if agg == "count" and in_idx is None:
                    out.append(len(members))
                else:
                    vals = [
                        self._rows[m][in_idx]
                        for m in members
                        if self._rows[m][in_idx] is not None
                    ]
                    out.append(_AGGS[agg](vals))
            rows.append(tuple(out))
            provs.append(plus(*(prov[m] for m in members)))
        return self._derive(self.name, Schema(out_cols), rows, provs)

    def order_by(self, names: Sequence[str], descending: bool = False) -> "Relation":
        idx = self.schema.positions(names)
        order = sorted(
            range(len(self._rows)),
            key=lambda i: tuple(_sort_key(self._rows[i][k]) for k in idx),
            reverse=descending,
        )
        prov = self.provenance
        return self._derive(
            self.name,
            self.schema,
            [self._rows[i] for i in order],
            [prov[i] for i in order],
        )

    def limit(self, n: int) -> "Relation":
        return self._derive(
            self.name, self.schema, self._rows[:n], self.provenance[:n]
        )

    def sample(self, n: int, rng) -> "Relation":
        """Uniform sample without replacement (``rng``: numpy Generator)."""
        if n >= len(self._rows):
            return self
        idx = rng.choice(len(self._rows), size=n, replace=False)
        prov = self.provenance
        return self._derive(
            self.name,
            self.schema,
            [self._rows[i] for i in idx],
            [prov[i] for i in idx],
        )

    def map_column(self, name: str, fn: Callable[[Any], Any]) -> "Relation":
        """Replace one column's values with ``fn(value)`` (dtype becomes any)."""
        i = self.schema.position(name)
        rows = [row[:i] + (fn(row[i]),) + row[i + 1 :] for row in self._rows]
        cols = [
            Column(c.name, "any", c.semantic) if c.name == name else c
            for c in self.schema.columns
        ]
        return self._derive(self.name, Schema(cols), rows, self._prov)

    def with_provenance_root(self, source: str) -> "Relation":
        """Re-tag every row as a base tuple of ``source`` (ingestion reset)."""
        prov = DeferredProvenance(len(self._rows), source=source)
        return self._derive(self.name, self.schema, self._rows, prov)

    def without_provenance(self) -> "Relation":
        prov = [ProvOne() for _ in self._rows]
        return self._derive(self.name, self.schema, self._rows, prov)


_AGGS: dict[str, Callable[[list], Any]] = {
    "count": lambda vals: len(vals),
    "sum": lambda vals: float(sum(vals)) if vals else 0.0,
    "mean": lambda vals: float(sum(vals)) / len(vals) if vals else None,
    "min": lambda vals: min(vals) if vals else None,
    "max": lambda vals: max(vals) if vals else None,
    "first": lambda vals: vals[0] if vals else None,
}


def _freeze_row(row: Row) -> tuple:
    return tuple(_freeze(v) for v in row)


def _sort_key(value: Any):
    """Total order with NULLs first and mixed types segregated by type name."""
    if value is None:
        return (0, "", 0)
    if isinstance(value, bool):
        return (1, "bool", int(value))
    if isinstance(value, (int, float)):
        return (1, "num", value)
    return (1, type(value).__name__, str(value))


def _cell_str(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _infer_dtype(records: list[Mapping[str, Any]], name: str) -> str:
    kinds = set()
    for rec in records:
        v = rec.get(name)
        if v is None:
            continue
        if isinstance(v, bool):
            kinds.add("bool")
        elif isinstance(v, int):
            kinds.add("int")
        elif isinstance(v, float):
            kinds.add("float")
        elif isinstance(v, str):
            kinds.add("str")
        else:
            return "any"
    if not kinds:
        return "any"
    if kinds <= {"int"}:
        return "int"
    if kinds <= {"int", "float"}:
        return "float"
    if len(kinds) == 1:
        return kinds.pop()
    return "any"
