"""Schemas for the relational substrate.

A :class:`Schema` is an ordered collection of :class:`Column` objects. Columns
carry a name, a declared dtype and an optional *semantic tag* — a free-form
label ("temperature", "employee_id") that the discovery subsystem uses to
match attributes across datasets whose physical names differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from types import NoneType
from typing import Iterable, Iterator, Sequence

from ..errors import SchemaError, TypeMismatchError, UnknownColumnError

#: dtypes understood by the substrate.  ``any`` disables checking and is used
#: for fused (multi-valued) cells produced by the fusion operators.
DTYPES = ("int", "float", "str", "bool", "any")

_PYTYPES = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
}


@dataclass(frozen=True)
class Column:
    """A single attribute of a relation."""

    name: str
    dtype: str = "any"
    semantic: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.dtype not in DTYPES:
            raise SchemaError(
                f"unknown dtype {self.dtype!r}; expected one of {DTYPES}"
            )

    def accepts(self, value: object) -> bool:
        """Return True if ``value`` is valid for this column (None = NULL)."""
        if value is None or self.dtype == "any":
            return True
        pytypes = _PYTYPES[self.dtype]
        if self.dtype in ("int", "float") and isinstance(value, bool):
            # bool is a subclass of int; reject it for numeric columns.
            return False
        return isinstance(value, pytypes)

    def renamed(self, name: str) -> "Column":
        return replace(self, name=name)


def _accepts_types(column: Column, types: set[type]) -> bool:
    """True when :meth:`Column.accepts` holds for every value whose type is
    in ``types``, decided once per type.  False may be too strict (a value
    can pass ``isinstance`` through a custom ``__class__``), so a caller
    that gets False asks :meth:`Column.accepts` of each value."""
    pytypes = _PYTYPES[column.dtype]
    numeric = column.dtype in ("int", "float")
    return all(
        t is NoneType or (
            issubclass(t, pytypes) and not (numeric and issubclass(t, bool))
        )
        for t in types
    )


class Schema:
    """An ordered, duplicate-free collection of columns."""

    __slots__ = ("_columns", "_index")

    def __init__(self, columns: Iterable[Column | tuple | str]):
        cols: list[Column] = []
        for c in columns:
            if isinstance(c, Column):
                cols.append(c)
            elif isinstance(c, str):
                cols.append(Column(c))
            elif isinstance(c, tuple):
                cols.append(Column(*c))
            else:
                raise SchemaError(f"cannot build a column from {c!r}")
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        self._columns: tuple[Column, ...] = tuple(cols)
        self._index: dict[str, int] = {c.name: i for i, c in enumerate(cols)}

    # -- basic container protocol ------------------------------------------
    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Column:
        try:
            return self._columns[self._index[name]]
        except KeyError:
            raise UnknownColumnError(
                f"column {name!r} not in schema {list(self.names)}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{c.name}:{c.dtype}" + (f"[{c.semantic}]" if c.semantic else "")
            for c in self._columns
        )
        return f"Schema({parts})"

    # -- helpers ------------------------------------------------------------
    def position(self, name: str) -> int:
        """Index of ``name`` in the column order."""
        if name not in self._index:
            raise UnknownColumnError(
                f"column {name!r} not in schema {list(self.names)}"
            )
        return self._index[name]

    def positions(self, names: Iterable[str]) -> list[int]:
        return [self.position(n) for n in names]

    def project(self, names: Iterable[str]) -> "Schema":
        return Schema([self[n] for n in names])

    def rename(self, mapping: dict[str, str]) -> "Schema":
        for old in mapping:
            if old not in self:
                raise UnknownColumnError(f"cannot rename unknown column {old!r}")
        return Schema(
            [c.renamed(mapping.get(c.name, c.name)) for c in self._columns]
        )

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a product/join; raises on name clashes."""
        clash = set(self.names) & set(other.names)
        if clash:
            raise SchemaError(
                f"column name clash when concatenating schemas: {sorted(clash)}"
            )
        return Schema(list(self._columns) + list(other._columns))

    def validate_row(self, row: tuple) -> None:
        """Check arity and dtypes of a row against this schema."""
        if len(row) != len(self._columns):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity "
                f"{len(self._columns)}"
            )
        for col, value in zip(self._columns, row):
            if not col.accepts(value):
                raise TypeMismatchError(
                    f"value {value!r} is not valid for column "
                    f"{col.name!r}:{col.dtype}"
                )

    def validate_rows(self, rows: Sequence[tuple]) -> None:
        """Check every row as :meth:`validate_row` does, a column at a
        time: the arity of all rows once, then each column's set of value
        types once.  Only a failed check walks the rows one by one, so the
        error raised is the first one the per-row check finds."""
        width = len(self._columns)
        valid = set(map(len, rows)) <= {width} and all(
            _accepts_types(col, set(map(type, map(itemgetter(i), rows))))
            for i, col in enumerate(self._columns) if col.dtype != "any"
        )
        if not valid:
            for row in rows:
                self.validate_row(row)

    def with_semantic(self, name: str, semantic: str) -> "Schema":
        """Return a copy with the semantic tag of one column replaced."""
        return Schema(
            [
                replace(c, semantic=semantic) if c.name == name else c
                for c in self._columns
            ]
        )
