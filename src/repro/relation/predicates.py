"""Structured selection predicates with a vectorized compile target.

An arbitrary Python callable handed to :meth:`RelationExpr.select` is a
black box: engines can only evaluate it row by row.  The predicate
classes here — :class:`Eq`, :class:`In`, :class:`Range` and the
conjunction :class:`And` — keep the selection's *structure* visible, so
the columnar engine can compile it to a numpy boolean mask over whole
column vectors instead of looping.

Every predicate is also a plain row callable (``pred(row_dict)``), which
makes the row-by-row path — the eager ``Relation.select``, and the
columnar engine's fallback — the **bit-identity oracle** for the mask:
for every row, ``mask[i] == bool(pred(row_i))``.  Where vectorized arithmetic
cannot reproduce the row semantics exactly, :meth:`Predicate.mask`
returns ``None`` and the engine falls back to the loop:

* ``In`` membership tests match ``float('nan')`` by object identity
  (Python's ``in`` short-circuits on ``is``) while ``==`` never does, so
  NaN operands disable the mask;
* non-scalar operands (lists, arrays) would trigger numpy broadcasting
  instead of elementwise comparison and are likewise rejected.

``Range`` mirrors its row form comparison-for-comparison: a ``None``
cell never matches, and a NaN cell *passes* both bound checks (it is
neither below ``low`` nor above ``high`` under IEEE comparisons) on both
paths.

Predicates survive selection pushdown through column renames
structurally: :meth:`Predicate.rename` rewrites the referenced column
names and returns a predicate of the same shape (wrapping in a re-keying
lambda, as pushdown does for opaque callables, would destroy the
structure and with it the vectorization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

__all__ = ["Predicate", "Eq", "In", "Range", "And"]


def _scalar_operand(value: Any) -> bool:
    """True when comparing an object-array elementwise against ``value``
    is sound: plain scalars only — sequences/arrays would broadcast."""
    return value is None or isinstance(value, (int, float, str, bool))


def _bool_mask(result: Any, n: int) -> np.ndarray:
    """Coerce an elementwise comparison result to a boolean mask of
    length ``n`` (raises when a cell's comparison was not boolean —
    callers treat that as "cannot vectorize")."""
    mask = np.asarray(result, dtype=bool)
    if mask.shape != (n,):
        raise ValueError("comparison did not produce one bool per row")
    return mask


def _not_none_mask(arr: np.ndarray, n: int) -> np.ndarray:
    """Non-null mask via one C-level elementwise pass.  ``v != None``
    falls back to the identity comparison for every type that leaves
    ``__ne__`` unimplemented against None — i.e. exactly ``v is not
    None`` for scalar cells; a cell whose comparison misbehaves fails
    the bool coercion and the caller falls back to the row loop."""
    return _bool_mask(np.not_equal(arr, None), n)


class Predicate:
    """Base class: a row callable that may also compile to a numpy mask."""

    def __call__(self, row: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    def referenced_columns(self) -> tuple[str, ...]:
        """The input columns the predicate reads (lets ``select`` restrict
        the row dict automatically, enabling pushdown past joins)."""
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        """A structurally identical predicate reading renamed columns."""
        raise NotImplementedError

    def mask(
        self, arrays: Mapping[str, np.ndarray], n: int
    ) -> np.ndarray | None:
        """Boolean keep-mask over ``n`` rows, or None when the vectorized
        form cannot reproduce the row semantics bit-for-bit."""
        return None


@dataclass(frozen=True)
class Eq(Predicate):
    """``row[column] == value`` (plain ``==`` on both paths)."""

    column: str
    value: Any

    def __call__(self, row: Mapping[str, Any]) -> bool:
        return row[self.column] == self.value

    def referenced_columns(self) -> tuple[str, ...]:
        return (self.column,)

    def rename(self, mapping: Mapping[str, str]) -> "Eq":
        return Eq(mapping.get(self.column, self.column), self.value)

    def mask(self, arrays, n):
        if not _scalar_operand(self.value):
            return None
        return _bool_mask(np.equal(arrays[self.column], self.value), n)


@dataclass(frozen=True)
class In(Predicate):
    """``row[column] in values`` (membership, identity-then-equality)."""

    column: str
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __call__(self, row: Mapping[str, Any]) -> bool:
        return row[self.column] in self.values

    def referenced_columns(self) -> tuple[str, ...]:
        return (self.column,)

    def rename(self, mapping: Mapping[str, str]) -> "In":
        return In(mapping.get(self.column, self.column), self.values)

    def mask(self, arrays, n):
        if not all(_scalar_operand(v) for v in self.values):
            return None
        if any(isinstance(v, float) and math.isnan(v) for v in self.values):
            return None  # ``in`` matches NaN by identity; ``==`` cannot
        arr = arrays[self.column]
        out = np.zeros(n, dtype=bool)
        for v in self.values:
            out |= _bool_mask(np.equal(arr, v), n)
        return out


@dataclass(frozen=True)
class Range(Predicate):
    """Inclusive bounds check; ``None`` bounds are open ends.

    A ``None`` cell never matches.  Both paths apply the *same* two
    comparisons (``v < low`` / ``v > high``, negated), so exotic
    orderings — NaN rejects every comparison and therefore passes —
    agree bit-for-bit."""

    column: str
    low: Any = None
    high: Any = None

    def __call__(self, row: Mapping[str, Any]) -> bool:
        v = row[self.column]
        if v is None:
            return False
        if self.low is not None and v < self.low:
            return False
        if self.high is not None and v > self.high:
            return False
        return True

    def referenced_columns(self) -> tuple[str, ...]:
        return (self.column,)

    def rename(self, mapping: Mapping[str, str]) -> "Range":
        return Range(
            mapping.get(self.column, self.column), self.low, self.high
        )

    def mask(self, arrays, n):
        for bound in (self.low, self.high):
            if bound is not None and not _scalar_operand(bound):
                return None
        arr = arrays[self.column]
        nn = _not_none_mask(arr, n)
        vals = arr[nn]
        m = np.ones(vals.size, dtype=bool)
        with np.errstate(invalid="ignore"):  # NaN passing bounds is by design
            if self.low is not None:
                m &= ~_bool_mask(np.less(vals, self.low), vals.size)
            if self.high is not None:
                m &= ~_bool_mask(np.greater(vals, self.high), vals.size)
        out = np.zeros(n, dtype=bool)
        out[nn] = m
        return out


class And(Predicate):
    """Conjunction: every member predicate must hold."""

    def __init__(self, *predicates: Predicate):
        self.predicates = tuple(predicates)

    def __call__(self, row: Mapping[str, Any]) -> bool:
        return all(p(row) for p in self.predicates)

    def referenced_columns(self) -> tuple[str, ...]:
        seen: list[str] = []
        for p in self.predicates:
            for c in p.referenced_columns():
                if c not in seen:
                    seen.append(c)
        return tuple(seen)

    def rename(self, mapping: Mapping[str, str]) -> "And":
        return And(*(p.rename(mapping) for p in self.predicates))

    def mask(self, arrays, n):
        out = np.ones(n, dtype=bool)
        for p in self.predicates:
            m = p.mask(arrays, n)
            if m is None:
                return None
            out &= m
        return out

    def __eq__(self, other):
        return isinstance(other, And) and self.predicates == other.predicates

    def __hash__(self):
        return hash((And, self.predicates))

    def __repr__(self):
        inner = ", ".join(repr(p) for p in self.predicates)
        return f"And({inner})"
