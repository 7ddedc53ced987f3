"""Semiring provenance for relational operators.

The paper's revenue-sharing component (Section 3.2.3) proposes to "leverage
the vast research in provenance" (Green et al.'s provenance semirings) to
propagate the value of a mashup row back to the source datasets.  This module
implements exactly that machinery:

* every base tuple is tagged with a :class:`ProvToken` ``(source, row_id)``;
  a relation holds its tags, or the factorised products a columnar
  collect leaves, as a :class:`DeferredProvenance` until first read;
* relational operators combine annotations with ``+`` (alternative use, e.g.
  union / duplicate elimination) and ``*`` (joint use, e.g. join);
* :func:`evaluate` maps an annotation into any commutative semiring, and
  :func:`source_shares` evaluates the annotation in the "contribution"
  interpretation used by the revenue-sharing engine: each row's value is
  split equally among the joint factors of each derivation, and alternative
  derivations share proportionally.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..errors import ProvenanceError


class ProvExpr:
    """Base class of provenance annotations (a free semiring expression)."""

    __slots__ = ()

    def tokens(self) -> set["ProvToken"]:
        raise NotImplementedError

    def sources(self) -> set[str]:
        return {t.source for t in self.tokens()}


@dataclass(frozen=True)
class ProvToken(ProvExpr):
    """Annotation of a base tuple: dataset id + row position."""

    source: str
    row_id: int

    def tokens(self) -> set["ProvToken"]:
        return {self}

    def __repr__(self) -> str:
        return f"{self.source}#{self.row_id}"


@dataclass(frozen=True)
class ProvOne(ProvExpr):
    """Multiplicative identity (tuples introduced by the system itself)."""

    def tokens(self) -> set[ProvToken]:
        return set()

    def __repr__(self) -> str:
        return "1"


@dataclass(frozen=True)
class ProvTimes(ProvExpr):
    """Joint derivation: all children were needed (join, product)."""

    children: tuple[ProvExpr, ...]

    def tokens(self) -> set[ProvToken]:
        out: set[ProvToken] = set()
        for c in self.children:
            out |= c.tokens()
        return out

    def __repr__(self) -> str:
        return "(" + " * ".join(map(repr, self.children)) + ")"


@dataclass(frozen=True)
class ProvPlus(ProvExpr):
    """Alternative derivations: any child suffices (union, distinct)."""

    children: tuple[ProvExpr, ...]

    def tokens(self) -> set[ProvToken]:
        out: set[ProvToken] = set()
        for c in self.children:
            out |= c.tokens()
        return out

    def __repr__(self) -> str:
        return "(" + " + ".join(map(repr, self.children)) + ")"


def times(*exprs: ProvExpr) -> ProvExpr:
    """Smart constructor for products (flattens, drops identities)."""
    flat: list[ProvExpr] = []
    for e in exprs:
        if isinstance(e, ProvOne):
            continue
        if isinstance(e, ProvTimes):
            flat.extend(e.children)
        else:
            flat.append(e)
    if not flat:
        return ProvOne()
    if len(flat) == 1:
        return flat[0]
    return ProvTimes(tuple(flat))


def plus(*exprs: ProvExpr) -> ProvExpr:
    """Smart constructor for sums (flattens nested sums)."""
    flat: list[ProvExpr] = []
    for e in exprs:
        if isinstance(e, ProvPlus):
            flat.extend(e.children)
        else:
            flat.append(e)
    if not flat:
        raise ProvenanceError("empty provenance sum")
    if len(flat) == 1:
        return flat[0]
    return ProvPlus(tuple(flat))


#: serialises building deferred vectors, so a vector is built once
_RESOLVE_LOCK = threading.Lock()


class DeferredProvenance:
    """A relation's provenance vector, built only when first read.

    Two shapes of ``length`` rows:

    * ``DeferredProvenance(n, source=name)`` — base tuples: row ``i`` is
      ``ProvToken(name, i)``;
    * ``DeferredProvenance(n, parts)`` — a factorised flat product.
      ``parts`` pairs each contributing leaf's provenance (a resolved
      tuple, or the leaf's own deferred form — never the leaf relation)
      with the row-index array picking that leaf's row for each output
      row (``None``: rows ``0..n-1`` unchanged).  Row ``r`` is
      ``times(p[idx[r]] for each part)``, or just ``p[idx[r]]`` for a
      single part — exactly the vector a per-row gather builds.

    :meth:`resolve` builds the vector once, keeps it in ``vector`` and
    drops ``parts``.  A leaf's form is shared by every relation collected
    over that leaf, so all of them index one set of leaf tags.
    """

    __slots__ = ("length", "parts", "source", "vector")

    def __init__(
        self, length: int, parts: Iterable = (), source: str | None = None
    ) -> None:
        self.length = length
        self.parts = tuple(parts)
        self.source = source
        self.vector: tuple[ProvExpr, ...] | None = None

    def resolve(self) -> tuple[ProvExpr, ...]:
        """The vector, built on the first call (threads racing on it all
        get the same tuple)."""
        if self.vector is None:
            with _RESOLVE_LOCK:
                self._build()
        return self.vector

    def _build(self) -> tuple[ProvExpr, ...]:
        # the caller holds _RESOLVE_LOCK
        if self.vector is not None:
            return self.vector
        if self.source is not None:
            vec = tuple(ProvToken(self.source, i) for i in range(self.length))
        else:
            per_leaf = [
                (p._build() if isinstance(p, DeferredProvenance) else p, idx)
                for p, idx in self.parts
            ]
            if len(per_leaf) == 1:
                prov, idx = per_leaf[0]
                vec = prov if idx is None else tuple(prov[i] for i in idx)
            else:
                per_row = [
                    (p, idx if idx is not None else range(len(p)))
                    for p, idx in per_leaf
                ]
                vec = tuple(
                    times(*(p[idx[r]] for p, idx in per_row))
                    for r in range(self.length)
                )
        self.vector, self.parts = vec, ()
        return vec


def evaluate(
    expr: ProvExpr,
    assignment: Mapping[ProvToken, float] | Callable[[ProvToken], float],
    add: Callable[[float, float], float] = lambda a, b: a + b,
    mul: Callable[[float, float], float] = lambda a, b: a * b,
    one: float = 1.0,
    zero: float = 0.0,
) -> float:
    """Evaluate an annotation in a commutative semiring.

    ``assignment`` maps base tokens to semiring values.  The default
    semiring is (R, +, *), i.e. counting provenance when tokens map to 1.
    """
    lookup = assignment if callable(assignment) else assignment.__getitem__

    def rec(e: ProvExpr) -> float:
        if isinstance(e, ProvToken):
            return lookup(e)
        if isinstance(e, ProvOne):
            return one
        if isinstance(e, ProvTimes):
            acc = one
            for c in e.children:
                acc = mul(acc, rec(c))
            return acc
        if isinstance(e, ProvPlus):
            acc = zero
            for c in e.children:
                acc = add(acc, rec(c))
            return acc
        raise ProvenanceError(f"unknown provenance node {e!r}")

    return rec(expr)


def boolean_sources(expr: ProvExpr) -> set[str]:
    """Which-provenance: the set of datasets that influenced a tuple."""
    return expr.sources()


def derivation_count(expr: ProvExpr) -> int:
    """How many distinct derivations produce the tuple (counting semiring)."""
    return int(evaluate(expr, lambda _t: 1.0))


def token_shares(expr: ProvExpr) -> dict[ProvToken, float]:
    """Split a unit of value over base tokens.

    Each product node splits its share equally among its factors; each sum
    node splits equally among its alternative derivations.  The shares of
    all tokens in the result sum to 1 (unless the expression is ``ProvOne``,
    in which case the dict is empty and the value stays with the system).
    """
    shares: dict[ProvToken, float] = {}

    def rec(e: ProvExpr, weight: float) -> None:
        if isinstance(e, ProvToken):
            shares[e] = shares.get(e, 0.0) + weight
        elif isinstance(e, ProvOne):
            pass
        elif isinstance(e, ProvTimes):
            if e.children:
                w = weight / len(e.children)
                for c in e.children:
                    rec(c, w)
        elif isinstance(e, ProvPlus):
            if e.children:
                w = weight / len(e.children)
                for c in e.children:
                    rec(c, w)
        else:
            raise ProvenanceError(f"unknown provenance node {e!r}")

    rec(expr, 1.0)
    return shares


def source_shares(exprs: Iterable[ProvExpr]) -> dict[str, float]:
    """Aggregate :func:`token_shares` over many rows, grouped by dataset.

    The result sums to the number of expressions that carried at least one
    token (rows made purely by the system contribute nothing).
    """
    out: dict[str, float] = {}
    for e in exprs:
        for token, share in token_shares(e).items():
            out[token.source] = out.get(token.source, 0.0) + share
    return out
