"""Execution of lazy relation expression trees.

:class:`ColumnarEngine` runs every tree.  It never materializes an
intermediate wide relation: a pipeline is carried as a set of **leaf
sources plus per-leaf row-index arrays** (numpy ``intp``), reusing the
relations' memoized :class:`~repro.relation.columnar.ColumnarView` column
vectors.  A join only composes index arrays; a selection only shrinks
them; projection and rename are pure metadata.  Rows and wide tuples are
assembled once, at ``collect`` time, for exactly the output columns —
late materialization is projection pushdown by construction, and
:func:`push_down` additionally sinks selections below joins/projections
toward the leaves.  Provenance products stay factorised: the collected
relation keeps each leaf's provenance and its row-index array (a
:class:`~repro.relation.provenance.DeferredProvenance`) and builds the flat
per-row products only when its ``provenance`` is first read; a leaf's own
deferred tags are built then, once, and shared by every relation collected
over that leaf.

A join picks one of three kernels, all giving the same (left, right) row
pairs in the same order.  A single key whose two columns both have int64
join keys (int or bool columns of exact builtin cells within int64,
:meth:`~repro.relation.columnar.ColumnarView.join_keys`) is matched in
int64: the left keys are taken through the batch's row indexes and
binary-searched in the right side's stable sort, which a leaf caches on
its columnar view.  Any other single scalar key (str, float, and int
columns holding IntEnum cells or ints beyond int64) takes a dict probe,
and composite or ``any``-typed keys the tuple kernel.  Only those two
build object key vectors.

The engine is **bit-identical** to the eager
:class:`~repro.relation.relation.Relation` operators applied node-for-node
(the iteration oracle the test suite keeps): same rows in the same order,
same schema, same relation name, and equal provenance expressions.  Join
provenance relies on the :func:`~repro.relation.provenance.times` smart
constructor flattening nested products — ``times(times(a, b), c)`` equals
``times(a, b, c)`` — which makes the eager left-deep product association
reproducible from flat per-leaf annotations.

The :class:`Processor` is the one place trees run: it memoizes the
materialized result on the tree's payload slot, so plan copies sharing one
tree materialize at most once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from ..errors import SchemaError
from .columnar import SCALAR_DTYPES, sort_join_keys
from .predicates import Predicate, _bool_mask, _scalar_operand
from .provenance import DeferredProvenance
from .relation import Relation, _freeze
from .schema import Schema
from .tree import (
    Distinct,
    Extend,
    Join,
    Label,
    LeafRelation,
    Project,
    RelationExpr,
    Rename,
    Select,
)


class Engine(ABC):
    """One way to execute an expression tree."""

    @abstractmethod
    def execute(self, tree: RelationExpr) -> Relation:
        """Materialize the tree's result (bit-identical to the eager
        operators)."""

    def count(self, tree: RelationExpr) -> int:
        """Row count of the result (override to avoid materializing)."""
        return len(self.execute(tree))


def _remapped(
    fn: Callable[[dict[str, Any]], Any],
    declared: tuple[str, ...],
    sources: tuple[str, ...],
) -> Callable[[dict[str, Any]], Any]:
    """Wrap a row function whose inputs were renamed: the engine hands it
    a dict keyed by ``sources`` and the wrapper re-keys it to the
    ``declared`` names the function was written against."""
    pairs = tuple(zip(declared, sources))
    return lambda row: fn({d: row[s] for d, s in pairs})


# ---------------------------------------------------------------------------
# columnar engine
# ---------------------------------------------------------------------------
class _RelationSource:
    """One leaf relation inside a batch; columns served as object arrays
    built from the relation's memoized columnar vectors."""

    __slots__ = ("relation", "_arrays")

    def __init__(self, relation: Relation):
        self.relation = relation
        self._arrays: dict[str, np.ndarray] = {}

    @property
    def provenance(self):
        # as held — a tuple or the leaf's deferred form, so a collect tags
        # no leaf that is never read; a read builds the leaf's tags once,
        # in the shared form, for every relation collected over it
        return self.relation._prov

    def column(self, name: str) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None:
            values = self.relation.columnar.values(name)
            arr = np.empty(len(values), dtype=object)
            arr[:] = values
            self._arrays[name] = arr
        return arr


class _ValueSource:
    """A computed (extend) column: values only, no provenance of its own
    and no int64 join keys."""

    __slots__ = ("array",)
    provenance = None

    def __init__(self, values: list):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        self.array = arr

    def column(self, name: str) -> np.ndarray:
        return self.array


class _Batch:
    """A pipelined intermediate: sources + per-source row-index arrays.

    ``indexes[i]`` is None when source ``i`` contributes its rows 0..n-1
    unchanged (only possible while ``nrows`` equals the source length);
    otherwise an ``intp`` array of length ``nrows`` into the source.
    ``cols`` lists the output columns as (source position, source column
    name, output Column).  Batches are immutable once built; operators
    derive new batches that share sources and index arrays.
    """

    __slots__ = ("name", "sources", "indexes", "cols", "nrows")

    def __init__(self, name, sources, indexes, cols, nrows):
        self.name = name
        self.sources = sources
        self.indexes = indexes
        self.cols = cols
        self.nrows = nrows

    def column_array(self, pos: int) -> np.ndarray:
        src_i, src_name, _col = self.cols[pos]
        arr = self.sources[src_i].column(src_name)
        idx = self.indexes[src_i]
        return arr if idx is None else arr[idx]

    def join_keys(self, pos: int):
        """The column's int64 join keys and null mask
        (:meth:`~repro.relation.columnar.ColumnarView.join_keys`) taken
        through the row index, or None when it has none."""
        src_i, src_name, _col = self.cols[pos]
        source = self.sources[src_i]
        if not isinstance(source, _RelationSource):
            return None
        keys = source.relation.columnar.join_keys(src_name)
        idx = self.indexes[src_i]
        if keys is None or idx is None:
            return keys
        vec, nulls = keys
        return vec[idx], None if nulls is None else nulls[idx]

    def join_order(self, pos: int):
        """The column's non-null int64 join keys in ascending order and
        the batch rows holding them, or None when it has none: the leaf's
        cached sort while the batch keeps the leaf's rows, else sorted
        here."""
        src_i, src_name, _col = self.cols[pos]
        source = self.sources[src_i]
        if self.indexes[src_i] is None and isinstance(source, _RelationSource):
            return source.relation.columnar.join_order(src_name)
        keys = self.join_keys(pos)
        return None if keys is None else sort_join_keys(*keys)

    def position(self, name: str) -> int:
        for p, (_si, _sn, col) in enumerate(self.cols):
            if col.name == name:
                return p
        raise SchemaError(f"column {name!r} not in batch")


def _compose(idx: np.ndarray | None, take: np.ndarray) -> np.ndarray:
    """Row selection ``take`` applied on top of an existing index."""
    return take if idx is None else idx[take]


def _conditions_mask(
    vecs: list[tuple[np.ndarray, Any]], n: int
) -> np.ndarray | None:
    """Vectorized AND of equality conditions, or None when any operand
    (or any cell's comparison result) defies elementwise ``==`` — the
    row loop then reproduces the oracle semantics exactly."""
    mask = np.ones(n, dtype=bool)
    for arr, value in vecs:
        if not _scalar_operand(value):
            return None
        try:
            mask &= _bool_mask(np.equal(arr, value), n)
        except Exception:
            return None
    return mask


# ---------------------------------------------------------------------------
# join kernels (all bit-identical: same (left, right) match pairs in the
# same order as the eager operator — left rows ascending, and per left row
# its right matches ascending)
# ---------------------------------------------------------------------------
def _int_join(
    lkeys: np.ndarray,
    lnulls: np.ndarray | None,
    rsorted: np.ndarray,
    rorder: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-key equi-join on int64 keys: two binary searches find each
    left key's run of equal keys in the right side's stable sort
    (:func:`~repro.relation.columnar.sort_join_keys`), and a repeat/cumsum
    ramp expands the runs — no per-row Python.  Null left rows match
    nothing; null right rows are not in the sort."""
    lo = np.searchsorted(rsorted, lkeys, "left")
    cnt = np.searchsorted(rsorted, lkeys, "right") - lo
    if lnulls is not None:
        cnt[lnulls] = 0
    ltake = np.repeat(np.arange(lkeys.size, dtype=np.intp), cnt)
    # per output row: its offset within its left row's run, shifted to
    # the start of that row's run in the right sort
    ramp = np.arange(ltake.size, dtype=np.intp) - np.repeat(
        np.cumsum(cnt) - cnt - lo, cnt
    )
    return ltake, rorder[ramp]


def _scalar_join(
    lk: np.ndarray, rk: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dict hash join on bare scalar keys (str and float keys, and int
    keys without int64 join keys): skips the one-element tuple and
    ``_freeze`` call per row of the generic kernel.  Scalar dict probes
    share the tuple kernel's identity-then-equality semantics (NaN keys
    match only themselves), so the two are bit-identical."""
    table: dict = {}
    for j, v in enumerate(rk.tolist()):
        if v is not None:
            table.setdefault(v, []).append(j)
    lpos: list[int] = []
    rpos: list[int] = []
    for i, v in enumerate(lk.tolist()):
        if v is None:
            continue
        matches = table.get(v)
        if matches:
            lpos.extend([i] * len(matches))
            rpos.extend(matches)
    return (
        np.asarray(lpos, dtype=np.intp), np.asarray(rpos, dtype=np.intp)
    )


def _tuple_join(
    lkeys: list[np.ndarray], rkeys: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The generic kernel: build on the right side over frozen key
    tuples, probe left rows in order (the original row-loop hash join —
    and the oracle the fast kernels must match)."""
    table: dict[tuple, list[int]] = {}
    for j in range(len(rkeys[0]) if rkeys else 0):
        key = tuple(_freeze(k[j]) for k in rkeys)
        if any(k is None for k in key):
            continue  # NULLs never join
        table.setdefault(key, []).append(j)
    lpos: list[int] = []
    rpos: list[int] = []
    for i in range(len(lkeys[0]) if lkeys else 0):
        key = tuple(_freeze(k[i]) for k in lkeys)
        if any(k is None for k in key):
            continue
        matches = table.get(key)
        if matches:
            lpos.extend([i] * len(matches))
            rpos.extend(matches)
    return (
        np.asarray(lpos, dtype=np.intp), np.asarray(rpos, dtype=np.intp)
    )


class ColumnarEngine(Engine):
    """Pipelined execution over per-leaf index arrays (late materialization).

    Every tree is rewritten by :func:`push_down` before evaluation; the
    rewrite is order- and provenance-preserving, so results stay
    bit-identical to the iteration oracle's on the original tree.
    """

    # -- public API --------------------------------------------------------
    def execute(self, tree: RelationExpr) -> Relation:
        return self._gather(self._batch_for(tree))

    def count(self, tree: RelationExpr) -> int:
        return self._batch_for(tree).nrows

    def _batch_for(self, tree: RelationExpr) -> _Batch:
        # cache the evaluated batch on the original root node so a count
        # followed by a collect (the DoD pattern) runs the joins once
        cached = tree.__dict__.get("_columnar_batch")
        if cached is not None:
            return cached
        batch = self._eval(push_down(tree))
        object.__setattr__(tree, "_columnar_batch", batch)
        return batch

    # -- evaluation --------------------------------------------------------
    def _eval(self, tree: RelationExpr) -> _Batch:
        if isinstance(tree, LeafRelation):
            return self._leaf(tree.relation)
        if isinstance(tree, Project):
            return self._project(self._eval(tree.target), tree)
        if isinstance(tree, Select):
            return self._select(self._eval(tree.target), tree)
        if isinstance(tree, Distinct):
            # a materialization point: dedup needs the whole wide row
            return self._leaf(self._gather(self._eval(tree.target)).distinct())
        if isinstance(tree, Rename):
            return self._rename(self._eval(tree.target), tree)
        if isinstance(tree, Label):
            inner = self._eval(tree.target)
            return _Batch(tree.label, inner.sources, inner.indexes,
                          inner.cols, inner.nrows)
        if isinstance(tree, Extend):
            return self._extend(self._eval(tree.target), tree)
        if isinstance(tree, Join):
            return self._join(
                self._eval(tree.left), self._eval(tree.right), tree
            )
        raise SchemaError(f"unknown tree node {tree!r}")

    def _leaf(self, relation: Relation) -> _Batch:
        source = _RelationSource(relation)
        cols = [(0, c.name, c) for c in relation.schema.columns]
        return _Batch(relation.name, [source], [None], cols, len(relation))

    def _project(self, batch: _Batch, node: Project) -> _Batch:
        out_cols = node.schema.columns
        cols = []
        for name, out_col in zip(node.names, out_cols):
            src_i, src_name, _old = batch.cols[batch.position(name)]
            cols.append((src_i, src_name, out_col))
        return _Batch(batch.name, batch.sources, batch.indexes, cols,
                      batch.nrows)

    def _rename(self, batch: _Batch, node: Rename) -> _Batch:
        cols = [
            (src_i, src_name, new_col)
            for (src_i, src_name, _old), new_col in zip(
                batch.cols, node.schema.columns
            )
        ]
        return _Batch(batch.name, batch.sources, batch.indexes, cols,
                      batch.nrows)

    def _select(self, batch: _Batch, node: Select) -> _Batch:
        """Row filter.  Equality conditions and structured predicates
        compile to numpy masks over whole column vectors; anything the
        mask cannot reproduce bit-for-bit (opaque callables, non-scalar
        operands, comparisons that error) falls back to the row loop —
        the oracle the masks are tested against."""
        n = batch.nrows
        take: np.ndarray | None = None
        if node.predicate is None:
            vecs = [
                (batch.column_array(batch.position(name)), value)
                for name, value in node.conditions
            ]
            mask = _conditions_mask(vecs, n)
            if mask is not None:
                take = np.flatnonzero(mask)
            else:
                take = np.asarray(
                    [
                        i for i in range(n)
                        if all(vec[i] == value for vec, value in vecs)
                    ],
                    dtype=np.intp,
                )
        else:
            names = (
                node.input_columns
                if node.input_columns is not None
                else tuple(c.name for _si, _sn, c in batch.cols)
            )
            vecs = [batch.column_array(batch.position(nm)) for nm in names]
            predicate = node.predicate
            if isinstance(predicate, Predicate):
                try:
                    mask = predicate.mask(dict(zip(names, vecs)), n)
                except Exception:
                    mask = None  # row loop reproduces (or re-raises) it
                if mask is not None:
                    take = np.flatnonzero(mask)
            if take is None:
                take = np.asarray(
                    [
                        i for i in range(n)
                        if predicate(dict(zip(names, (v[i] for v in vecs))))
                    ],
                    dtype=np.intp,
                )
        indexes = [_compose(idx, take) for idx in batch.indexes]
        return _Batch(batch.name, batch.sources, indexes, batch.cols,
                      int(take.size))

    def _extend(self, batch: _Batch, node: Extend) -> _Batch:
        names = (
            node.input_columns
            if node.input_columns is not None
            else tuple(c.name for _si, _sn, c in batch.cols)
        )
        vecs = [batch.column_array(batch.position(nm)) for nm in names]
        fn = node.fn
        values = [
            fn(dict(zip(names, (v[i] for v in vecs))))
            for i in range(batch.nrows)
        ]
        sources = batch.sources + [_ValueSource(values)]
        indexes = batch.indexes + [None]
        cols = batch.cols + [(len(sources) - 1, node.column.name, node.column)]
        return _Batch(batch.name, sources, indexes, cols, batch.nrows)

    def _join(self, left: _Batch, right: _Batch, node: Join) -> _Batch:
        lpos = [left.position(lc) for lc, _rc in node.pairs]
        rpos = [right.position(rc) for _lc, rc in node.pairs]
        taken = None
        if len(node.pairs) == 1:
            lkeys = left.join_keys(lpos[0])
            rorder = None if lkeys is None else right.join_order(rpos[0])
            if rorder is not None:
                taken = _int_join(*lkeys, *rorder)
            elif (
                left.cols[lpos[0]][2].dtype in SCALAR_DTYPES
                and right.cols[rpos[0]][2].dtype in SCALAR_DTYPES
            ):
                taken = _scalar_join(
                    left.column_array(lpos[0]), right.column_array(rpos[0])
                )
        if taken is None:
            taken = _tuple_join(
                [left.column_array(p) for p in lpos],
                [right.column_array(p) for p in rpos],
            )
        ltake, rtake = taken
        indexes = [_compose(idx, ltake) for idx in left.indexes]
        indexes += [_compose(idx, rtake) for idx in right.indexes]
        sources = left.sources + right.sources
        shift = len(left.sources)

        out_cols = node.schema.columns
        cols = [
            (src_i, src_name, out_col)
            for (src_i, src_name, _old), out_col in zip(
                left.cols, out_cols[: len(left.cols)]
            )
        ]
        for kept_pos, out_col in zip(
            node.right_kept(), out_cols[len(left.cols):]
        ):
            src_i, src_name, _old = right.cols[kept_pos]
            cols.append((src_i + shift, src_name, out_col))
        return _Batch(
            f"{left.name}⋈{right.name}", sources, indexes, cols,
            int(ltake.size),
        )

    # -- late materialization ----------------------------------------------
    def _gather(self, batch: _Batch) -> Relation:
        """Assemble the output relation: only the output columns are
        gathered, and provenance stays factorised per leaf until read."""
        n = batch.nrows
        schema = Schema([col for _si, _sn, col in batch.cols])
        if batch.cols:
            vectors = [
                batch.column_array(p).tolist()
                for p in range(len(batch.cols))
            ]
            rows = list(zip(*vectors)) if n else []
        else:
            rows = [()] * n

        prov_parts = [
            (src.provenance, idx)
            for src, idx in zip(batch.sources, batch.indexes)
            if src.provenance is not None
        ]
        if len(prov_parts) == 1 and prov_parts[0][1] is None:
            # pristine single-source pipeline: reuse the leaf verbatim
            # when nothing changed at all, else share its provenance
            relation = batch.sources[0].relation
            if (
                batch.name == relation.name
                and schema.names == relation.schema.names
                and tuple(schema.columns) == tuple(relation.schema.columns)
            ):
                return relation
            prov = prov_parts[0][0]
        else:
            prov = DeferredProvenance(n, prov_parts)
        return Relation._build(batch.name, schema, rows, prov)


# ---------------------------------------------------------------------------
# selection pushdown
# ---------------------------------------------------------------------------
def push_down(tree: RelationExpr) -> RelationExpr:
    """Sink selections toward the leaves (through projections, renames,
    labels, condition-only distincts, and into join inputs).

    The rewrite preserves rows, row order and provenance expressions, so
    engines may apply it unconditionally.  Selections never sink below an
    :class:`Extend` — that could skip a mapping-function error the
    un-rewritten tree would raise.
    """
    if isinstance(tree, LeafRelation):
        return tree
    if isinstance(tree, Join):
        return Join(
            push_down(tree.left), push_down(tree.right), tree.pairs,
            tree.suffix, tree.keep_right,
        )
    if isinstance(tree, Select):
        return _sink(tree, push_down(tree.target))
    return replace(tree, target=push_down(tree.target))


def _sink(sel: Select, node: RelationExpr) -> RelationExpr:
    """Equivalent of ``Select(node, ...)`` with the selection sunk as far
    down as the rewrite rules allow."""
    conditions, predicate, columns = (
        sel.conditions, sel.predicate, sel.input_columns
    )

    if isinstance(node, Label):
        return Label(_sink(sel, node.target), node.label)

    if isinstance(node, Project):
        referenced = (
            [name for name, _v in conditions]
            if predicate is None
            else list(columns or ())
        )
        # projected names keep their identity below the projection; a
        # full-row predicate (columns=None) must stay above it
        if (predicate is None or columns is not None) and all(
            name in node.target.schema for name in referenced
        ):
            inner = Select(node.target, conditions, predicate, columns)
            return Project(_sink(inner, node.target), node.names)
        return Select(node, conditions, predicate, columns)

    if isinstance(node, Rename):
        inverse = {new: old for old, new in node.mapping}
        if predicate is None:
            remapped = tuple(
                (inverse.get(name, name), value) for name, value in conditions
            )
            inner = Select(node.target, remapped, None, None)
            return Rename(_sink(inner, node.target), node.mapping)
        if columns is not None:
            # the select references output (renamed) names; below the
            # rename it must read the source names, with the row dict
            # translated back so the predicate sees the names it declared
            sources = tuple(inverse.get(c, c) for c in columns)
            pushed = predicate
            if sources != columns:
                if isinstance(predicate, Predicate):
                    # structured predicates rewrite their column names in
                    # place, keeping the shape (and the vectorized mask)
                    # a re-keying lambda wrapper would destroy
                    pushed = predicate.rename(
                        {c: s for c, s in zip(columns, sources) if c != s}
                    )
                else:
                    pushed = _remapped(predicate, columns, sources)
            inner = Select(node.target, (), pushed, sources)
            return Rename(_sink(inner, node.target), node.mapping)
        return Select(node, conditions, predicate, columns)

    if isinstance(node, Distinct) and predicate is None:
        # all duplicates of a row share its cell values, so filtering
        # commutes with dedup (rows and merged provenance both agree)
        inner = Select(node.target, conditions, None, None)
        return Distinct(_sink(inner, node.target))

    if isinstance(node, Join):
        left_names = set(node.left.schema.names)
        right_map = node.right_output_names()
        if predicate is None:
            lcond = tuple(
                (n, v) for n, v in conditions if n in left_names
            )
            rcond = tuple(
                (right_map[n], v)
                for n, v in conditions
                if n not in left_names and n in right_map
            )
            if len(lcond) + len(rcond) == len(conditions):
                new_left = node.left
                if lcond:
                    new_left = _sink(
                        Select(node.left, lcond, None, None), node.left
                    )
                new_right = node.right
                if rcond:
                    new_right = _sink(
                        Select(node.right, rcond, None, None), node.right
                    )
                return Join(new_left, new_right, node.pairs, node.suffix,
                            node.keep_right)
        elif columns is not None and set(columns) <= left_names:
            new_left = _sink(
                Select(node.left, (), predicate, columns), node.left
            )
            return Join(new_left, node.right, node.pairs, node.suffix,
                        node.keep_right)
        return Select(node, conditions, predicate, columns)

    return Select(node, conditions, predicate, columns)


# ---------------------------------------------------------------------------
# processor
# ---------------------------------------------------------------------------
class Processor:
    """Executes expression trees on the columnar engine, memoizing results
    on the tree's payload slot."""

    engine = ColumnarEngine()

    def execute(self, tree: RelationExpr) -> Relation:
        cached = tree.payload
        if cached is not None:
            return cached
        relation = self.engine.execute(tree)
        tree.attach_payload(relation)
        return relation

    def count(self, tree: RelationExpr) -> int:
        cached = tree.payload
        if cached is not None:
            return len(cached)
        return self.engine.count(tree)
