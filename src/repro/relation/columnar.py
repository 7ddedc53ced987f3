"""Memoized columnar view over a :class:`~repro.relation.relation.Relation`.

The ingest cold path (profiling, sketching, content hashing) and several
relational operators all need per-column data that the row-major tuple
storage keeps re-deriving: the value vector, null counts, packed
canonical rows, ranks and a numeric array.
Relations are immutable, so all of it can be computed once and shared —
a :class:`ColumnarView` is built lazily on first use and cached on the
relation (``Relation.columnar``).

Every column has one canonical form, **repr-free** where the dtype
allows.  Exact int/float/bool columns pack into fixed-width rows
(:func:`pack_value`, :meth:`ColumnarView.packed_matrix`) whose
``np.unique`` yields the distinct token universe and frequency table in
one pass.  Every other column is ranked (:meth:`ColumnarView.ranks`): each
cell gets the int32 rank of its canonical string among the column's
sorted distinct ones — the value itself in a str column (subclasses
included, which ``==`` compares by content), its ``repr`` in ``any``-typed
columns and numeric ones holding non-builtin cells — and nulls rank -1.

Those forms give a relation its one content identity
(:meth:`ColumnarView.content_digest`, memoized as
``Relation.content_hash``): every row becomes a fixed-width key of its
packed rows and ranks, and one BLAKE2b digest covers the schema, the row
count, each ranked column's distinct values and the sorted row keys.
Sorting makes it ignore row order; packing and ranking by value make
cells of a typed column that ``==`` treats as equal (``1``/``1.0``,
``0.0``/``-0.0``, ``"a"`` and a str subclass's ``"a"``) one key.  Cells of
``any``-typed columns are told apart by ``repr``.  The profiler's
per-column content hashes digest the same forms in row order.

Values in columns with a declared scalar dtype (int/float/str/bool) are
assumed to be plain scalars or ``None`` per schema validation; only
int/float/bool columns whose cells are the exact builtin types pack —
``any``-typed columns (which may hold lists or other containers) and
numeric columns holding subclasses (IntEnum) take ``repr``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .relation import Relation

#: dtypes whose values are guaranteed hashable scalars (or None)
SCALAR_DTYPES = frozenset(("int", "float", "str", "bool"))

#: per-dtype sets of *exact* runtime types under which the packed form is
#: sound; subclasses (IntEnum) compare equal to builtins yet pack nothing
#: of their own, so observing any other type sends the column down the
#: ``repr`` path.  A ``float`` column may legitimately hold ints.
_EXACT_TYPES = {
    "int": frozenset((int, type(None))),
    "bool": frozenset((bool, type(None))),
    "float": frozenset((float, int, type(None))),
}

# -- repr-free canonical packing (the sketch's numeric tokens) -------------
#
# Numeric values canonicalize to a fixed 9-byte row: one tag byte plus an
# 8-byte little-endian payload.  The encoding is a *total* function of the
# value (not of its Python type), so ``int 1``, ``float 1.0`` and ``-0.0``
# all pack identically — numerically equal values share one token, which is
# what join discovery wants — while NaN payload bits collapse to one
# canonical quiet NaN.  Rows hash directly through
# ``repro.sketches.minhash.hash_packed`` without ever building a string.

#: width of one packed canonical row (tag byte + 8-byte payload)
PACK_WIDTH = 9

_TAG_NULL = ord("n")
_TAG_BOOL = ord("b")
_TAG_INT = ord("i")
_TAG_FLOAT = ord("f")
_TAG_REPR = ord("r")  # ints beyond int64: 8-byte BLAKE2b of the repr

_NULL_ROW = b"n" + b"\x00" * 8
_NAN_ROW = b"f" + struct.pack("<Q", 0x7FF8000000000000)
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def pack_value(value: object) -> bytes:
    """Scalar reference canonicalization of one numeric/bool cell.

    * ``None`` → null row; ``bool`` → tag ``b`` + 0/1.
    * integral values (ints, and floats with integral value) in int64
      range → tag ``i`` + the exact int64 (normalizes ``-0.0`` → ``0``
      and makes ``1 == 1.0`` share a token).
    * other floats → tag ``f`` + the IEEE bits, with every NaN payload
      collapsed to one canonical quiet NaN.
    * ints beyond int64 → tag ``r`` + an 8-byte BLAKE2b of the repr.

    Must stay bit-identical to the vectorized matrix builder
    (:meth:`ColumnarView.packed_matrix`)."""
    if value is None:
        return _NULL_ROW
    t = type(value)
    if t is bool:
        return b"b\x01" + b"\x00" * 7 if value else b"b" + b"\x00" * 8
    if t is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            return b"i" + struct.pack("<q", value)
        return b"r" + hashlib.blake2b(
            repr(value).encode(), digest_size=8
        ).digest()
    f = float(value)
    if f != f:
        return _NAN_ROW
    if f.is_integer() and -(2.0 ** 63) <= f < 2.0 ** 63:
        return b"i" + struct.pack("<q", int(f))
    return b"f" + struct.pack("<d", f)


def unpack_value(row: bytes) -> object:
    """Decode a packed row back to a display value (distinct-universe
    decoding for categorical summaries; ``r`` rows are not reversible)."""
    tag = row[0]
    if tag == _TAG_NULL:
        return None
    if tag == _TAG_BOOL:
        return bool(row[1])
    if tag == _TAG_INT:
        return struct.unpack_from("<q", row, 1)[0]
    if tag == _TAG_FLOAT:
        return struct.unpack_from("<d", row, 1)[0]
    raise ValueError(f"packed row with tag {chr(tag)!r} is not reversible")


def _saturated_float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


class ColumnarView:
    """Per-column caches for one immutable relation (built lazily)."""

    __slots__ = (
        "_relation", "_values", "_nulls", "_exact", "_ranked", "_heads",
        "_packed", "_packed_distinct", "_numeric",
    )

    def __init__(self, relation: "Relation"):
        self._relation = relation
        self._values: dict[str, tuple] = {}
        self._nulls: dict[str, int] = {}
        #: per column: whether it has its dtype's repr-free form
        self._exact: dict[str, bool] = {}
        #: (sorted distinct canonical strings, int32 ranks), unpacked columns
        self._ranked: dict[str, tuple[list[str], np.ndarray]] = {}
        #: the encoded distinct strings of a ranked column, as hashed
        self._heads: dict[str, bytes] = {}
        #: non-null float64 vectors recycled from the packed builders so
        #: numeric summaries skip a second per-value pass
        self._numeric: dict[str, np.ndarray] = {}
        #: packed canonical (n, PACK_WIDTH) matrices, numeric/bool columns
        self._packed: dict[str, np.ndarray] = {}
        #: (distinct packed rows, counts) over non-null values
        self._packed_distinct: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- raw vectors -------------------------------------------------------
    def materialize(self) -> None:
        """Build every column vector in one C-level transpose — cheaper
        than per-column row scans when a consumer (the table profiler or
        the content digest) is about to touch all of them anyway."""
        relation = self._relation
        if len(self._values) >= len(relation.schema):
            return
        if relation.rows:
            columns = zip(*relation.rows)
        else:
            columns = ((),) * len(relation.schema)
        for name, column in zip(relation.schema.names, columns):
            # keep already-built vectors (and their derived caches)
            self._values.setdefault(name, column)

    def values(self, name: str) -> tuple:
        """One column's values in row order, materialized once."""
        vals = self._values.get(name)
        if vals is None:
            i = self._relation.schema.position(name)
            vals = tuple([row[i] for row in self._relation.rows])
            self._values[name] = vals
        return vals

    def values_exact(self, name: str) -> bool:
        """True when the column has its dtype's repr-free canonical form:
        an int/float/bool column holds only the exact builtin types (one
        C-level type scan), a str column only strs — subclasses included,
        decided over its distinct values while :meth:`ranks` ranks them.
        Cached."""
        ok = self._exact.get(name)
        if ok is None:
            dtype = self._relation.schema[name].dtype
            if dtype == "str":
                self.ranks(name)
                return self._exact[name]
            exact = _EXACT_TYPES.get(dtype)
            ok = exact is not None and frozenset(
                map(type, self.values(name))
            ) <= exact
            self._exact[name] = ok
        return ok

    def null_count(self, name: str) -> int:
        nulls = self._nulls.get(name)
        if nulls is None:
            values = self.values(name)
            if self._relation.schema[name].dtype in SCALAR_DTYPES:
                # tuple.count is one C pass
                nulls = values.count(None)
            else:
                # identity check, not __eq__: an ``any``-typed cell may
                # hold objects whose equality is non-boolean (arrays)
                nulls = sum(1 for v in values if v is None)
            self._nulls[name] = nulls
        return nulls

    def release(self) -> None:
        """Drop the derived caches (ranks and their encoded heads, packed
        rows, numeric arrays).

        They exist to be shared by the content digest and the profiler in
        *one* registration pass; afterwards they would otherwise stay
        pinned for the relation's lifetime.  The value vectors stay — they
        alias the row tuples' objects and keep ``column()``/``project()``
        fast.  Everything released is rebuilt lazily if asked for
        again."""
        self._ranked.clear()
        self._heads.clear()
        self._packed.clear()
        self._packed_distinct.clear()
        self._numeric.clear()

    def numeric_array(self, name: str) -> np.ndarray:
        """Non-null values as a float64 array (numeric columns only),
        reusing the vector the packed builders already cast when
        present."""
        cached = self._numeric.get(name)
        if cached is not None:
            return cached
        values = self.values(name)
        if self.null_count(name):
            values = tuple(v for v in values if v is not None)
        try:
            return np.asarray(values, dtype=float)
        except OverflowError:
            # an int beyond the float range saturates to ±inf, which the
            # numeric summary treats as it treats a float column's inf
            return np.array([_saturated_float(v) for v in values])

    # -- the content identity ----------------------------------------------
    def content_digest(self) -> str:
        """Order-insensitive BLAKE2b digest of the relation's schema and
        rows, under which cells of a typed column that ``==`` treats as
        equal are equal (see the module docstring for the row keys it
        sorts)."""
        relation = self._relation
        n = len(relation.rows)
        self.materialize()  # one transpose for all columns
        h = hashlib.blake2b(digest_size=32)
        h.update(repr(relation.schema).encode())
        h.update(str(n).encode())
        keys = []
        for name in relation.schema.names:
            if self.packable(name):
                keys.append(self.packed_matrix(name))
                continue
            ranks = self.hash_ranked(h, name)
            keys.append(ranks.view(np.uint8).reshape(n, 4))
        if n and keys:
            rows = np.hstack(keys)
            # fixed-width bytes sort bytewise, faster than the void dtype
            rows = rows.view(np.dtype((np.bytes_, rows.shape[1]))).ravel()
            h.update(np.sort(rows).tobytes())
        return h.hexdigest()

    def ranks(self, name: str) -> tuple[list[str], np.ndarray]:
        """(the column's sorted distinct canonical strings, each cell's
        int32 rank among them, nulls -1).  A str column ranks its values
        when they are all strs; every other unpacked column ranks the
        ``repr`` of its cells.  One C-level ``set`` pass finds the distinct
        values and one dict lookup per cell ranks them; the profiler
        counts the ranks for its frequency table."""
        pair = self._ranked.get(name)
        if pair is None:
            cells = self.values(name)
            distinct = None
            if self._relation.schema[name].dtype == "str":
                try:
                    distinct = set(cells)
                except TypeError:  # unhashable cells in unvalidated rows
                    pass
                else:
                    distinct.discard(None)
                    if not all(
                        issubclass(t, str) for t in set(map(type, distinct))
                    ):
                        distinct = None
                self._exact[name] = distinct is not None
            if distinct is None:
                cells = [None if v is None else repr(v) for v in cells]
                distinct = set(cells)
                distinct.discard(None)
            distinct = sorted(distinct)
            rank = dict(zip(distinct, range(len(distinct))))
            rank[None] = -1
            ranks = np.fromiter(
                map(rank.__getitem__, cells), dtype="<i4", count=len(cells)
            )
            self._nulls.setdefault(name, int(np.count_nonzero(ranks < 0)))
            pair = self._ranked[name] = (distinct, ranks)
        return pair

    def hash_ranked(self, h, name: str) -> np.ndarray:
        """Update the hash ``h`` with a ranked column's sorted distinct
        strings (their count, int64 lengths and UTF-8, encoded once for
        the content digest and the column hash) and return its cells'
        ranks."""
        distinct, ranks = self.ranks(name)
        head = self._heads.get(name)
        if head is None:
            head = self._heads[name] = b"".join((
                struct.pack("<q", len(distinct)),
                np.fromiter(
                    map(len, distinct), dtype="<i8", count=len(distinct)
                ).tobytes(),
                "".join(distinct).encode(),
            ))
        h.update(head)
        return ranks

    # -- packed canonical rows (the repr-free ingest path) ------------------
    def packable(self, name: str) -> bool:
        """True when the column canonicalizes through the packed numeric
        encoding: a declared int/float/bool dtype holding only the exact
        builtin types (or None)."""
        return (
            self._relation.schema[name].dtype in ("int", "float", "bool")
            and self.values_exact(name)
        )

    def packed_matrix(self, name: str) -> np.ndarray:
        """The column as an (n, PACK_WIDTH) uint8 matrix of canonical
        packed rows (nulls included), bit-identical to
        ``np.frombuffer(b"".join(map(pack_value, values)))`` but built
        with vectorized casts for int/float/bool columns."""
        mat = self._packed.get(name)
        if mat is None:
            mat = self._build_packed(name)
            mat.setflags(write=False)
            self._packed[name] = mat
        return mat

    def _build_packed(self, name: str) -> np.ndarray:
        values = self.values(name)
        n = len(values)
        dtype = self._relation.schema[name].dtype
        nulls = self.null_count(name)
        if nulls:
            null_mask = np.fromiter(
                (v is None for v in values), dtype=bool, count=n
            )
        else:
            null_mask = None
        out = np.zeros((n, PACK_WIDTH), dtype=np.uint8)
        try:
            if dtype == "bool":
                out[:, 0] = _TAG_BOOL
                out[:, 1] = np.fromiter(
                    (bool(v) if v is not None else False for v in values),
                    dtype=np.uint8, count=n,
                ) if nulls else np.fromiter(
                    values, dtype=np.uint8, count=n
                )
            elif dtype == "int":
                # ints beyond int64 raise OverflowError -> scalar fallback
                ints = np.fromiter(
                    (0 if v is None else v for v in values),
                    dtype=np.int64, count=n,
                ) if nulls else np.fromiter(values, dtype=np.int64, count=n)
                out[:, 0] = _TAG_INT
                out[:, 1:] = ints.astype("<i8").view(np.uint8).reshape(n, 8)
                numeric = (
                    ints[~null_mask] if null_mask is not None else ints
                ).astype(np.float64)
                numeric.setflags(write=False)
                self._numeric[name] = numeric
            else:
                self._pack_floats(name, values, null_mask, out)
        except OverflowError:
            return np.frombuffer(
                b"".join(map(pack_value, values)), dtype=np.uint8
            ).reshape(n, PACK_WIDTH).copy()
        if null_mask is not None:
            out[null_mask] = np.frombuffer(_NULL_ROW, dtype=np.uint8)
        return out

    def _pack_floats(
        self, name: str, values: tuple, null_mask, out: np.ndarray
    ) -> None:
        n = len(values)
        if null_mask is not None:
            arr = np.fromiter(
                (0.0 if v is None else v for v in values),
                dtype=np.float64, count=n,
            )
        else:
            arr = np.fromiter(values, dtype=np.float64, count=n)
        finite = np.isfinite(arr)
        if np.abs(arr[finite]).max(initial=0.0) >= 2.0 ** 53 and any(
            type(v) is int for v in values
        ):
            # a float column may hold ints; the float64 cast above is
            # only exact within 2**53, so large ints force the scalar
            # packer.  The per-cell type scan runs only when a magnitude
            # actually trips the threshold (early-exits on the first int)
            raise OverflowError
        numeric = arr[~null_mask] if null_mask is not None else arr
        numeric.setflags(write=False)
        self._numeric[name] = numeric
        out[:, 0] = _TAG_FLOAT
        nan = np.isnan(arr)
        if nan.any():
            arr = arr.copy()
            arr[nan] = np.frombuffer(
                _NAN_ROW, dtype=np.float64, offset=1
            )[0]
        out[:, 1:] = arr.astype("<f8").view(np.uint8).reshape(n, 8)
        integral = (
            np.isfinite(arr)
            & (arr == np.trunc(arr))
            & (arr >= -(2.0 ** 63))
            & (arr < 2.0 ** 63)
        )
        if integral.any():
            out[integral, 0] = _TAG_INT
            out[integral, 1:] = (
                arr[integral].astype("<i8").view(np.uint8).reshape(-1, 8)
            )

    def packed_distinct(
        self, name: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """(distinct packed rows over the non-null values as a (d,
        PACK_WIDTH) matrix, their occurrence counts) — the repr-free
        token universe, distinct-count numerator and frequency table in
        one ``np.unique`` pass, in no particular row order."""
        pair = self._packed_distinct.get(name)
        if pair is None:
            mat = self.packed_matrix(name)
            if self.null_count(name):
                mat = mat[mat[:, 0] != _TAG_NULL]
            tags = mat[:, 0]
            if len(mat) and (tags == tags[0]).all():
                # one tag (an int or bool column): the 8-byte payloads
                # alone tell rows apart, and uint64s sort fastest
                uniq, counts = np.unique(
                    np.ascontiguousarray(mat[:, 1:]).view("<u8").ravel(),
                    return_counts=True,
                )
                rows = np.empty((len(uniq), PACK_WIDTH), dtype=np.uint8)
                rows[:, 0] = tags[0]
                rows[:, 1:] = uniq.view(np.uint8).reshape(-1, 8)
            else:
                # fixed-width bytes sort bytewise, faster than void
                uniq, counts = np.unique(
                    np.ascontiguousarray(mat).view(
                        np.dtype((np.bytes_, PACK_WIDTH))
                    ).ravel(),
                    return_counts=True,
                )
                rows = uniq.view(np.uint8).reshape(-1, PACK_WIDTH)
            pair = self._packed_distinct[name] = (rows, counts)
        return pair
