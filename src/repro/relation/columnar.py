"""Memoized columnar view over a :class:`~repro.relation.relation.Relation`.

The ingest cold path (profiling, sketching, content hashing) and several
relational operators all need per-column data that the row-major tuple
storage keeps re-deriving: the value vector, null counts, value
frequencies, packed canonical rows, a numeric array, and — for the
relation-level content hash and ``any``-typed columns — one canonical
``repr`` string per value.  Relations are immutable, so all of it can be
computed once and shared — a :class:`ColumnarView` is built lazily on
first use and cached on the relation (``Relation.columnar``).

The profiler's canonical forms are **repr-free** where the dtype allows:
exact int/float/bool columns pack into fixed-width rows
(:func:`pack_value`, :meth:`ColumnarView.packed_matrix`) whose
``np.unique`` yields the distinct token universe and frequency table in
one pass, and exact str columns stream their raw UTF-8
(:meth:`ColumnarView.utf8_stream`).

The ``repr`` vector (:meth:`ColumnarView.reprs`) backs
``Relation.content_hash``, which keys arbiter offers and DoD examples, and
the profiler's fallback for columns without a repr-free encoding.  For
columns whose dtype guarantees that equal values share one ``repr``
(:data:`REPR_DEDUP_DTYPES`) it derives from a **single counting pass**:
``Counter(values)`` yields the null count and the distinct value universe,
``repr`` runs once per *distinct* value and fans out through a dict;
float columns dedup by IEEE bit pattern instead (``0.0 == -0.0`` yet their
reprs differ), and ``any`` columns take one ``repr`` per cell (containers
are unhashable).  The canonical byte buffer of a column
(:meth:`ColumnarView.canonical_bytes`: ``repr(value)`` UTF-8 encoded, each
value followed by ``0x1f``) is the stream the profiler's fallback content
hash digests in a single C-level call.

Values in columns with a declared scalar dtype (int/float/str/bool) are
assumed to be plain scalars or ``None`` per schema validation; only those
columns get the fast paths — ``any``-typed columns (which may hold lists
or other containers) always take the row-wise reference implementations.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .relation import Relation

#: dtypes whose values are guaranteed hashable scalars (or None)
SCALAR_DTYPES = frozenset(("int", "float", "str", "bool"))

#: dtypes where equal values always share one ``repr`` (so per-column work
#: can run per *distinct* value and fan out through a dict).  ``float`` is
#: excluded: ``0.0 == -0.0`` yet their reprs differ, so value-keyed dedup
#: could corrupt the canonical stream.  The guarantee only holds for the
#: exact builtin types — an ``IntEnum`` equals its int but reprs
#: differently — so eligibility also requires an observed-type check
#: (:data:`_DEDUP_EXACT_TYPES`).
REPR_DEDUP_DTYPES = frozenset(("int", "str", "bool"))

#: per-dtype sets of *exact* runtime types under which ``repr``/``str``
#: shortcuts are sound; subclasses (IntEnum, str subtypes) compare equal
#: to builtins yet render differently, so observing any other type
#: disables every value-keyed shortcut for that column.  A ``float``
#: column may legitimately hold ints (str == repr for both).
_EXACT_TYPES = {
    "int": frozenset((int, type(None))),
    "str": frozenset((str, type(None))),
    "bool": frozenset((bool, type(None))),
    "float": frozenset((float, int, type(None))),
}

#: exact type set under which raw-bit-pattern dedup is sound for floats
_FLOAT_ONLY_TYPES = frozenset((float, type(None)))

#: columns shorter than this skip the counting pass (overhead beats reuse)
_COUNT_MIN_ROWS = 64

#: separator byte terminating each canonical value (matches the scalar
#: content-hash loop)
CANONICAL_SEP = "\x1f"

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


class ColumnarView:
    """Per-column caches for one immutable relation (built lazily)."""

    __slots__ = (
        "_relation", "_values", "_reprs", "_nulls", "_non_null",
        "_counts", "_counts_any", "_repr_table", "_exact",
        "_types", "_utf8_ok", "_packed", "_packed_distinct", "_numeric",
        "column_hashes", "retain_text",
    )

    def __init__(self, relation: "Relation"):
        self._relation = relation
        #: set by owners of a profiling pass (the metadata engine) so
        #: intermediate consumers like ``content_hash`` keep the text
        #: caches alive for the rest of the pass instead of releasing
        #: what they had to build
        self.retain_text = False
        self._values: dict[str, tuple] = {}
        self._reprs: dict[str, list[str]] = {}
        self._nulls: dict[str, int] = {}
        #: (non-null values, non-null reprs) per column; aliases the full
        #: vectors when the column has no nulls
        self._non_null: dict[str, tuple] = {}
        #: value -> occurrence count (None excluded), dedup dtypes only
        self._counts: dict[str, Mapping] = {}
        #: value -> repr (including None when present), dedup dtypes only
        self._repr_table: dict[str, dict] = {}
        self._exact: dict[str, bool] = {}
        #: observed runtime types per column (one C-level scan, cached)
        self._types: dict[str, frozenset] = {}
        #: ungated value counts for the profiler's str path (may cover
        #: columns ``value_counts`` refuses; never fed back into the
        #: repr caches)
        self._counts_any: dict[str, Mapping | None] = {}
        #: join-validated "every non-null cell is a str" verdicts (the
        #: gate of the repr-free UTF-8 stream; accepts str subclasses,
        #: whose character content is their canonical form)
        self._utf8_ok: dict[str, bool] = {}
        #: non-null float64 vectors recycled from the packed builders so
        #: numeric summaries skip a second per-value pass
        self._numeric: dict[str, np.ndarray] = {}
        #: packed canonical (n, PACK_WIDTH) matrices, numeric/bool columns
        self._packed: dict[str, np.ndarray] = {}
        #: (distinct packed rows, counts) over non-null values
        self._packed_distinct: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        #: column content hashes memoized by the profiler (computed once
        #: for the table digest, then reused per column profile)
        self.column_hashes: dict[str, str] = {}

    # -- raw vectors -------------------------------------------------------
    def materialize(self) -> None:
        """Build every column vector in one C-level transpose — cheaper
        than per-column row scans when a consumer (the table profiler or
        the relation content hash) is about to touch all of them anyway."""
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

    # -- the single counting pass (dedup dtypes) ---------------------------
    def observed_types(self, name: str) -> frozenset:
        """The set of runtime types present in the column (one C-level
        scan, cached) — drives every exactness/dedup eligibility check."""
        types = self._types.get(name)
        if types is None:
            types = frozenset(map(type, self.values(name)))
            self._types[name] = types
        return types

    def values_exact(self, name: str) -> bool:
        """True when every cell is the exact builtin type the dtype
        promises (or None) — the precondition for every repr/str
        shortcut."""
        ok = self._exact.get(name)
        if ok is None:
            exact = _EXACT_TYPES.get(self._relation.schema[name].dtype)
            ok = exact is not None and self.observed_types(name) <= exact
            self._exact[name] = ok
        return ok

    def _dedupable(self, name: str) -> bool:
        return (
            self._relation.schema[name].dtype in REPR_DEDUP_DTYPES
            and len(self._relation.rows) >= _COUNT_MIN_ROWS
            and self.values_exact(name)
        )

    def value_counts(self, name: str) -> Mapping | None:
        """Occurrence count per distinct non-null value (one C-level
        ``Counter`` pass), or None when counting by value is unsound for
        the dtype (float/any) or the column is trivially small."""
        counts = self._counts.get(name)
        if counts is None:
            if not self._dedupable(name):
                return None
            counts = Counter(self.values(name))
            nulls = counts.pop(None, 0)
            self._counts[name] = counts
            self._nulls[name] = nulls
        return counts

    def value_counts_any(self, name: str) -> Mapping | None:
        """Occurrence counts without the dedup-soundness gate (the
        profiler counts raw values for any hashable str column).  Shares
        an already-built :meth:`value_counts` result but caches its own —
        the repr caches never see counts for columns they would refuse.
        Returns None only for unhashable cells."""
        sentinel = self._counts_any
        if name in sentinel:
            return sentinel[name]
        counts = self._counts.get(name)
        if counts is None:
            try:
                counts = Counter(self.values(name))
            except TypeError:
                sentinel[name] = None
                return None
            nulls = counts.pop(None, 0)
            self._nulls.setdefault(name, nulls)
        sentinel[name] = counts
        return counts

    def _table(self, name: str) -> dict:
        """``value -> repr`` over the distinct universe (dedup dtypes)."""
        table = self._repr_table.get(name)
        if table is None:
            counts = self.value_counts(name)
            table = {v: repr(v) for v in counts}
            if self._nulls[name]:
                table[None] = "None"
            self._repr_table[name] = table
        return table

    # -- derived vectors ---------------------------------------------------
    def reprs(self, name: str) -> list[str]:
        """``repr`` of every value in row order (the canonical tokens).

        Dedup-dtype columns compute one repr per distinct value and fan it
        out through the table instead of calling ``repr`` per cell."""
        reprs = self._reprs.get(name)
        if reprs is None:
            values = self.values(name)
            if self._dedupable(name):
                reprs = list(map(self._table(name).__getitem__, values))
            elif self._float_dedupable(name):
                reprs = self._float_reprs(name)
            else:
                reprs = list(map(repr, values))
            self._reprs[name] = reprs
        return reprs

    def _float_dedupable(self, name: str) -> bool:
        """Float columns can't dedup by *value* (``0.0 == -0.0`` with
        different reprs) but can dedup by raw IEEE bit pattern — equal
        bits imply identical reprs.  Only sound when every cell is a real
        ``float`` (ints share bit patterns with equal floats yet repr
        differently), hence the observed-type guard."""
        return (
            self._relation.schema[name].dtype == "float"
            and len(self._relation.rows) >= _COUNT_MIN_ROWS
            and self.observed_types(name) <= _FLOAT_ONLY_TYPES
        )

    def _float_reprs(self, name: str) -> list[str]:
        """One ``repr`` per distinct bit pattern, fanned out via
        ``np.take`` — extends the dedup fast path to float columns."""
        values = self.values(name)
        n = len(values)
        nulls = self.null_count(name)
        if nulls:
            mask = np.fromiter(
                (v is None for v in values), dtype=bool, count=n
            )
            arr = np.fromiter(
                (0.0 if v is None else v for v in values),
                dtype=np.float64, count=n,
            )
        else:
            mask = None
            arr = np.fromiter(values, dtype=np.float64, count=n)
        bits = arr.view(np.uint64)
        uniq, inverse = np.unique(bits, return_inverse=True)
        table = np.array(
            [repr(float(b)) for b in uniq.view(np.float64)], dtype=object
        )
        out = table[inverse]
        if mask is not None:
            out[mask] = "None"
        return out.tolist()

    def null_count(self, name: str) -> int:
        nulls = self._nulls.get(name)
        if nulls is None:
            values = self.values(name)
            if self._relation.schema[name].dtype in SCALAR_DTYPES:
                # tuple.count is one C pass — cheaper than forcing the
                # counting pass into existence just for the null tally
                nulls = values.count(None)
            else:
                # identity check, not __eq__: an ``any``-typed cell may
                # hold objects whose equality is non-boolean (arrays)
                nulls = sum(1 for v in values if v is None)
            self._nulls[name] = nulls
        return nulls

    def distinct_reprs(self, name: str) -> set[str]:
        """Distinct reprs of the non-null values — the MinHash token
        universe of columns without a repr-free encoding."""
        return set(self.non_null(name)[1])

    def non_null(self, name: str) -> tuple[tuple, list[str]]:
        """(non-null values, their reprs), both in row order."""
        pair = self._non_null.get(name)
        if pair is None:
            values, reprs = self.values(name), self.reprs(name)
            if self.null_count(name) == 0:
                pair = (values, reprs)
            else:
                kept = [
                    (v, r) for v, r in zip(values, reprs) if v is not None
                ]
                pair = (
                    tuple(v for v, _ in kept),
                    [r for _, r in kept],
                )
            self._non_null[name] = pair
        return pair

    def release_text(self) -> None:
        """Drop the derived text caches (reprs, counts, distinct sets).

        They exist to be shared across the consumers of *one* profiling
        pass; once a dataset is registered they would otherwise stay
        pinned for the relation's lifetime (~tens of bytes per cell).
        The value vectors stay — they alias the row tuples' objects and
        keep ``column()``/``project()`` fast.  Everything released is
        rebuilt lazily if asked for again."""
        self._reprs.clear()
        self._non_null.clear()
        self._counts.clear()
        self._counts_any.clear()
        self._repr_table.clear()
        self._packed.clear()
        self._packed_distinct.clear()
        self._numeric.clear()
        self.column_hashes.clear()

    # -- derived buffers (computed on demand, not cached: single-use) ------
    def canonical_bytes(self, name: str) -> bytes:
        """The column's canonical byte buffer: ``repr`` of each value (nulls
        included), UTF-8, each terminated by the ``0x1f`` separator — the
        exact stream the scalar content-hash loop produces."""
        reprs = self.reprs(name)
        if not reprs:
            return b""
        return (CANONICAL_SEP.join(reprs) + CANONICAL_SEP).encode()

    def numeric_array(self, name: str) -> np.ndarray:
        """Non-null values as a float64 array (numeric columns only).
        Repr-free: reuses the vector the packed builders already cast
        (or the cached non-null pair) when present, but never forces the
        repr vector into existence just to drop nulls."""
        cached = self._numeric.get(name)
        if cached is not None:
            return cached
        if self.null_count(name) == 0:
            values = self.values(name)
        else:
            pair = self._non_null.get(name)
            values = (
                pair[0] if pair is not None
                else tuple(v for v in self.values(name) if v is not None)
            )
        return np.asarray(values, dtype=float)

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
        one ``np.unique`` pass."""
        pair = self._packed_distinct.get(name)
        if pair is None:
            mat = self.packed_matrix(name)
            if self.null_count(name):
                mat = mat[mat[:, 0] != _TAG_NULL]
            rows = np.ascontiguousarray(mat).view(
                np.dtype((np.void, PACK_WIDTH))
            ).ravel()
            uniq, counts = np.unique(rows, return_counts=True)
            pair = (
                uniq.view(np.uint8).reshape(-1, PACK_WIDTH),
                counts,
            )
            self._packed_distinct[name] = pair
        return pair

    def utf8_stream(self, name: str) -> tuple[np.ndarray, bytes] | None:
        """(per-cell lengths, concatenated UTF-8 payload) — the repr-free
        canonical stream of a str column (nulls carry length -1 and no
        payload bytes; lengths are in characters, which uniquely delimits
        a valid UTF-8 concatenation).

        Self-validating: the ``str.join`` IS the type check (it raises on
        any non-str cell in one C pass, far cheaper than a per-cell type
        scan), so the method returns None for columns without a sound
        UTF-8 stream and the verdict is cached for :meth:`utf8_able`.
        str *subclasses* pass — their character content is their
        canonical form under the packed/UTF-8 encoding."""
        if self._utf8_ok.get(name) is False:
            return None
        values = self.values(name)
        n = len(values)
        try:
            if self.null_count(name):
                payload = "".join(
                    v for v in values if v is not None
                ).encode()
                lens = np.fromiter(
                    (-1 if v is None else len(v) for v in values),
                    dtype=np.int64, count=n,
                )
            else:
                payload = "".join(values).encode()
                lens = np.fromiter(map(len, values), dtype=np.int64, count=n)
        except TypeError:
            self._utf8_ok[name] = False
            return None
        self._utf8_ok[name] = True
        return lens, payload

    def utf8_able(self, name: str) -> bool:
        """Whether the column canonicalizes through the UTF-8 stream —
        the branch gate shared by the columnar path and the scalar
        reference oracle (both must take the same branch for their
        outputs to stay bit-identical)."""
        ok = self._utf8_ok.get(name)
        if ok is None:
            ok = self.utf8_stream(name) is not None
        return ok
