"""Legacy sketching oracles: the classic k-permutation MinHash and the
pre-fastpath per-value ingest pipeline.

Production sketches every column with one-permutation hashing
(:mod:`repro.sketches.minhash`).  What it replaced lives here, in one
place, for the benchmarks that time production against it (E22, E23's
successor E28) and the tests that compare estimator accuracy:

* :class:`ClassicMinHash` — the k-permutation fold: every token hash goes
  through ``num_perm`` universal hashes ``(a_i * h + b_i) mod P`` and the
  signature is the per-permutation minimum.  It subclasses the production
  :class:`~repro.sketches.MinHash` and keeps its minima in the raw-bin
  slot (a classic signature has no empty bins once a token is folded), so
  Jaccard estimation, merging, seed checks and serialization are the
  production code's own, and the discovery index accepts its signatures.
* :func:`classic_profile_table` / :func:`classic_profiling` — the
  value-at-a-time classic-scheme profiler: ``repr`` tokens folded through
  :class:`ClassicMinHash`, the ``repr`` content-hash stream per column and
  :meth:`~repro.relation.Relation.content_hash`, the one content identity,
  as the table digest.
* :func:`legacy_ingest` — the pre-fastpath registration pipeline
  (per-value hashing loops, per-token BLAKE2b with the historical canonical
  double-wrap, dict-loop summaries, row-wise relation hashing twice per
  registration).
* :func:`legacy_update_many` — one scalar token hash per *value*
  (duplicates included, no memo, no dedupe), folded through the production
  sketch.
* :func:`downgrade_to_schema_2` — rewrites a durable store into the
  two-scheme (schema 2) layout the current store must refuse.
"""

from __future__ import annotations

import hashlib
import sqlite3

import numpy as np

from repro.discovery.profiler import ColumnProfile, TableProfile
from repro.relation import Relation
from repro.relation.relation import _freeze_row
from repro.sketches import CategoricalSummary, MinHash, NumericSummary
from repro.sketches.minhash import (
    _FNV_OFFSET,
    _FNV_PRIME,
    _M64,
    _MIX_1,
    _MIX_2,
    _PRIME,
)

from .profiling import profiling_through, scalar_update_tokens

# ---------------------------------------------------------------------------
# the classic k-permutation MinHash
# ---------------------------------------------------------------------------

#: (num_perm, seed) -> shared immutable permutation coefficient arrays
_PERM_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _permutations(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    key = (num_perm, seed)
    ab = _PERM_CACHE.get(key)
    if ab is None:
        rng = np.random.default_rng(seed)
        a = rng.integers(1, _PRIME, size=num_perm, dtype=np.int64)
        b = rng.integers(0, _PRIME, size=num_perm, dtype=np.int64)
        a.setflags(write=False)
        b.setflags(write=False)
        ab = _PERM_CACHE[key] = (a, b)
    return ab


class ClassicMinHash(MinHash):
    """k-permutation MinHash: ``num_perm`` universal hashes per token."""

    __slots__ = ("_a", "_b")

    #: token-axis chunk width of the universal-hash fold: keeps the
    #: (num_perm, chunk) temporaries cache-resident on wide token sets
    _FOLD_CHUNK = 4096

    def __init__(self, num_perm: int = 64, seed: int = 7):
        super().__init__(num_perm=num_perm, seed=seed)
        self._a, self._b = _permutations(num_perm, seed)

    def _fold(self, hashes: np.ndarray) -> None:
        # (k, n) matrix of universal hashes; min over values per
        # permutation (a*h+b < 2**62 always fits int64).  The reduction
        # mod the Mersenne prime 2^31-1 uses two shift/mask folds plus a
        # conditional subtract instead of int64 division — bit-identical
        # to np.mod and several times cheaper.
        a_col = self._a[:, None]
        b_col = self._b[:, None]
        for lo in range(0, len(hashes), self._FOLD_CHUNK):
            part = hashes[lo:lo + self._FOLD_CHUNK]
            view = a_col * part[None, :]
            view += b_col
            hi = view >> 31
            np.bitwise_and(view, _PRIME, out=view)
            view += hi
            np.right_shift(view, 31, out=hi)
            np.bitwise_and(view, _PRIME, out=view)
            view += hi
            # after two folds values sit in [0, _PRIME + 1]
            np.subtract(view, _PRIME, out=view, where=view >= _PRIME)
            np.minimum(self._bins, view.min(axis=1), out=self._bins)
        self._densify()

    def _densify(self) -> None:
        # every permutation has a minimum once any token is folded: the
        # signature is the raw state itself
        self.signature = self._bins.copy()


# ---------------------------------------------------------------------------
# the classic-scheme value-at-a-time profiler
# ---------------------------------------------------------------------------

def classic_column_content_hash(relation: Relation, name: str) -> str:
    """Value-by-value BLAKE2b of the column's ``repr`` stream (each value
    followed by ``0x1f``)."""
    h = hashlib.blake2b(digest_size=16)
    for v in relation.column(name):
        h.update(repr(v).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def classic_profile_column(
    relation: Relation, name: str, num_perm: int = 64,
    content_hash: str | None = None,
) -> ColumnProfile:
    """Sketch one column value-at-a-time under the classic scheme."""
    col = relation.schema[name]
    values = relation.column(name)
    non_null = [v for v in values if v is not None]
    distinct = {repr(v) for v in non_null}
    signature = ClassicMinHash(num_perm=num_perm)
    scalar_update_tokens(signature, distinct)
    numeric = None
    if col.dtype in ("int", "float"):
        numeric = NumericSummary.of(values)
    return ColumnProfile(
        dataset=relation.name,
        column=name,
        dtype=col.dtype,
        semantic=col.semantic,
        signature=signature,
        numeric=numeric,
        categorical=CategoricalSummary.of(values),
        distinct_fraction=(
            len(distinct) / len(non_null) if non_null else 0.0
        ),
        content_hash=content_hash or classic_column_content_hash(
            relation, name
        ),
    )


def classic_profile_table(
    relation: Relation,
    num_perm: int = 64,
    previous: TableProfile | None = None,
) -> TableProfile:
    """``profile_table`` under the classic scheme, with the same reuse of
    unchanged columns from ``previous``."""
    prior = previous._by_name if previous is not None else {}
    columns = []
    for name in relation.columns:
        col = relation.schema[name]
        old = prior.get(name)
        content_hash = classic_column_content_hash(relation, name)
        if (
            old is not None
            and old.content_hash
            and old.dtype == col.dtype
            and old.semantic == col.semantic
            and old.signature.num_perm == num_perm
            and old.content_hash == content_hash
        ):
            columns.append(old)
            continue
        columns.append(
            classic_profile_column(
                relation, name, num_perm=num_perm, content_hash=content_hash,
            )
        )
    return TableProfile(
        dataset=relation.name,
        n_rows=len(relation),
        content_hash=relation.content_hash(),
        columns=tuple(columns),
    )


def classic_profiling():
    """Register through the classic-scheme profiler
    (:func:`classic_profile_table`)."""
    return profiling_through(classic_profile_table)


# ---------------------------------------------------------------------------
# the pre-fastpath ingest replica
# ---------------------------------------------------------------------------

def legacy_relation_content_hash(relation: Relation) -> str:
    h = hashlib.sha256()
    h.update(repr(relation.schema).encode())
    for row in sorted(map(repr, map(_freeze_row, relation.rows))):
        h.update(row.encode())
    return h.hexdigest()


def legacy_column_content_hash(relation: Relation, name: str) -> str:
    # faithful to the pre-fastpath call shape: ``relation.column(name)``
    # re-materialized the column list on every call
    i = relation.schema.position(name)
    h = hashlib.blake2b(digest_size=16)
    for v in [row[i] for row in relation.rows]:
        h.update(repr(v).encode())
        h.update(b"\x1f")
    return h.hexdigest()


#: the pre-fastpath pipeline did carry a token-hash memo; on cold corpora
#: it is nearly inert (every token is first-sight) but the lookup cost was
#: real, so the replica keeps it.  Clear it before each cold timing.
LEGACY_TOKEN_MEMO: dict[str, int] = {}


def _legacy_hash_token(token: str) -> int:
    h = LEGACY_TOKEN_MEMO.get(token)
    if h is None:
        h = int.from_bytes(
            hashlib.blake2b(token.encode(), digest_size=8).digest(), "big"
        ) % _PRIME
        LEGACY_TOKEN_MEMO[token] = h
    return h


def legacy_signature(distinct: set, num_perm: int) -> ClassicMinHash:
    """Per-token BLAKE2b with the historical canonical double-wrap
    (``repr("s:" + repr(v))``), folded through the broadcast matrix."""
    mh = ClassicMinHash(num_perm=num_perm)
    tokens = {repr(f"s:{t}") for t in distinct}
    if not tokens:
        return mh
    hashes = np.fromiter(
        (_legacy_hash_token(t) for t in tokens),
        dtype=np.int64,
        count=len(tokens),
    )
    hashed = (mh._a[:, None] * hashes[None, :] + mh._b[:, None]) % _PRIME
    np.minimum(mh._bins, hashed.min(axis=1), out=mh._bins)
    mh._densify()
    mh.count += len(tokens)
    return mh


def legacy_profile_column(
    relation: Relation, name: str, num_perm: int = 64
) -> dict:
    col = relation.schema[name]
    i = relation.schema.position(name)
    values = [row[i] for row in relation.rows]
    non_null = [v for v in values if v is not None]
    distinct = {repr(v) for v in non_null}
    return {
        "column": name,
        "signature": legacy_signature(distinct, num_perm),
        "numeric": (
            NumericSummary.of(values) if col.dtype in ("int", "float")
            else None
        ),
        "categorical": CategoricalSummary.of(values),
        "distinct_fraction": (
            len(distinct) / len(non_null) if non_null else 0.0
        ),
        "content_hash": legacy_column_content_hash(relation, name),
    }


def legacy_ingest(relation: Relation, num_perm: int = 64) -> dict:
    """Pre-fastpath registration work: the engine hashed the relation for
    change detection, then the profiler hashed it again, then profiled
    every column value-at-a-time."""
    legacy_relation_content_hash(relation)
    return {
        "content_hash": legacy_relation_content_hash(relation),
        "columns": [
            legacy_profile_column(relation, n, num_perm)
            for n in relation.columns
        ],
    }


# ---------------------------------------------------------------------------
# per-value scalar hashing (the registration-hashing replica)
# ---------------------------------------------------------------------------

def scalar_token_hash(token: str) -> int:
    """Reference token hash (FNV-1a + mix), recomputed per value: no memo,
    no vectorization — an independent scalar re-implementation."""
    x = _FNV_OFFSET
    for byte in token.encode():
        x = ((x ^ byte) * _FNV_PRIME) & _M64
    x = ((x ^ (x >> 33)) * _MIX_1) & _M64
    x = ((x ^ (x >> 33)) * _MIX_2) & _M64
    x ^= x >> 33
    return x % _PRIME


def legacy_update_many(mh: MinHash, values) -> None:
    """The legacy shape: one scalar hash per *value* (duplicates
    included), no memo, no dedupe; the hashes fold through the production
    sketch, so the result must equal ``mh.update_many(values)``."""
    hashes = np.fromiter(
        (scalar_token_hash(repr(v)) for v in values), dtype=np.int64
    )
    if hashes.size:
        mh.update_hashes(hashes, int(hashes.size))


# ---------------------------------------------------------------------------
# the two-scheme durable-store layout
# ---------------------------------------------------------------------------

def downgrade_to_schema_2(path) -> None:
    """Rewrite a store into the two-scheme layout: schema version 2 and a
    ``scheme`` column on every column profile."""
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            "ALTER TABLE column_profiles "
            "ADD COLUMN scheme TEXT NOT NULL DEFAULT 'classic'"
        )
        conn.execute(
            "UPDATE store_meta SET value = '2' WHERE key = 'schema_version'"
        )
        conn.commit()
    finally:
        conn.close()
