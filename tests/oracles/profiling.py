"""Profiling oracle: the value-at-a-time profiler.

The columnar profiler in :mod:`repro.discovery.profiler` must produce
bit-identical profiles — signatures, summaries and content hashes — to
these loops, which hash one token or one packed value at a time through
the scalar reference hash and never touch the columnar view's vectorized
buffers.  Signatures match the production functions one-for-one
(``scalar_profile_table`` for ``profile_table``, and so on), so a
benchmark can swap them into :class:`~repro.discovery.MetadataEngine`
(``repro.discovery.metadata.profile_table`` / ``table_content_hash``) and
time the oracle through the same registration path
(:func:`scalar_profiling`; :func:`profiling_through` swaps in any other
profiler, such as the classic-scheme one in :mod:`oracles.legacy`).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro.discovery import metadata
from repro.discovery.profiler import (
    ColumnProfile,
    TableProfile,
    _packed_display,
)
from repro.relation import Relation
from repro.relation.columnar import pack_value
from repro.sketches import CategoricalSummary, MinHash, NumericSummary
from repro.sketches.minhash import _hash_bytes_raw, _hash_token


def scalar_update_tokens(signature: MinHash, tokens) -> None:
    """Fold token strings through the memoized scalar hash, one token at
    a time (what ``MinHash.update_tokens`` does with vectorized batches)."""
    batch = list(tokens if isinstance(tokens, (set, frozenset)) else set(tokens))
    signature.update_hashes(
        np.fromiter(map(_hash_token, batch), dtype=np.int64, count=len(batch)),
        len(batch),
    )


def scalar_column_content_hash(relation: Relation, name: str) -> str:
    """Per-value loops over the stream ``column_content_hash`` digests,
    memoized on the columnar view like the production hash."""
    view = relation.columnar
    cached = view.column_hashes.get(name)
    if cached is not None:
        return cached
    dtype = relation.schema[name].dtype
    h = hashlib.blake2b(digest_size=16)
    if view.packable(name):
        for v in view.values(name):
            h.update(pack_value(v))
    elif dtype == "str" and view.utf8_stream(name) is not None:
        values = view.values(name)
        lens = np.fromiter(
            (-1 if v is None else len(v) for v in values),
            dtype=np.int64, count=len(values),
        )
        h.update(lens.astype("<i8").tobytes())
        for v in values:
            if v is not None:
                h.update(v.encode())
    else:
        # no sound repr-free encoding: the repr stream
        for v in relation.column(name):
            h.update(repr(v).encode())
            h.update(b"\x1f")
    digest = h.hexdigest()
    view.column_hashes[name] = digest
    return digest


def scalar_table_content_hash(relation: Relation) -> str:
    """``table_content_hash`` over the scalar column hashes."""
    relation.columnar.materialize()
    h = hashlib.blake2b(digest_size=32)
    h.update(repr(relation.schema).encode())
    h.update(str(len(relation)).encode())
    for name in relation.schema.names:
        h.update(scalar_column_content_hash(relation, name).encode())
    return h.hexdigest()


def scalar_profile_column(
    relation: Relation, name: str, num_perm: int = 64,
    content_hash: str | None = None,
) -> ColumnProfile:
    """Sketch one column value-at-a-time: per-value
    ``pack_value``/``_hash_bytes_raw`` loops over the packed canonical
    tokens, the scalar token hash for str and repr tokens."""
    col = relation.schema[name]
    view = relation.columnar
    nulls = view.null_count(name)
    n_non_null = len(view.values(name)) - nulls
    numeric = None
    signature = MinHash(num_perm=num_perm)
    if view.packable(name):
        packed = Counter(
            pack_value(v)
            for v in view.values(name) if v is not None
        )
        uniq = sorted(packed)  # deterministic fold order (irrelevant
        # to the signature, which is order-insensitive by min-fold)
        signature.update_hashes(
            np.fromiter(
                map(_hash_bytes_raw, uniq), dtype=np.int64, count=len(uniq),
            ),
            len(uniq),
        )
        categorical = CategoricalSummary.of_counts(
            {_packed_display(r, col.dtype): packed[r] for r in uniq},
            nulls,
        )
        distinct_count = len(uniq)
        if col.dtype in ("int", "float"):
            numeric = NumericSummary.of_array(view.numeric_array(name), nulls)
    elif col.dtype == "str" and view.utf8_able(name):
        tokens = {v for v in view.values(name) if v is not None}
        scalar_update_tokens(signature, tokens)
        freq = Counter(v for v in view.values(name) if v is not None)
        distinct_count = len(tokens)
        categorical = CategoricalSummary.of_counts(freq, nulls)
    else:
        values = relation.column(name)
        non_null = [v for v in values if v is not None]
        distinct = {repr(v) for v in non_null}
        scalar_update_tokens(signature, distinct)
        freq = Counter(map(str, non_null))
        distinct_count = len(distinct)
        if col.dtype in ("int", "float"):
            numeric = NumericSummary.of_array(view.numeric_array(name), nulls)
        categorical = CategoricalSummary.of_counts(freq, nulls)
    return ColumnProfile(
        dataset=relation.name,
        column=name,
        dtype=col.dtype,
        semantic=col.semantic,
        signature=signature,
        numeric=numeric,
        categorical=categorical,
        distinct_fraction=(
            (distinct_count / n_non_null) if n_non_null else 0.0
        ),
        content_hash=content_hash or scalar_column_content_hash(
            relation, name
        ),
    )


def scalar_profile_table(
    relation: Relation,
    num_perm: int = 64,
    previous: TableProfile | None = None,
) -> TableProfile:
    """``profile_table`` over the scalar column profiler, with the same
    reuse of unchanged columns from ``previous``."""
    prior = previous._by_name if previous is not None else {}
    columns = []
    for name in relation.columns:
        col = relation.schema[name]
        old = prior.get(name)
        content_hash = scalar_column_content_hash(relation, name)
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
            scalar_profile_column(
                relation, name, num_perm=num_perm, content_hash=content_hash,
            )
        )
    return TableProfile(
        dataset=relation.name,
        n_rows=len(relation),
        content_hash=scalar_table_content_hash(relation),
        columns=tuple(columns),
    )


@contextmanager
def profiling_through(profile_table, table_content_hash):
    """Route :meth:`MetadataEngine.register` through another profiler:
    swap the profiler and table hash the engine module calls, restoring
    them on exit."""
    saved = metadata.profile_table, metadata.table_content_hash
    metadata.profile_table = profile_table
    metadata.table_content_hash = table_content_hash
    try:
        yield
    finally:
        metadata.profile_table, metadata.table_content_hash = saved


def scalar_profiling():
    """Register through the scalar oracle (:func:`scalar_profile_table`)."""
    return profiling_through(scalar_profile_table, scalar_table_content_hash)
