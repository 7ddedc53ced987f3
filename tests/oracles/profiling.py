"""Profiling oracle: the value-at-a-time profiler and content identity.

The columnar profiler in :mod:`repro.discovery.profiler` must produce
bit-identical profiles — signatures, summaries and content hashes — to
these loops, which hash one token or one packed value at a time through
the scalar reference hash and never touch the columnar view's vectorized
buffers; ``Relation.content_hash`` must equal
:func:`scalar_relation_content_hash`, which packs and ranks one cell at a
time.  Signatures match the production functions one-for-one
(``scalar_profile_table`` for ``profile_table``, and so on), so a
benchmark can swap them into :class:`~repro.discovery.MetadataEngine`
(``repro.discovery.metadata.profile_table``) and time the oracle through
the same registration path (:func:`scalar_profiling`;
:func:`profiling_through` swaps in any other profiler, such as the
classic-scheme one in :mod:`oracles.legacy`).
"""

from __future__ import annotations

import hashlib
import struct
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


def _scalar_canon(relation: Relation, name: str) -> list:
    """A ranked column's canonical strings, one cell at a time: the
    values of a str column, the ``repr`` of every other one (nulls stay
    None)."""
    values = relation.column(name)
    if (
        relation.schema[name].dtype == "str"
        and relation.columnar.values_exact(name)
    ):
        return values
    return [None if v is None else repr(v) for v in values]


def _scalar_ranked(h, canon: list) -> list[bytes]:
    """Hash a column's sorted distinct canonical strings into ``h`` one at
    a time (their count, each length, each UTF-8) and return every cell's
    int32 rank among them (nulls -1) as key bytes."""
    distinct = sorted({c for c in canon if c is not None})
    h.update(struct.pack("<q", len(distinct)))
    for d in distinct:
        h.update(struct.pack("<q", len(d)))
    for d in distinct:
        h.update(d.encode())
    rank = {d: r for r, d in enumerate(distinct)}
    return [struct.pack("<i", -1 if c is None else rank[c]) for c in canon]


def scalar_column_content_hash(relation: Relation, name: str) -> str:
    """Per-value loops over the stream ``column_content_hash`` digests."""
    h = hashlib.blake2b(digest_size=16)
    if relation.columnar.packable(name):
        for v in relation.column(name):
            h.update(pack_value(v))
    else:
        for key in _scalar_ranked(h, _scalar_canon(relation, name)):
            h.update(key)
    return h.hexdigest()


def scalar_relation_content_hash(relation: Relation) -> str:
    """``Relation.content_hash`` one cell at a time: ``pack_value`` per
    cell of a packed column, pure-Python ranks among the sorted distinct
    values (or ``repr`` strings) of every other column, one ``bytes`` key
    per row, and the keys sorted.  The columnar view only supplies the
    branch gates the production digest takes."""
    view = relation.columnar
    h = hashlib.blake2b(digest_size=32)
    h.update(repr(relation.schema).encode())
    h.update(str(len(relation)).encode())
    keys = []  # per column, every row's key bytes
    for name in relation.schema.names:
        if view.packable(name):
            keys.append([pack_value(v) for v in relation.column(name)])
        else:
            keys.append(_scalar_ranked(h, _scalar_canon(relation, name)))
    for row_key in sorted(b"".join(parts) for parts in zip(*keys)):
        h.update(row_key)
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
    elif col.dtype == "str" and view.values_exact(name):
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
        content_hash=scalar_relation_content_hash(relation),
        columns=tuple(columns),
    )


@contextmanager
def profiling_through(profile_table):
    """Route :meth:`MetadataEngine.register` through another profiler:
    swap the profiler the engine module calls, restoring it on exit."""
    saved = metadata.profile_table
    metadata.profile_table = profile_table
    try:
        yield
    finally:
        metadata.profile_table = saved


def scalar_profiling():
    """Register through the scalar oracle (:func:`scalar_profile_table`)."""
    return profiling_through(scalar_profile_table)
