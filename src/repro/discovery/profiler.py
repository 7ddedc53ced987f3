"""Column/table profiling — the Processor stage of the metadata engine.

Section 5.1: each dataset is divided into *data items*; a column data item
yields a value-distribution signature.  A :class:`ColumnProfile` packages the
MinHash signature plus summary statistics; a :class:`TableProfile` is the
per-dataset bundle stored inside context snapshots.

Profiling is **columnar and repr-free** where the dtype allows: the
relation's memoized :class:`~repro.relation.columnar.ColumnarView` packs
exact int/float/bool columns into fixed-width canonical rows, so one
``np.unique`` pass yields the distinct token universe (hashed straight
from the buffer by :func:`~repro.sketches.minhash.hash_packed`), the
frequency table and the column content-hash stream; str columns sketch
their raw values and hash their ranks.  Only ``any``-typed columns and
numeric ones holding subclasses, which have no sound repr-free encoding,
fall back to one canonical ``repr`` per value.  The profiles are
bit-identical to the value-at-a-time implementation the test suite keeps
as its scalar reference oracle, which it asserts property-style over
randomized dtypes.

A table profile's ``content_hash`` is the relation's one content identity,
``Relation.content_hash``: it ignores row order, so the same rows in
another order are the same version of a dataset.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from difflib import SequenceMatcher
from functools import cached_property, lru_cache
from heapq import nsmallest

import numpy as np

from ..relation import Relation
from ..relation.columnar import unpack_value
from ..sketches import CategoricalSummary, MinHash, NumericSummary
from ..sketches.minhash import hash_packed, hash_tokens


@dataclass(frozen=True)
class ColumnProfile:
    """Everything the index builder needs to know about one column."""

    dataset: str
    column: str
    dtype: str
    semantic: str | None
    signature: MinHash
    numeric: NumericSummary | None
    categorical: CategoricalSummary
    distinct_fraction: float
    #: hash of the column's raw values; lets re-profiling skip unchanged
    #: columns when a dataset version only touches some of them
    content_hash: str = ""

    @property
    def key(self) -> tuple[str, str]:
        return (self.dataset, self.column)

    @property
    def is_numeric(self) -> bool:
        return self.dtype in ("int", "float")

    @property
    def looks_like_key(self) -> bool:
        """High distinctness + non-trivial size: a join-key candidate."""
        return self.distinct_fraction > 0.85 and self.categorical.count >= 2


@dataclass(frozen=True)
class TableProfile:
    dataset: str
    n_rows: int
    content_hash: str
    columns: tuple[ColumnProfile, ...]

    @cached_property
    def _by_name(self) -> dict[str, ColumnProfile]:
        # cached_property writes straight into __dict__, which a frozen
        # dataclass permits; lookups after the first are O(1) even on
        # wide tables
        return {c.column: c for c in self.columns}

    def column(self, name: str) -> ColumnProfile:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no profile for column {name!r} of {self.dataset!r}"
            ) from None


def column_profile_record(profile: ColumnProfile) -> dict:
    """JSON-ready record of one column profile, minus the MinHash signature
    (the durable store carries that separately as a binary payload via
    :meth:`~repro.sketches.MinHash.to_bytes`)."""
    return {
        "column": profile.column,
        "dtype": profile.dtype,
        "semantic": profile.semantic,
        "distinct_fraction": profile.distinct_fraction,
        "content_hash": profile.content_hash,
        "numeric": (
            None if profile.numeric is None else profile.numeric.to_dict()
        ),
        "categorical": profile.categorical.to_dict(),
    }


def column_profile_from_record(
    dataset: str, record: dict, signature: MinHash
) -> ColumnProfile:
    """Inverse of :func:`column_profile_record`: bit-identical fields, with
    the signature supplied from its own round-tripped payload."""
    numeric = record.get("numeric")
    return ColumnProfile(
        dataset=dataset,
        column=record["column"],
        dtype=record["dtype"],
        semantic=record["semantic"],
        signature=signature,
        numeric=None if numeric is None else NumericSummary.from_dict(numeric),
        categorical=CategoricalSummary.from_dict(record["categorical"]),
        distinct_fraction=float(record["distinct_fraction"]),
        content_hash=record["content_hash"],
    )


def column_content_hash(relation: Relation, name: str) -> str:
    """Deterministic hash of one column's values (order-sensitive), which
    lets re-profiling reuse the profiles of unchanged columns.

    It digests the column's canonical form in row order, the one the
    content digest sorts: packed canonical rows for exact int/float/bool
    columns, and for every other column its sorted distinct canonical
    strings (count, lengths, UTF-8) and then each cell's rank among them
    (:meth:`~repro.relation.columnar.ColumnarView.ranks`).
    """
    view = relation.columnar
    h = hashlib.blake2b(digest_size=16)
    if view.packable(name):
        h.update(view.packed_matrix(name).tobytes())
    else:
        h.update(view.hash_ranked(h, name).tobytes())
    return h.hexdigest()


def _packed_display(row: bytes, dtype: str) -> str:
    """Display key for one distinct packed row (categorical summaries).

    Dtype-aware so pure int/bool columns render exactly like ``str`` of
    their values; in float columns an integral token renders as its float
    form (``1`` and ``1.0`` share one canonical token by design).
    Irreversible ``r`` rows (ints beyond int64) render as a tagged hex
    digest."""
    if row[0] == 0x72:  # 'r'
        return "int#" + row[1:].hex()
    v = unpack_value(row)
    if dtype == "float" and type(v) is int:
        v = float(v)
    return str(v)


def _categorical_of_packed(
    uniq: np.ndarray, counts: np.ndarray, nulls: int, dtype: str,
    top_k: int = 10,
) -> CategoricalSummary:
    """Categorical summary straight from the packed distinct rows.

    Replicates :meth:`CategoricalSummary.of_counts` — same branch
    structure, same ``(-count, display)`` order — but materializes
    display strings only for the rows that can actually place in the
    top-k (display keys are injective per column, so the count partition
    narrows the candidates before any ``unpack``/``str`` work).  The
    scalar oracle builds the full display dict and goes through
    ``of_counts``; tests assert both produce identical summaries."""
    n = len(counts)
    count = int(counts.sum())
    if n <= max(32, 4 * top_k):
        items = [
            (_packed_display(uniq[i].tobytes(), dtype), int(counts[i]))
            for i in range(n)
        ]
        items.sort(key=lambda kv: (-kv[1], kv[0]))
        return CategoricalSummary(
            count=count, nulls=nulls, distinct=n, top=tuple(items[:top_k])
        )
    if count == n:
        top = tuple(
            (k, 1) for k in nsmallest(
                top_k,
                (_packed_display(r.tobytes(), dtype) for r in uniq),
            )
        )
        return CategoricalSummary(
            count=count, nulls=nulls, distinct=n, top=top
        )
    thresh = int(np.partition(counts, n - top_k)[n - top_k])
    candidates = np.nonzero(counts >= thresh)[0]
    above = [
        (_packed_display(uniq[i].tobytes(), dtype), int(counts[i]))
        for i in candidates if counts[i] > thresh
    ]
    above.sort(key=lambda kv: (-kv[1], kv[0]))
    at = nsmallest(
        top_k - len(above),
        (
            _packed_display(uniq[i].tobytes(), dtype)
            for i in candidates if counts[i] == thresh
        ),
    )
    top = tuple(above + [(k, thresh) for k in at])
    return CategoricalSummary(count=count, nulls=nulls, distinct=n, top=top)


def _categorical_of_ranked(
    distinct: list[str], counts: np.ndarray, nulls: int, top_k: int = 10,
) -> CategoricalSummary:
    """Categorical summary of a str column from its ranks: ``distinct``
    is sorted, so a stable sort by descending count leaves ties in value
    order — the ``(-count, value)`` order of
    :meth:`CategoricalSummary.of_counts`, which the scalar oracle takes
    and whose output this equals."""
    top = np.argsort(-counts, kind="stable")[:top_k]
    return CategoricalSummary(
        count=int(counts.sum()), nulls=nulls, distinct=len(distinct),
        top=tuple((distinct[i], int(counts[i])) for i in top),
    )


def profile_column(
    relation: Relation, name: str, num_perm: int = 64,
    content_hash: str | None = None,
) -> ColumnProfile:
    """Sketch one column; pass ``content_hash`` when already computed.

    Packable (exact int/float/bool) columns sketch their distinct packed
    canonical rows via :func:`hash_packed`; str columns (subclasses
    included) sketch the raw values (no repr quoting).  Columns without a
    sound repr-free encoding fall back to repr tokens.
    """
    col = relation.schema[name]
    view = relation.columnar
    nulls = view.null_count(name)
    n_non_null = len(view.values(name)) - nulls
    numeric = None
    signature = MinHash(num_perm=num_perm)
    if view.packable(name):
        uniq, counts = view.packed_distinct(name)
        signature.update_hashes(hash_packed(uniq), len(uniq))
        categorical = _categorical_of_packed(uniq, counts, nulls, col.dtype)
        distinct_count = len(uniq)
        if col.dtype in ("int", "float"):
            numeric = NumericSummary.of_array(view.numeric_array(name), nulls)
    elif col.dtype == "str" and view.values_exact(name):
        distinct, ranks = view.ranks(name)
        signature.update_hashes(hash_tokens(distinct), len(distinct))
        counts = np.bincount(ranks + 1, minlength=len(distinct) + 1)[1:]
        categorical = _categorical_of_ranked(distinct, counts, nulls)
        distinct_count = len(distinct)
    else:
        # any-typed, or numeric with subclass cells: the distinct reprs it
        # is ranked by
        distinct, _ = view.ranks(name)
        signature.update_hashes(hash_tokens(distinct), len(distinct))
        freq = Counter(str(v) for v in view.values(name) if v is not None)
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
        content_hash=content_hash or column_content_hash(relation, name),
    )


def profile_table(
    relation: Relation,
    num_perm: int = 64,
    previous: TableProfile | None = None,
) -> TableProfile:
    """Profile every column; with ``previous`` (the dataset's prior profile),
    columns whose values, dtype and semantic are unchanged reuse the old
    :class:`ColumnProfile` — no re-sketching — so incremental re-registration
    of a wide dataset only pays for the columns that actually moved.
    """
    prior = previous._by_name if previous is not None else {}
    relation.columnar.materialize()  # one transpose for all columns
    columns = []
    for name in relation.columns:
        col = relation.schema[name]
        old = prior.get(name)
        content_hash = column_content_hash(relation, name)
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
            profile_column(
                relation, name, num_perm=num_perm, content_hash=content_hash,
            )
        )
    return TableProfile(
        dataset=relation.name,
        n_rows=len(relation),
        content_hash=relation.content_hash(),
        columns=tuple(columns),
    )


@lru_cache(maxsize=32768)
def _name_similarity_normalized(na: str, nb: str) -> float:
    """Similarity of two pre-normalized names, memoized process-wide: the
    index builder re-scores the same column-name pairs on every delta.  The
    ``SequenceMatcher`` ratio is only computed when its cheap upper bounds
    (``real_quick_ratio``/``quick_ratio``) show it could exceed the token
    Jaccard — the returned maximum is unchanged either way."""
    if na == nb:
        return 1.0
    tokens_a, tokens_b = set(na.split("_")), set(nb.split("_"))
    token_sim = (
        len(tokens_a & tokens_b) / len(tokens_a | tokens_b)
        if tokens_a | tokens_b
        else 0.0
    )
    if token_sim >= 1.0:
        return token_sim
    matcher = SequenceMatcher(None, na, nb)
    if (
        matcher.real_quick_ratio() <= token_sim
        or matcher.quick_ratio() <= token_sim
    ):
        return token_sim
    return max(token_sim, matcher.ratio())


def name_similarity(a: str, b: str) -> float:
    """Similarity of two column names in [0, 1] (case/sep-insensitive)."""
    return _name_similarity_normalized(
        a.lower().replace("-", "_").strip("_"),
        b.lower().replace("-", "_").strip("_"),
    )
