"""Columnar ingest fast path vs the scalar reference oracle.

The tentpole guarantee: profiling, sketching and hashing through the
memoized columnar view produce **bit-identical** outputs to the
value-at-a-time scalar implementation (``oracles.profiling``), over
randomized dtypes and edge shapes (nulls, non-ASCII strings, empty
columns/relations, ``any``-typed containers).  The oracle always gets an
equal relation with its own columnar view (:func:`fresh`), so it never
reads the caches the production path built.  The relation's content
identity is pinned the same way, plus the law it exists for: it ignores
row order, and two NaN-free relations compare ``==`` exactly when their
digests match, as long as no ``any``-typed column mixes cells that ``==``
equates but ``repr`` tells apart (``1``, ``1.0``, ``True``)."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.profiling import (
    scalar_column_content_hash,
    scalar_profile_table,
    scalar_profiling,
    scalar_relation_content_hash,
)
from repro.discovery import MetadataEngine, metadata
from repro.discovery.profiler import (
    _categorical_of_ranked,
    column_content_hash,
    name_similarity,
    profile_column,
    profile_table,
)
from repro.relation import Column, Relation
from repro.relation.columnar import PACK_WIDTH, pack_value
from repro.sketches import CategoricalSummary, MinHash
from repro.sketches.minhash import (
    _VECTORIZE_MIN,
    _hash_token,
    _hash_token_batch,
    _TOKEN_CACHE,
    hash_packed,
    hash_tokens,
)

# ---------------------------------------------------------------------------
# randomized relation generator
# ---------------------------------------------------------------------------

_WORDS = [
    "oslo", "rome", "lima", "kyiv", "pune", "café", "außen", "ναι",
    "data\x1fmarket", "a'b\"c", "", " ", "x" * 40,
]


def _random_value(rng: np.random.Generator, dtype: str):
    if rng.random() < 0.15:
        return None
    if dtype == "int":
        return int(rng.integers(-1000, 1000))
    if dtype == "float":
        return float(np.round(rng.normal() * 100, 3))
    if dtype == "str":
        return _WORDS[int(rng.integers(len(_WORDS)))] + str(
            int(rng.integers(30))
        )
    if dtype == "bool":
        return bool(rng.integers(2))
    # "any": mixed scalars and containers
    choice = int(rng.integers(4))
    if choice == 0:
        return [int(rng.integers(5)), "nested"]
    if choice == 1:
        return {"k": int(rng.integers(5))}
    if choice == 2:
        return float(rng.normal())
    return _WORDS[int(rng.integers(len(_WORDS)))]


def random_relation(seed: int, n_rows: int | None = None) -> Relation:
    rng = np.random.default_rng(seed)
    dtypes = ["int", "float", "str", "bool", "any"]
    n_cols = int(rng.integers(1, 7))
    cols = [
        Column(
            f"col_{i}",
            dtypes[int(rng.integers(len(dtypes)))],
            semantic="tag" if rng.random() < 0.2 else None,
        )
        for i in range(n_cols)
    ]
    if n_rows is None:
        n_rows = int(rng.integers(0, 60))
    rows = [
        tuple(_random_value(rng, c.dtype) for c in cols)
        for _ in range(n_rows)
    ]
    return Relation(f"rel_{seed}", cols, rows)


def fresh(relation: Relation) -> Relation:
    """An equal relation with its own columnar view: the oracle must not
    read the caches the columnar path built on the view."""
    return Relation(relation.name, relation.schema, relation.rows)


def assert_profiles_identical(a, b):
    assert a.dataset == b.dataset
    assert a.n_rows == b.n_rows
    assert a.content_hash == b.content_hash
    assert len(a.columns) == len(b.columns)
    for ca, cb in zip(a.columns, b.columns):
        assert ca.column == cb.column
        assert ca.content_hash == cb.content_hash, ca.column
        assert ca.signature.digest() == cb.signature.digest(), ca.column
        assert ca.signature.count == cb.signature.count, ca.column
        # repr-compare: NumericSummary of an empty column carries NaNs,
        # which dataclass equality would reject
        assert repr(ca.numeric) == repr(cb.numeric), ca.column
        assert ca.categorical == cb.categorical, ca.column
        assert ca.distinct_fraction == cb.distinct_fraction, ca.column


# ---------------------------------------------------------------------------
# profiling equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_columnar_profile_bit_identical_to_scalar_oracle(seed):
    relation = random_relation(seed)
    columnar = profile_table(relation)
    scalar = scalar_profile_table(fresh(relation))
    assert_profiles_identical(columnar, scalar)


@pytest.mark.parametrize("seed", range(8))
def test_columnar_profile_identical_on_large_relations(seed):
    """Larger relations: duplicates in every column, so the distinct
    universes and frequency tables are much smaller than the columns."""
    relation = random_relation(seed, n_rows=150)
    columnar = profile_table(relation)
    scalar = scalar_profile_table(fresh(relation))
    assert_profiles_identical(columnar, scalar)


def test_subclass_values_disable_dedup_and_stay_identical():
    """Numeric subclass cells (IntEnum) compare equal to builtins but
    pack nothing of their own, so their column takes the ``repr`` path in
    both modes and both row orders; a str subclass is ranked by its
    characters, so its column hashes like the plain one."""
    from enum import IntEnum

    class Color(IntEnum):
        RED = 1

    class Tag(str):
        def __repr__(self):  # pragma: no cover - repr only
            return f"Tag({str.__repr__(self)})"

    for rows in (
        [(Color.RED,)] * 40 + [(1,)] * 40,
        [(1,)] * 40 + [(Color.RED,)] * 40,
    ):
        relation = Relation("enums", [("c", "int")], rows)
        assert column_content_hash(relation, "c") == (
            scalar_column_content_hash(fresh(relation), "c")
        )
        assert_profiles_identical(
            profile_table(relation),
            scalar_profile_table(fresh(relation)),
        )
    tagged = Relation(
        "tags", [("s", "str")],
        [(Tag("x"),)] * 40 + [("x",)] * 40,
    )
    plain = Relation("tags", [("s", "str")], [("x",)] * 80)
    assert column_content_hash(tagged, "s") == (
        scalar_column_content_hash(fresh(tagged), "s")
    ) == column_content_hash(plain, "s")
    assert tagged.content_hash() == plain.content_hash()
    assert_profiles_identical(
        profile_table(tagged), scalar_profile_table(fresh(tagged))
    )


def test_columnar_profile_identical_on_duplicate_heavy_columns():
    """Dup-heavy columns exercise the packed ``np.unique`` universes and
    the counted str summaries."""
    rng = np.random.default_rng(41)
    cols = [
        Column("cat", "str"), Column("small_int", "int"),
        Column("flag", "bool"), Column("metric", "float"),
    ]
    vocab = ["red", "green", "blue", None]
    rows = [
        (
            vocab[int(rng.integers(4))],
            int(rng.integers(5)) if rng.random() > 0.1 else None,
            bool(rng.integers(2)),
            float(round(rng.normal(), 1)),
        )
        for _ in range(400)
    ]
    relation = Relation("dups", cols, rows)
    assert_profiles_identical(
        profile_table(relation),
        scalar_profile_table(fresh(relation)),
    )


def test_profile_of_empty_relation_matches():
    relation = Relation("empty", [("a", "int"), ("b", "str")], [])
    assert_profiles_identical(
        profile_table(relation),
        scalar_profile_table(fresh(relation)),
    )


def test_profile_of_all_null_column_matches():
    relation = Relation(
        "nulls", [("a", "float"), ("b", "str")],
        [(None, None)] * 8,
    )
    columnar = profile_table(relation)
    assert_profiles_identical(
        columnar, scalar_profile_table(fresh(relation))
    )
    assert columnar.column("a").distinct_fraction == 0.0
    assert columnar.column("a").categorical.nulls == 8


def test_column_content_hash_matches_legacy_stream():
    """Every column's hash, ``any``-typed ones included (ranked by
    ``repr``), matches the scalar oracle's value-at-a-time stream."""
    checked = set()
    for seed in range(8):
        relation = random_relation(seed)
        for name in relation.columns:
            digest = column_content_hash(relation, name)
            assert digest == scalar_column_content_hash(fresh(relation), name)
            checked.add(relation.schema[name].dtype)
    assert checked == {"int", "float", "str", "bool", "any"}


def test_profile_signature_equals_minhash_of_raw_values():
    """Profiler tokens are the values' canonical forms — packed rows for
    int/float/bool, the raw string for str, ``repr`` for ``any`` — so a
    signature built from the raw non-null values must agree."""
    relation = random_relation(3, n_rows=40)
    profile = profile_table(relation)
    dtypes = set()
    for name in relation.columns:
        dtype = relation.schema[name].dtype
        dtypes.add(dtype)
        non_null = [v for v in relation.column(name) if v is not None]
        if dtype in ("int", "float", "bool"):
            packed = {pack_value(v) for v in non_null}
            expected = MinHash(num_perm=64)
            expected.update_hashes(
                hash_packed(np.frombuffer(
                    b"".join(packed), dtype=np.uint8
                ).reshape(-1, PACK_WIDTH)),
                len(packed),
            )
        elif dtype == "str":
            expected = MinHash.of_tokens(non_null, num_perm=64)
        else:
            expected = MinHash.of(non_null, num_perm=64)
        assert profile.column(name).signature.digest() == expected.digest()
    assert {"int", "str", "any"} <= dtypes


def test_scalar_oracle_registered_through_metadata_engine():
    """The ingest benchmarks time the scalar oracle through
    ``MetadataEngine.register`` (:func:`scalar_profiling`): it must
    register profiles identical to the columnar path's."""
    columnar = MetadataEngine().register(random_relation(5)).profile
    with scalar_profiling():
        scalar = MetadataEngine().register(random_relation(5)).profile
    assert_profiles_identical(scalar, columnar)
    assert metadata.profile_table is profile_table  # restored on exit


def test_profile_column_reuses_supplied_content_hash():
    relation = random_relation(7, n_rows=10)
    name = relation.columns[0]
    profile = profile_column(relation, name, content_hash="sentinel")
    assert profile.content_hash == "sentinel"


# ---------------------------------------------------------------------------
# vectorized token hashing
# ---------------------------------------------------------------------------

def test_hash_token_batch_bit_identical_to_scalar():
    rng = np.random.default_rng(11)
    tokens = [
        repr(_random_value(rng, dtype))
        for dtype in ("int", "float", "str", "any")
        for _ in range(40)
    ]
    tokens += ["", "\x1f", "a\x1fb", "é" * 10, "x" * 600, "'quoted'"]
    _TOKEN_CACHE.clear()
    batched = _hash_token_batch(tokens)
    _TOKEN_CACHE.clear()
    scalar = [_hash_token(t) for t in tokens]
    assert batched.tolist() == scalar


def test_hash_tokens_routes_agree_across_batch_sizes():
    rng = np.random.default_rng(13)
    universe = [f"tok_{int(rng.integers(1_000_000)):06d}" for _ in range(300)]
    small = universe[: _VECTORIZE_MIN - 1]
    _TOKEN_CACHE.clear()
    via_small = hash_tokens(small).tolist()
    _TOKEN_CACHE.clear()
    via_large = hash_tokens(universe).tolist()[: len(small)]
    assert via_small == via_large
    # memo round-trip: a second call is served from cache, identically
    assert hash_tokens(universe).tolist()[: len(small)] == via_small


def test_huge_batches_are_chunked_identically(monkeypatch):
    from repro.sketches import minhash as mh

    monkeypatch.setattr(mh, "_BATCH_CHUNK", 32)
    tokens = [f"tok_{i:05d}" for i in range(101)]
    _TOKEN_CACHE.clear()
    chunked = _hash_token_batch(tokens)
    _TOKEN_CACHE.clear()
    assert chunked.tolist() == [_hash_token(t) for t in tokens]


def test_non_ascii_batch_falls_back_consistently():
    tokens = [f"ключ_{i}" for i in range(_VECTORIZE_MIN + 10)]
    _TOKEN_CACHE.clear()
    batched = _hash_token_batch(tokens)
    _TOKEN_CACHE.clear()
    assert batched.tolist() == [_hash_token(t) for t in tokens]


def test_oversized_token_fallback_skips_memo(monkeypatch):
    from repro.sketches import minhash as mh

    monkeypatch.setattr(mh, "_MEMO_MAX_BATCH", 8)
    tokens = [f"t{i}" for i in range(_VECTORIZE_MIN + 6)] + ["x" * 600]
    _TOKEN_CACHE.clear()
    hashed = hash_tokens(tokens)
    # a one-shot batch routed around the memo must not populate it
    assert not _TOKEN_CACHE
    assert hashed.tolist() == [_hash_token(t) for t in tokens]


def test_any_dtype_cells_with_array_equality_profile_identically():
    """``any``-typed cells whose __eq__ is non-boolean (numpy arrays)
    must profile through both paths — null counting is identity-based."""
    relation = Relation(
        "arrays", [("x", "any"), ("y", "int")],
        [(np.array([1, 2]), 1), (None, 2), (np.array([3, 4]), None)],
    )
    assert_profiles_identical(
        profile_table(relation),
        scalar_profile_table(fresh(relation)),
    )


# ---------------------------------------------------------------------------
# relation-level fast paths: the content identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_relation_content_hash_matches_legacy_and_memoizes(seed):
    """The columnar digest, which replaced the legacy repr digest, equals
    the value-at-a-time reference loop and is memoized."""
    relation = random_relation(seed)
    expected = scalar_relation_content_hash(fresh(relation))
    assert relation.content_hash() == expected
    assert relation._chash == expected
    assert relation.content_hash() is relation.content_hash()


def test_single_column_relation_content_hash_matches_legacy():
    relation = Relation("one", [("a", "str")], [("x",), ("y",), ("x",)])
    assert relation.content_hash() == (
        scalar_relation_content_hash(fresh(relation))
    )


class _Tag(str):
    """A str subclass: ranked by its character content, as ``==`` compares
    it with a plain str."""


_PLAIN = st.text(alphabet="ab\x1f'é", max_size=3)

_CELLS = {
    "int": st.one_of(
        st.integers(-3, 3),
        st.sampled_from([2**63 - 1, 2**63, -(2**70)]),
    ),
    "float": st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, math.nan]),
        st.integers(-2, 2),
        st.floats(),
    ),
    "str": st.one_of(_PLAIN, _PLAIN.map(_Tag)),
    "bool": st.booleans(),
    # no floats or bools (``1 == 1.0 == True`` with three reprs) and no
    # tuples beside the lists (``Relation.__eq__`` freezes lists to tuples)
    "any": st.one_of(
        st.integers(-3, 3), _PLAIN, st.lists(st.integers(0, 2), max_size=2),
    ),
}


def _cell(dtype: str):
    return st.one_of(st.none(), _CELLS[dtype])


@st.composite
def _relations(draw):
    dtypes = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                           max_size=4))
    rows = draw(st.lists(
        st.tuples(*map(_cell, dtypes)), max_size=12,
    ))
    return Relation(
        "r", [(f"c{i}", d) for i, d in enumerate(dtypes)], rows
    )


def _equal_cell(value):
    """Another cell ``==`` to a float-column cell: ``1`` <-> ``1.0``,
    ``0.0`` <-> ``-0.0``."""
    if type(value) is int:
        return float(value)
    if type(value) is float and value == 0:
        return -value
    if type(value) is float and value.is_integer() and abs(value) < 2**53:
        return int(value)
    return value


def _has_nan(relation: Relation) -> bool:
    return any(v != v for row in relation.rows for v in row
               if isinstance(v, float))


@settings(max_examples=200, deadline=None)
@given(relation=_relations(), data=st.data())
def test_content_hash_is_order_insensitive_equality(relation, data):
    digest = relation.content_hash()
    assert digest == scalar_relation_content_hash(fresh(relation))
    rows = data.draw(st.permutations([list(r) for r in relation.rows]))
    permuted = Relation("p", relation.schema, [tuple(r) for r in rows])
    assert permuted.content_hash() == digest
    if rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(0, len(relation.schema) - 1))
        dtype = relation.schema.columns[c].dtype
        near_miss = data.draw(st.sampled_from(["change", "swap", "equal"]))
        if near_miss == "change":
            rows[i][c] = data.draw(_cell(dtype))
        elif near_miss == "swap":
            rows[i][c], rows[j][c] = rows[j][c], rows[i][c]
        elif dtype == "float":
            rows[i][c] = _equal_cell(rows[i][c])
    other = Relation("o", relation.schema, [tuple(r) for r in rows])
    assert other.content_hash() == scalar_relation_content_hash(fresh(other))
    if not (_has_nan(relation) or _has_nan(other)):
        assert (relation == other) == (other.content_hash() == digest)


@pytest.mark.parametrize("left, right, equal", [
    # ``==`` across int/float and the sign of zero, in another order
    ([(1, "a"), (0.0, "b")], [(-0.0, "b"), (1.0, "a")], True),
    # one cell changed
    ([(1, "a"), (2.0, "b")], [(1, "a"), (2.5, "b")], False),
    # two cells of one column swapped between rows
    ([(1, "a"), (2.0, "b")], [(1, "b"), (2.0, "a")], False),
    # a str subclass holding the same characters as a plain str
    ([(1, "a")], [(1, _Tag("a"))], True),
])
def test_content_hash_near_misses(left, right, equal):
    schema = [("x", "float"), ("s", "str")]
    a, b = Relation("a", schema, left), Relation("b", schema, right)
    assert (a == b) is equal
    assert (a.content_hash() == b.content_hash()) is equal


def test_projection_and_column_match_row_loop():
    for seed in range(8):
        relation = random_relation(seed)
        names = list(relation.columns)[::-1][:2]
        projected = relation.project(names)
        idx = relation.schema.positions(names)
        assert list(projected.rows) == [
            tuple(row[i] for i in idx) for row in relation.rows
        ]
        assert projected.provenance == relation.provenance
        for name in relation.columns:
            i = relation.schema.position(name)
            assert relation.column(name) == [r[i] for r in relation.rows]


def test_project_empty_names_keeps_row_count():
    relation = random_relation(2, n_rows=5)
    projected = relation.project([])
    assert len(projected) == 5
    assert projected.rows == ((),) * 5


def test_distinct_fast_path_matches_freeze_path():
    rows = [(1, "a"), (1, "a"), (2, "b"), (1, "a"), (None, None)]
    scalar_rel = Relation("s", [("x", "int"), ("y", "str")], rows)
    any_rel = Relation("s", [("x", "any"), ("y", "any")], rows)
    ds, da = scalar_rel.distinct(), any_rel.distinct()
    assert ds.rows == da.rows
    assert [repr(p) for p in ds.provenance] == [repr(p) for p in da.provenance]


# ---------------------------------------------------------------------------
# satellite fixes: cache release, O(1) TableProfile.column, memoized
#                  name_similarity, heavy-hitter selection
# ---------------------------------------------------------------------------

def test_release_drops_and_rebuilds_caches():
    relation = Relation(
        "r", [("a", "int"), ("s", "str"), ("x", "float")],
        [(i % 7, f"v{i % 5}", i / 4) for i in range(100)],
    )
    view = relation.columnar
    before = {
        n: column_content_hash(relation, n) for n in relation.columns
    }
    digest = view.content_digest()
    assert view._packed and view._ranked and view._numeric
    view.release()
    assert not (view._packed or view._ranked or view._heads or view._numeric)
    # rebuilt lazily, bit-identically
    after = {
        n: column_content_hash(relation, n) for n in relation.columns
    }
    assert after == before
    assert view.content_digest() == digest


def test_metadata_register_releases_caches():
    from repro.discovery.metadata import MetadataEngine

    relation = random_relation(4, n_rows=100)
    engine = MetadataEngine()
    engine.register(relation)
    view = relation._columnar
    assert view is not None
    assert not (view._packed or view._packed_distinct or view._ranked
                or view._numeric)
    assert relation.column(relation.columns[0]) is not None  # still works


def test_table_profile_column_lookup_is_mapping_backed():
    relation = random_relation(1, n_rows=12)
    profile = profile_table(relation)
    for c in profile.columns:
        assert profile.column(c.column) is c
    with pytest.raises(KeyError):
        profile.column("nope")
    # the mapping is built once and reused
    assert profile._by_name is profile._by_name


def _reference_name_similarity(a: str, b: str) -> float:
    from difflib import SequenceMatcher

    na = a.lower().replace("-", "_").strip("_")
    nb = b.lower().replace("-", "_").strip("_")
    if na == nb:
        return 1.0
    tokens_a, tokens_b = set(na.split("_")), set(nb.split("_"))
    token_sim = (
        len(tokens_a & tokens_b) / len(tokens_a | tokens_b)
        if tokens_a | tokens_b
        else 0.0
    )
    char_sim = SequenceMatcher(None, na, nb).ratio()
    return max(token_sim, char_sim)


def test_name_similarity_matches_unguarded_reference():
    # permuted token sets decide the max without SequenceMatcher
    assert name_similarity("user_id", "id_user") == 1.0
    assert name_similarity("User-ID", "user_id") == 1.0
    assert name_similarity("", "") == 1.0
    rng = np.random.default_rng(17)
    parts = ["user", "id", "name", "city", "event", "time", "score", "x"]
    for _ in range(300):
        a = "_".join(
            parts[int(i)] for i in rng.integers(len(parts), size=rng.integers(1, 4))
        )
        b = "-".join(
            parts[int(i)] for i in rng.integers(len(parts), size=rng.integers(1, 4))
        )
        assert name_similarity(a, b) == _reference_name_similarity(a, b)
        assert name_similarity(a, b) == name_similarity(a, b)  # memo stable


def test_of_counts_equals_full_sort_reference():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(1, 300))
        freq = Counter(
            {f"v{int(i):04d}": int(c) for i, c in zip(
                rng.choice(10_000, size=n, replace=False),
                rng.integers(1, 6, size=n),
            )}
        )
        got = CategoricalSummary.of_counts(freq, nulls=3)
        want_top = tuple(
            sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        )
        assert got.top == want_top, trial
        assert got.count == sum(freq.values())
        assert got.distinct == n
        assert got.nulls == 3
        values = [v for v, c in freq.items() for _ in range(c)]
        assert got == CategoricalSummary.of(values + [None] * 3)


def test_ranked_categorical_equals_of_counts():
    """A str column's summary from its counted ranks equals ``of_counts``
    on the same counts, across all three of its branches (few distinct,
    all unique, ties at the top-k threshold)."""
    rng = np.random.default_rng(29)
    for trial in range(60):
        n = int(rng.integers(0, 300))
        keys = sorted({f"v{int(i)}" for i in rng.choice(10_000, size=n)})
        high = 1 if trial % 3 == 0 else int(rng.integers(2, 6))
        counts = rng.integers(1, high + 1, size=len(keys))
        got = _categorical_of_ranked(keys, counts, nulls=2)
        want = CategoricalSummary.of_counts(
            Counter(dict(zip(keys, counts.tolist()))), nulls=2
        )
        assert got == want, trial
