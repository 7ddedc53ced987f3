"""One-permutation hashing scheme: accuracy, canonicalization, safety.

Four property families around the ``"oph"`` sketch scheme:

* **Estimator accuracy** — OPH-with-densification and the classic
  k-permutation fold both estimate exact Jaccard within concentration
  bounds, including tiny universes where most bins are empty and
  densification supplies nearly the whole signature.
* **Packed canonicalization bit-stability** — the repr-free numeric
  encoding collapses ``-0.0``/``0.0``, every NaN payload, and int-valued
  floats onto single tokens, keeps bools distinct from ints, and the
  vectorized matrix builder matches the scalar reference byte for byte.
* **Typed mismatch errors** — comparing/merging signatures across seeds
  or schemes, or mixing sketch families inside one LSH index, raises
  :class:`~repro.errors.InvalidRequestError` (width mismatches stay
  ``ValueError``) instead of returning garbage estimates.
* **Persistence** — OPH serialization round-trips bit-identically
  through the raw-bin payload, legacy tag-less payloads still load as
  classic, and a durable store written under one scheme replays only
  into a market of that scheme.
"""

from __future__ import annotations

import sqlite3
import struct

import numpy as np
import pytest

from oracles.profiling import scalar_profile_table
from repro import DataMarket
from repro.discovery.profiler import profile_table
from repro.errors import InvalidRequestError
from repro.platform import StoreError
from repro.relation import Column, Relation
from repro.relation.columnar import PACK_WIDTH, pack_value, unpack_value
from repro.sketches import MinHash
from repro.sketches.histograms import NumericSummary
from repro.sketches.lsh import LSHIndex
from repro.sketches.minhash import jaccard_exact

from test_columnar_profiling import assert_profiles_identical, random_relation


# ---------------------------------------------------------------------------
# estimator accuracy: oph vs classic vs exact
# ---------------------------------------------------------------------------

def _token_pair(rng, universe: int, overlap: float) -> tuple[set, set]:
    pool = [f"tok{seed}_{i}" for seed, i in
            zip(rng.integers(1 << 20, size=universe), range(universe))]
    shared = set(pool[: int(universe * overlap)])
    rest = pool[len(shared):]
    half = len(rest) // 2
    return shared | set(rest[:half]), shared | set(rest[half:])


@pytest.mark.parametrize("overlap", [0.0, 0.2, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_oph_and_classic_track_exact_jaccard(overlap, seed):
    rng = np.random.default_rng(seed)
    a, b = _token_pair(rng, universe=600, overlap=overlap)
    exact = jaccard_exact(a, b)
    for scheme in ("classic", "oph"):
        sa = MinHash.of_tokens(a, num_perm=128, scheme=scheme)
        sb = MinHash.of_tokens(b, num_perm=128, scheme=scheme)
        est = sa.jaccard(sb)
        # num_perm=128 → std ≤ 0.045; 0.15 is > 3σ on a fixed seed grid
        assert abs(est - exact) < 0.15, (scheme, overlap, est, exact)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_tiny_universe_densification_dominates(size):
    """Sets far smaller than num_perm leave most bins empty: identical
    sets must still estimate 1.0 (densified slots agree because donor and
    distance agree) and disjoint sets must estimate near 0."""
    tokens = {f"t{i}" for i in range(size)}
    others = {f"u{i}" for i in range(size)}
    a = MinHash.of_tokens(tokens, num_perm=64, scheme="oph")
    b = MinHash.of_tokens(set(tokens), num_perm=64, scheme="oph")
    assert a.jaccard(b) == 1.0
    assert a.digest() == b.digest()
    c = MinHash.of_tokens(others, num_perm=64, scheme="oph")
    assert a.jaccard(c) < 0.3


def test_oph_empty_signature_semantics():
    a = MinHash(num_perm=32, scheme="oph")
    b = MinHash(num_perm=32, scheme="oph")
    assert a.jaccard(b) == 1.0  # both empty
    b.update_tokens({"x"})
    assert a.jaccard(b) == 0.0  # one empty


@pytest.mark.parametrize("scheme", ["classic", "oph"])
def test_merge_equals_union_signature(scheme):
    a_tokens = {f"a{i}" for i in range(40)} | {f"s{i}" for i in range(10)}
    b_tokens = {f"b{i}" for i in range(25)} | {f"s{i}" for i in range(10)}
    a = MinHash.of_tokens(a_tokens, num_perm=64, scheme=scheme)
    b = MinHash.of_tokens(b_tokens, num_perm=64, scheme=scheme)
    union = MinHash.of_tokens(a_tokens | b_tokens, num_perm=64,
                              scheme=scheme)
    merged = a.merge(b)
    assert merged.scheme == scheme
    assert merged.digest() == union.digest()


def test_oph_fold_order_independent():
    tokens = [f"v{i}" for i in range(100)]
    one_shot = MinHash.of_tokens(tokens, num_perm=64, scheme="oph")
    incremental = MinHash(num_perm=64, scheme="oph")
    for lo in range(0, 100, 7):
        incremental.update_tokens(tokens[lo:lo + 7])
    assert incremental.digest() == one_shot.digest()


def test_oph_seeds_decorrelate_signatures():
    tokens = {f"t{i}" for i in range(200)}
    s7 = MinHash.of_tokens(tokens, num_perm=64, seed=7, scheme="oph")
    s8 = MinHash.of_tokens(tokens, num_perm=64, seed=8, scheme="oph")
    assert s7.digest() != s8.digest()


# ---------------------------------------------------------------------------
# packed canonicalization bit-stability
# ---------------------------------------------------------------------------

def test_pack_collapses_zero_signs_and_int_valued_floats():
    assert pack_value(-0.0) == pack_value(0.0) == pack_value(0)
    assert pack_value(1.0) == pack_value(1)
    assert pack_value(-3.0) == pack_value(-3)
    assert pack_value(2.5) != pack_value(2)


def test_pack_collapses_nan_payloads():
    quiet = float("nan")
    odd_payload = struct.unpack(
        "<d", struct.pack("<Q", 0x7FF8000000000123)
    )[0]
    negative_nan = struct.unpack(
        "<d", struct.pack("<Q", 0xFFF8000000000001)
    )[0]
    assert odd_payload != odd_payload  # genuinely NaN
    assert pack_value(quiet) == pack_value(odd_payload)
    assert pack_value(quiet) == pack_value(negative_nan)


def test_pack_keeps_bools_apart_from_ints():
    assert pack_value(True) != pack_value(1)
    assert pack_value(False) != pack_value(0)
    assert pack_value(True) != pack_value(False)


def test_pack_handles_int64_boundaries_and_huge_ints():
    lo, hi = -(2 ** 63), 2 ** 63 - 1
    assert unpack_value(pack_value(lo)) == lo
    assert unpack_value(pack_value(hi)) == hi
    huge = pack_value(10 ** 40)
    assert huge[0:1] == b"r" and len(huge) == PACK_WIDTH
    assert huge == pack_value(10 ** 40)  # deterministic
    assert huge != pack_value(-(10 ** 40))
    # 2^63 exactly overflows int64 as an int but packs as a float
    assert pack_value(2 ** 63)[0:1] == b"r"
    assert pack_value(2.0 ** 63)[0:1] == b"f"


def test_pack_round_trips_reversible_tags():
    for v in (None, True, False, 0, -17, 2 ** 62, 0.5, -1e300):
        assert unpack_value(pack_value(v)) == v
    with pytest.raises(ValueError):
        unpack_value(pack_value(10 ** 40))


@pytest.mark.parametrize("values", [
    [2.0, 1.5, -0.0, 0.0, float("nan"), None, float("inf"), -float("inf")],
    [1, -1, 0, 2 ** 62, None],
    [2.5e300, 1.7e18, -0.125, None],
])
def test_packed_matrix_matches_scalar_reference(values):
    dtype = "float" if any(isinstance(v, float) for v in values) else "int"
    relation = Relation("t", [Column("c", dtype)], [(v,) for v in values])
    matrix = relation.columnar.packed_matrix("c")
    assert matrix.shape == (len(values), PACK_WIDTH)
    for row, value in zip(matrix, values):
        assert row.tobytes() == pack_value(value), value


# ---------------------------------------------------------------------------
# typed mismatch errors
# ---------------------------------------------------------------------------

def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown MinHash scheme"):
        MinHash(scheme="simhash")


@pytest.mark.parametrize("op", ["jaccard", "merge"])
def test_scheme_mismatch_raises_typed_error(op):
    classic = MinHash.of_tokens({"a"}, num_perm=64, scheme="classic")
    oph = MinHash.of_tokens({"a"}, num_perm=64, scheme="oph")
    with pytest.raises(InvalidRequestError, match="different schemes"):
        getattr(classic, op)(oph)


@pytest.mark.parametrize("op", ["jaccard", "merge"])
@pytest.mark.parametrize("scheme", ["classic", "oph"])
def test_seed_mismatch_raises_typed_error(op, scheme):
    a = MinHash.of_tokens({"a"}, num_perm=64, seed=1, scheme=scheme)
    b = MinHash.of_tokens({"a"}, num_perm=64, seed=2, scheme=scheme)
    with pytest.raises(InvalidRequestError, match="different seeds"):
        getattr(a, op)(b)


@pytest.mark.parametrize("op", ["jaccard", "merge"])
def test_width_mismatch_stays_value_error(op):
    a = MinHash.of_tokens({"a"}, num_perm=32, scheme="oph")
    b = MinHash.of_tokens({"a"}, num_perm=64, scheme="oph")
    with pytest.raises(ValueError, match="different widths"):
        getattr(a, op)(b)


def test_lsh_index_pins_sketch_family():
    index = LSHIndex(num_perm=64, bands=16)
    classic = MinHash.of_tokens({"a", "b"}, num_perm=64, scheme="classic")
    oph = MinHash.of_tokens({"a", "b"}, num_perm=64, scheme="oph")
    index.add("first", classic)
    with pytest.raises(InvalidRequestError, match="mixed sketch families"):
        index.add("second", oph)
    with pytest.raises(InvalidRequestError, match="mixed sketch families"):
        index.candidates(oph)
    reseeded = MinHash.of_tokens({"a"}, num_perm=64, seed=99,
                                 scheme="classic")
    with pytest.raises(InvalidRequestError, match="mixed sketch families"):
        index.add("third", reseeded)
    # same family still works
    index.add("fourth", MinHash.of_tokens({"a"}, num_perm=64,
                                          scheme="classic"))
    assert "first" in index.candidates(classic)


def test_lsh_index_accepts_oph_when_pinned_oph():
    index = LSHIndex(num_perm=64, bands=16)
    a = MinHash.of_tokens({f"t{i}" for i in range(50)}, num_perm=64,
                          scheme="oph")
    b = MinHash.of_tokens({f"t{i}" for i in range(50)}, num_perm=64,
                          scheme="oph")
    index.add("a", a)
    assert index.query(b)[0] == ("a", 1.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_tokens", [0, 3, 200])
def test_oph_round_trip_is_bit_identical(n_tokens):
    mh = MinHash.of_tokens({f"t{i}" for i in range(n_tokens)},
                           num_perm=64, scheme="oph")
    back = MinHash.from_bytes(mh.to_bytes())
    assert back.scheme == "oph"
    assert back.count == mh.count
    assert back.digest() == mh.digest()
    assert np.array_equal(back._bins, mh._bins)
    # raw bins survived, so post-load updates keep agreeing with a
    # signature that never went through bytes
    more = {f"extra{i}" for i in range(20)}
    back.update_tokens(more)
    mh.update_tokens(more)
    assert back.digest() == mh.digest()


def test_classic_round_trip_carries_scheme_tag():
    mh = MinHash.of_tokens({"a", "b"}, num_perm=32, scheme="classic")
    back = MinHash.from_bytes(mh.to_bytes())
    assert back.scheme == "classic"
    assert back.digest() == mh.digest()


def test_legacy_tagless_payload_loads_as_classic():
    mh = MinHash.of_tokens({"a", "b", "c"}, num_perm=32, scheme="classic")
    header = MinHash._HEADER.pack(mh.num_perm, mh.seed, mh.count)
    legacy = header + mh.signature.astype("<i8").tobytes()
    back = MinHash.from_bytes(legacy)
    assert back.scheme == "classic"
    assert back.digest() == mh.digest()
    assert back.count == mh.count


def test_corrupt_payloads_rejected():
    mh = MinHash.of_tokens({"a"}, num_perm=32, scheme="oph")
    data = mh.to_bytes()
    with pytest.raises(ValueError, match="corrupt MinHash payload"):
        MinHash.from_bytes(data + b"\x00\x00")
    bad_tag = data[: MinHash._HEADER.size] + b"\x07" + data[
        MinHash._HEADER.size + 1:
    ]
    with pytest.raises(ValueError, match="unknown MinHash scheme tag"):
        MinHash.from_bytes(bad_tag)


# ---------------------------------------------------------------------------
# oph profiling: columnar == scalar oracle, edge relations included
# ---------------------------------------------------------------------------

def fresh(relation: Relation) -> Relation:
    """An equal relation with its own columnar view: the oracle must not
    read the OPH column hashes the columnar path memoized on the view."""
    return Relation(relation.name, relation.schema, relation.rows)


@pytest.mark.parametrize("seed", range(15))
def test_oph_profile_bit_identical_to_scalar_oracle(seed):
    relation = random_relation(seed)
    columnar = profile_table(relation, scheme="oph")
    scalar = scalar_profile_table(fresh(relation), scheme="oph")
    assert_profiles_identical(columnar, scalar)
    assert all(c.signature.scheme == "oph" for c in columnar.columns)


class _StrSub(str):
    pass


EDGE_RELATIONS = [
    Relation(
        "float_edges",
        [Column("f", "float")],
        [(v,) for v in (2.0, 1.5, -0.0, 0.0, float("nan"), None,
                        float("inf"), -float("inf"), 2.5e300, 1.7e18)],
    ),
    Relation(
        "huge_ints",
        [Column("i", "int")],
        [(v,) for v in (10 ** 40, -(2 ** 70), 2 ** 62, -1, None, 0)],
    ),
    Relation(
        "int_in_float_col",
        [Column("f", "float")],
        [(2 ** 60 + 1,), (0.5,), (None,), (3,)],
    ),
    Relation(
        "str_subclass",
        [Column("s", "str")],
        [(_StrSub("alpha"),), ("alpha",), ("β\x1f",), ("",), (None,)],
    ),
    Relation(
        "any_mixture",
        [Column("a", "any")],
        [((1, 2),), ({"k": 1},), (True,), (1.0,), (1,), (None,),
         ("text",)],
    ),
    Relation("no_rows", [Column("x", "int"), Column("y", "str")], []),
    Relation("all_null", [Column("x", "float")], [(None,), (None,)]),
]


@pytest.mark.parametrize(
    "relation", EDGE_RELATIONS, ids=lambda r: r.name
)
def test_oph_profile_identical_on_edge_relations(relation):
    columnar = profile_table(relation, scheme="oph")
    scalar = scalar_profile_table(fresh(relation), scheme="oph")
    assert_profiles_identical(columnar, scalar)


def test_numeric_summary_survives_nan_and_inf():
    data = np.array([1.0, float("nan"), float("inf"), -2.0])
    summary = NumericSummary.of_array(data, nulls=1)
    assert summary.count == 4 and summary.nulls == 1
    assert summary.minimum == -2.0
    assert summary.maximum == float("inf")
    assert sum(summary.bin_counts) == 2  # histogram over finite values only
    all_nan = NumericSummary.of_array(np.array([float("nan")] * 3), nulls=0)
    assert all_nan.minimum != all_nan.minimum  # NaN stats, no crash
    # the finite fast path is bit-identical to the pre-robustness output
    finite = NumericSummary.of_array(np.array([1.0, 2.0, 3.0]), nulls=0)
    assert finite.minimum == 1.0 and finite.maximum == 3.0
    assert sum(finite.bin_counts) == 3


# ---------------------------------------------------------------------------
# durable store: scheme column, bit-identical replay, typed refusals
# ---------------------------------------------------------------------------

def _store_corpus():
    return [
        Relation(
            "orders",
            [Column("order_id", "int"), Column("cust_id", "int"),
             Column("total", "float")],
            [(i, i % 5, float(i) * 1.5) for i in range(30)],
        ),
        Relation(
            "customers",
            [Column("cust_id", "int"), Column("name", "str")],
            [(i, f"name{i}") for i in range(5)],
        ),
    ]


def _seed_oph_store(tmp_path):
    path = tmp_path / "market.db"
    market = DataMarket(scheme="oph", store=str(path))
    for rel in _store_corpus():
        market.register_dataset(rel, seller="acme")
    return path, market


def test_oph_store_replays_bit_identically(tmp_path):
    path, warm = _seed_oph_store(tmp_path)
    cold = DataMarket(scheme="oph", store=str(path))
    for rel in _store_corpus():
        warm_profile = warm.metadata.snapshot(rel.name).profile
        cold_profile = cold.metadata.snapshot(rel.name).profile
        assert warm_profile.content_hash == cold_profile.content_hash
        for cw, cc in zip(warm_profile.columns, cold_profile.columns):
            assert cw.signature.scheme == cc.signature.scheme == "oph"
            assert cw.signature.to_bytes() == cc.signature.to_bytes()
            assert warm.index.lsh_band_keys(cw.signature) == (
                cold.index.lsh_band_keys(cc.signature)
            )


def test_store_refuses_cross_scheme_cold_start(tmp_path):
    path, _warm = _seed_oph_store(tmp_path)
    with pytest.raises(StoreError, match="scheme"):
        DataMarket(scheme="classic", store=str(path))
    # classic-written stores symmetrically refuse oph markets
    classic_path = tmp_path / "classic.db"
    classic = DataMarket(scheme="classic", store=str(classic_path))
    classic.register_dataset(_store_corpus()[0], seller="acme")
    with pytest.raises(StoreError, match="re-register the corpus"):
        DataMarket(scheme="oph", store=str(classic_path))


def test_store_refuses_mixed_scheme_rows(tmp_path):
    path, _warm = _seed_oph_store(tmp_path)
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            "UPDATE column_profiles SET scheme = 'classic' "
            "WHERE rowid IN (SELECT rowid FROM column_profiles LIMIT 1)"
        )
        conn.commit()
    finally:
        conn.close()
    with pytest.raises(StoreError, match="mixed sketch schemes"):
        DataMarket(scheme="oph", store=str(path))


def test_store_scheme_column_round_trips(tmp_path):
    path, _warm = _seed_oph_store(tmp_path)
    conn = sqlite3.connect(path)
    try:
        schemes = {
            row[0]
            for row in conn.execute(
                "SELECT DISTINCT scheme FROM column_profiles"
            )
        }
    finally:
        conn.close()
    assert schemes == {"oph"}
