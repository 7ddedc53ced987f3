"""One-permutation MinHash in rounds: accuracy, canonicalization, safety.

Four property families around the production sketch:

* **Estimator accuracy** — OPH and the classic k-permutation oracle
  (``oracles.legacy``) both estimate exact Jaccard within concentration
  bounds, including tiny universes where later rounds supply nearly the
  whole signature, and tiny sets whose tokens share a bin; on sparse
  nested sets the OPH estimate spreads at most 1.25x as widely as the
  classic one.
* **Packed canonicalization bit-stability** — the repr-free numeric
  encoding collapses ``-0.0``/``0.0``, every NaN payload, and int-valued
  floats onto single tokens, keeps bools distinct from ints, and the
  vectorized matrix builder matches the scalar reference byte for byte.
* **Typed mismatch errors** — comparing/merging signatures across seeds,
  or mixing seeds inside one LSH index, raises
  :class:`~repro.errors.InvalidRequestError` (width mismatches stay
  ``ValueError``) instead of returning garbage estimates.
* **Persistence** — serialization round-trips bit-identically through the
  raw-bin payload, payloads of any other length are rejected, and a
  durable store written under the two-scheme schema is refused.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from oracles.legacy import ClassicMinHash, downgrade_to_schema_2
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
from repro.sketches.minhash import (
    _PRIME,
    _round_hashes,
    _seed_offset,
    hash_tokens,
    jaccard_exact,
)

from test_columnar_profiling import (
    assert_profiles_identical,
    fresh,
    random_relation,
)

#: the production sketch and the classic k-permutation oracle
SKETCHES = {"classic": ClassicMinHash, "oph": MinHash}


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
    for scheme, sketch in SKETCHES.items():
        sa = sketch.of_tokens(a, num_perm=128)
        sb = sketch.of_tokens(b, num_perm=128)
        est = sa.jaccard(sb)
        # num_perm=128 → std ≤ 0.045; 0.15 is > 3σ on a fixed seed grid
        assert abs(est - exact) < 0.15, (scheme, overlap, est, exact)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_tiny_universe_densification_dominates(size):
    """Sets far smaller than num_perm leave most bins to later rounds:
    identical sets must still estimate 1.0 (the same rounds reach the
    same bins) and disjoint sets must estimate near 0."""
    tokens = {f"t{i}" for i in range(size)}
    others = {f"u{i}" for i in range(size)}
    a = MinHash.of_tokens(tokens, num_perm=64)
    b = MinHash.of_tokens(set(tokens), num_perm=64)
    assert a.jaccard(b) == 1.0
    assert a.digest() == b.digest()
    c = MinHash.of_tokens(others, num_perm=64)
    assert a.jaccard(c) < 0.3


def test_oph_empty_signature_semantics():
    a = MinHash(num_perm=32)
    b = MinHash(num_perm=32)
    assert a.jaccard(b) == 1.0  # both empty
    b.update_tokens({"x"})
    assert a.jaccard(b) == 0.0  # one empty


@pytest.mark.parametrize("scheme", ["classic", "oph"])
def test_merge_equals_union_signature(scheme):
    a_tokens = {f"a{i}" for i in range(40)} | {f"s{i}" for i in range(10)}
    b_tokens = {f"b{i}" for i in range(25)} | {f"s{i}" for i in range(10)}
    sketch = SKETCHES[scheme]
    a = sketch.of_tokens(a_tokens, num_perm=64)
    b = sketch.of_tokens(b_tokens, num_perm=64)
    union = sketch.of_tokens(a_tokens | b_tokens, num_perm=64)
    assert a.merge(b).digest() == union.digest()


def test_oph_fold_order_independent():
    tokens = [f"v{i}" for i in range(100)]
    one_shot = MinHash.of_tokens(tokens, num_perm=64)
    incremental = MinHash(num_perm=64)
    for lo in range(0, 100, 7):
        incremental.update_tokens(tokens[lo:lo + 7])
    assert incremental.digest() == one_shot.digest()


def test_oph_seeds_decorrelate_signatures():
    tokens = {f"t{i}" for i in range(200)}
    s7 = MinHash.of_tokens(tokens, num_perm=64, seed=7)
    s8 = MinHash.of_tokens(tokens, num_perm=64, seed=8)
    assert s7.digest() != s8.digest()


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def test_round_hashes_are_fixed_per_family():
    """Each round's hash is a bijection of the hash universe, round 0 is
    the identity, and the rest depend only on (num_perm, seed) and differ
    across rounds and seeds."""
    a, b = _round_hashes(64, 7)
    assert a.shape == b.shape == (128,)
    assert _round_hashes(64, 7)[0] is a  # built once per family
    assert not a.flags.writeable and not b.flags.writeable
    assert (a[0], b[0]) == (1, 0)
    assert (a >= 1).all() and (a < _PRIME).all()
    assert (b >= 0).all() and (b < _PRIME).all()
    assert len(set(zip(a.tolist(), b.tolist()))) == 128
    assert not np.array_equal(_round_hashes(64, 8)[0][1:], a[1:])


def _rounds_reference(tokens, num_perm: int, seed: int) -> np.ndarray:
    """Every round of every token, without stopping early: round
    ``r < num_perm`` reaches the bin of its hash's high bits, round
    ``num_perm + j`` reaches bin ``j``."""
    h = (hash_tokens(tokens) + _seed_offset(seed)) % _PRIME
    a, b = _round_hashes(num_perm, seed)
    bins = np.full(num_perm, np.iinfo(np.int64).max)
    for r in range(2 * num_perm):
        hr = (a[r] * h + b[r]) % _PRIME
        reached = (hr * num_perm) // _PRIME if r < num_perm else (
            np.full(len(h), r - num_perm)
        )
        np.minimum.at(bins, reached, r * _PRIME + hr)
    return bins


@pytest.mark.parametrize("n_tokens", [1, 2, 5, 40])
def test_bins_hold_the_first_round_that_reaches_them(n_tokens):
    tokens = [f"t{i}" for i in range(n_tokens)]
    mh = MinHash.of_tokens(set(tokens), num_perm=64)
    assert np.array_equal(mh._bins, _rounds_reference(tokens, 64, mh.seed))
    assert np.array_equal(mh.signature, mh._bins)
    # round 0 fills at most one bin per token
    assert 0 < (mh._bins < _PRIME).sum() <= n_tokens


@pytest.mark.parametrize("n_tokens", [1, 2, 3, 6])
def test_tiny_folds_and_merges_match_one_shot(n_tokens):
    """Stopping early stays exact: a token at a time, or singletons
    merged, give the one-shot signature."""
    tokens = [f"t{i}" for i in range(n_tokens)]
    one_shot = MinHash.of_tokens(tokens, num_perm=64)
    incremental = MinHash(num_perm=64)
    merged = MinHash(num_perm=64)
    for t in tokens:
        incremental.update_tokens([t])
        merged = merged.merge(MinHash.of_tokens([t], num_perm=64))
    assert incremental.digest() == one_shot.digest() == merged.digest()


def test_runs_of_empty_bins_draw_independent_donors():
    """Rotation densification copied one donor into whole runs of empty
    bins; bins round 0 leaves empty are each reached by whichever token a
    later round sends there first, so neighbours agree only by chance."""
    mh = MinHash.of_tokens({f"t{i}" for i in range(4)}, num_perm=64)
    empty = mh._bins >= _PRIME
    both = empty[1:] & empty[:-1]
    same = (mh.signature[1:] == mh.signature[:-1]) & both
    assert both.sum() > 40
    assert same.sum() / both.sum() < 0.5


def test_tokens_sharing_a_bin_stay_visible_to_tiny_sets():
    """``{0}`` against ``{0, 217}`` at 256 bins: both tokens of the pair
    fall into the one bin ``{0}`` fills in round 0, where 217's hash is
    the smaller.  Copying that bin into the empty ones (densification)
    put 217 into every slot of the pair's signature and estimated 0.0
    (exact 0.5); later rounds send 0 to other bins."""
    single = MinHash.of({0}, num_perm=256)
    pair = MinHash.of({0, 217}, num_perm=256)
    homed = np.flatnonzero(pair._bins < _PRIME)
    assert np.array_equal(homed, np.flatnonzero(single._bins < _PRIME))
    assert len(homed) == 1 and pair._bins[homed] != single._bins[homed]
    assert abs(single.jaccard(pair) - 0.5) < 0.1


def test_tiny_sets_estimate_within_k_permutation_spread():
    """2,000 seeded pairs of 1-6 values from a 30-value universe, many
    with two tokens in one bin: at 256 bins (a k-permutation sketch's
    standard deviation is at most 0.031) no estimate is 0.15 off."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(2000):
        a = set(rng.integers(0, 30, rng.integers(1, 7)).tolist())
        b = set(rng.integers(0, 30, rng.integers(1, 7)).tolist())
        est = MinHash.of(a, num_perm=256).jaccard(MinHash.of(b, num_perm=256))
        worst = max(worst, abs(est - jaccard_exact(a, b)))
    assert worst < 0.15


# ---------------------------------------------------------------------------
# sparse-set accuracy (key columns far smaller than num_perm)
# ---------------------------------------------------------------------------

def test_small_key_contained_in_larger_key_is_found():
    """A 4-value key contained in a 20-value key (exact Jaccard 0.2, the
    ``status.s_code`` ⊂ ``orders.s_code`` pair of the cost-planning
    corpus) must clear the index's overlap bar; rotation densification
    estimated 0.0625 here."""
    status = Relation("status", [Column("s_code", "int")],
                      [(i,) for i in range(4)])
    orders = Relation("orders", [Column("s_code", "int")],
                      [(i % 20,) for i in range(200)])
    small = profile_table(status).column("s_code").signature
    large = profile_table(orders).column("s_code").signature
    assert small.jaccard(large) >= 0.15


@pytest.mark.parametrize("small,large", [(4, 20), (10, 50)])
def test_sparse_nested_sets_spread_no_wider_than_classic(small, large):
    """Over 200 seeded nested pairs, the OPH estimate's standard deviation
    stays within 1.25x of the classic k-permutation fold's (rotation
    densification read about 1.7x at 4-vs-20 and 1.3x at 10-vs-50)."""
    estimates = {scheme: [] for scheme in SKETCHES}
    for seed in range(200):
        rng = np.random.default_rng(seed)
        values = rng.choice(10 ** 9, size=large, replace=False).tolist()
        for scheme, sketch in SKETCHES.items():
            estimates[scheme].append(
                sketch.of(values[:small]).jaccard(sketch.of(values))
            )
    sd = {scheme: float(np.std(e)) for scheme, e in estimates.items()}
    assert sd["oph"] <= 1.25 * sd["classic"], sd
    assert abs(np.mean(estimates["oph"]) - small / large) < 0.02


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

@pytest.mark.parametrize("op", ["jaccard", "merge"])
@pytest.mark.parametrize("scheme", ["classic", "oph"])
def test_seed_mismatch_raises_typed_error(op, scheme):
    sketch = SKETCHES[scheme]
    a = sketch.of_tokens({"a"}, num_perm=64, seed=1)
    b = sketch.of_tokens({"a"}, num_perm=64, seed=2)
    with pytest.raises(InvalidRequestError, match="different seeds"):
        getattr(a, op)(b)


@pytest.mark.parametrize("op", ["jaccard", "merge"])
def test_width_mismatch_stays_value_error(op):
    a = MinHash.of_tokens({"a"}, num_perm=32)
    b = MinHash.of_tokens({"a"}, num_perm=64)
    with pytest.raises(ValueError, match="different widths"):
        getattr(a, op)(b)


def test_lsh_index_pins_sketch_family():
    """The first signature pins the index's seed; signatures of another
    seed can neither be added nor queried."""
    index = LSHIndex(num_perm=64, bands=16)
    first = MinHash.of_tokens({"a", "b"}, num_perm=64)
    reseeded = MinHash.of_tokens({"a", "b"}, num_perm=64, seed=99)
    index.add("first", first)
    with pytest.raises(InvalidRequestError, match="mixed sketch families"):
        index.add("second", reseeded)
    with pytest.raises(InvalidRequestError, match="mixed sketch families"):
        index.candidates(reseeded)
    # same seed still works
    index.add("third", MinHash.of_tokens({"a"}, num_perm=64))
    assert "first" in index.candidates(first)


def test_lsh_index_accepts_oph_when_pinned_oph():
    index = LSHIndex(num_perm=64, bands=16)
    a = MinHash.of_tokens({f"t{i}" for i in range(50)}, num_perm=64)
    b = MinHash.of_tokens({f"t{i}" for i in range(50)}, num_perm=64)
    index.add("a", a)
    assert index.query(b)[0] == ("a", 1.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_tokens", [0, 3, 200])
def test_oph_round_trip_is_bit_identical(n_tokens):
    mh = MinHash.of_tokens({f"t{i}" for i in range(n_tokens)},
                           num_perm=64)
    back = MinHash.from_bytes(mh.to_bytes())
    assert len(mh.to_bytes()) == MinHash._HEADER.size + 8 * 64
    assert back.count == mh.count
    assert back.digest() == mh.digest()
    assert np.array_equal(back._bins, mh._bins)
    # raw bins survived, so post-load updates keep agreeing with a
    # signature that never went through bytes
    more = {f"extra{i}" for i in range(20)}
    back.update_tokens(more)
    mh.update_tokens(more)
    assert back.digest() == mh.digest()


def test_corrupt_payloads_rejected():
    mh = MinHash.of_tokens({"a"}, num_perm=32)
    data = mh.to_bytes()
    with pytest.raises(ValueError, match="corrupt MinHash payload"):
        MinHash.from_bytes(data + b"\x00\x00")
    with pytest.raises(ValueError, match="corrupt MinHash payload"):
        MinHash.from_bytes(data[:-8])
    # the two-scheme payload layout (one tag byte before the bins)
    tagged = data[: MinHash._HEADER.size] + b"\x01" + data[
        MinHash._HEADER.size:
    ]
    with pytest.raises(ValueError, match="corrupt MinHash payload"):
        MinHash.from_bytes(tagged)


# ---------------------------------------------------------------------------
# oph profiling: columnar == scalar oracle, edge relations included
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(15))
def test_oph_profile_bit_identical_to_scalar_oracle(seed):
    relation = random_relation(seed)
    columnar = profile_table(relation)
    scalar = scalar_profile_table(fresh(relation))
    assert_profiles_identical(columnar, scalar)


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
    columnar = profile_table(relation)
    scalar = scalar_profile_table(fresh(relation))
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
# durable store: bit-identical replay, typed refusal of old stores
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


def _seed_store(tmp_path):
    path = tmp_path / "market.db"
    market = DataMarket(store=str(path))
    for rel in _store_corpus():
        market.register_dataset(rel, seller="acme")
    return path, market


def test_oph_store_replays_bit_identically(tmp_path):
    path, warm = _seed_store(tmp_path)
    cold = DataMarket(store=str(path))
    for rel in _store_corpus():
        warm_profile = warm.metadata.snapshot(rel.name).profile
        cold_profile = cold.metadata.snapshot(rel.name).profile
        assert warm_profile.content_hash == cold_profile.content_hash
        for cw, cc in zip(warm_profile.columns, cold_profile.columns):
            assert cw.signature.to_bytes() == cc.signature.to_bytes()
            assert warm.index.lsh_band_keys(cw.signature) == (
                cold.index.lsh_band_keys(cc.signature)
            )


def test_store_refuses_cross_scheme_cold_start(tmp_path):
    """A schema-2 store holds signatures, band keys and join candidates
    from the retired estimators: it is refused at open, not replayed
    beside new signatures."""
    path, _warm = _seed_store(tmp_path)
    downgrade_to_schema_2(path)
    with pytest.raises(StoreError, match="schema version 2"):
        DataMarket(store=str(path))
    with pytest.raises(StoreError, match="re-register the corpus"):
        DataMarket(store=str(path))
