"""Vectorized columnar kernels vs the row-loop oracle.

The iteration engine executes every node with the eager row-at-a-time
operators — by construction the semantics reference.  These tests drive
randomized relations (nulls, NaN floats, non-ASCII strings, mixed key
dtypes) through both engines and require **bit-identical** results:
rows, row order, schema, relation name and provenance.  They also pin
the deliberate vectorization refusals — the cases where
``Predicate.mask`` returns ``None`` because numpy arithmetic cannot
reproduce Python row semantics — and that selection pushdown through
renames preserves predicate *structure* (an ``Eq`` stays an ``Eq``, so
it stays vectorizable below the rename).
"""

import math
import random

import numpy as np
import pytest

from oracles.execution import IterationEngine
from repro.relation import (
    And,
    Column,
    ColumnarEngine,
    Eq,
    In,
    LeafRelation,
    Predicate,
    Range,
    Relation,
    Select,
    push_down,
)

NAN = float("nan")


# ---------------------------------------------------------------------------
# randomized corpora
# ---------------------------------------------------------------------------

STRINGS = ["alpha", "béta", "γάμμα", "Δelta", "", "naïve", "z"]


def random_cell(rng, dtype):
    if rng.random() < 0.1:
        return None
    if dtype == "int":
        return rng.randrange(-5, 15)
    if dtype == "float":
        return NAN if rng.random() < 0.15 else round(rng.uniform(-3, 3), 3)
    if dtype == "str":
        return rng.choice(STRINGS)
    if dtype == "bool":
        return rng.random() < 0.5
    raise AssertionError(dtype)


def random_relation(rng, name, spec, n):
    cols = [Column(c, dtype) for c, dtype in spec]
    rows = [
        tuple(random_cell(rng, dtype) for _, dtype in spec)
        for _ in range(n)
    ]
    return Relation(name, cols, rows)


def obj_array(rel, name):
    """Object-dtype column vector, as the columnar engine feeds masks."""
    vals = rel.columnar.values(name)
    arr = np.empty(len(vals), dtype=object)
    arr[:] = vals
    return arr


def assert_identical(tree):
    oracle = IterationEngine().execute(tree)
    fast = ColumnarEngine().execute(tree)
    assert fast.rows == oracle.rows
    assert fast.schema == oracle.schema
    assert fast.name == oracle.name
    assert fast.provenance == oracle.provenance
    return oracle


# ---------------------------------------------------------------------------
# vectorized select vs row loop
# ---------------------------------------------------------------------------

PREDICATES = [
    Eq("i", 3),
    Eq("s", "béta"),
    Eq("f", 1.5),
    Eq("b", True),
    Eq("i", None),
    In("s", ("alpha", "γάμμα", "missing")),
    In("i", (0, 1, 2, None)),
    Range("f", low=-1.0, high=1.0),
    Range("i", low=0),
    Range("s", high="naïve"),
    And(Range("i", low=0, high=9), In("s", ("alpha", "z"))),
    And(Eq("b", False), Range("f", high=0.0)),
]


@pytest.mark.parametrize("pred", PREDICATES, ids=repr)
def test_select_bit_identical_across_engines(pred):
    rng = random.Random(hash(repr(pred)) & 0xFFFF)
    rel = random_relation(
        rng, "mix",
        [("i", "int"), ("f", "float"), ("s", "str"), ("b", "bool")],
        400,
    )
    assert_identical(LeafRelation(rel).select(pred))


@pytest.mark.parametrize("seed", range(6))
def test_select_randomized_predicates(seed):
    rng = random.Random(seed)
    rel = random_relation(
        rng, "rand",
        [("i", "int"), ("f", "float"), ("s", "str"), ("b", "bool")],
        300,
    )
    picks = [
        Eq("i", rng.randrange(-5, 15)),
        In("s", tuple(rng.sample(STRINGS, 3))),
        Range("f", low=rng.uniform(-2, 0), high=rng.uniform(0, 2)),
        Range("i", low=rng.randrange(-5, 5)),
    ]
    rng.shuffle(picks)
    for pred in (picks[0], And(*picks[:2]), And(*picks)):
        assert_identical(LeafRelation(rel).select(pred))


def test_select_mask_agrees_with_rowcall_per_row():
    rng = random.Random(7)
    rel = random_relation(
        rng, "mix",
        [("i", "int"), ("f", "float"), ("s", "str")],
        200,
    )
    arrays = {c: obj_array(rel, c) for c in rel.columns}
    for pred in (Eq("i", 3), In("s", ("alpha", "z")),
                 Range("f", low=-1.0, high=1.0)):
        mask = pred.mask(arrays, len(rel))
        assert mask is not None
        for keep, row in zip(mask, rel.rows):
            assert bool(keep) == bool(
                pred(dict(zip(rel.columns, row)))
            )


def test_callable_predicate_still_supported():
    rng = random.Random(11)
    rel = random_relation(rng, "r", [("i", "int"), ("s", "str")], 150)
    tree = LeafRelation(rel).select(
        lambda row: row["i"] is not None and row["i"] % 2 == 0,
        columns=["i"],
    )
    assert_identical(tree)


# ---------------------------------------------------------------------------
# deliberate vectorization refusals (mask -> None, row-loop fallback)
# ---------------------------------------------------------------------------

def test_in_with_nan_operand_falls_back_and_agrees():
    # Python membership matches NaN by identity; ``==`` never does.  The
    # mask must refuse, and the engines must still agree bit-for-bit.
    pred = In("f", (NAN, 1.0))
    rows = [(NAN,), (1.0,), (2.0,), (None,)]
    rel = Relation("f", [Column("f", "float")], rows)
    assert pred.mask({"f": obj_array(rel, "f")}, len(rel)) is None
    oracle = assert_identical(LeafRelation(rel).select(pred))
    kept = [r[0] for r in oracle.rows]
    assert 1.0 in kept  # equality member still matches


def test_non_scalar_operand_falls_back_and_agrees():
    pred = Eq("v", [1, 2])  # a list operand would numpy-broadcast
    rel = Relation(
        "r", [Column("v", "str")], [("x",), ("y",)], validate=False
    )
    assert pred.mask({"v": obj_array(rel, "v")}, 2) is None
    assert_identical(LeafRelation(rel).select(pred))


def test_range_nan_cell_passes_both_paths():
    # NaN is neither < low nor > high: the row form keeps it, and the
    # negated-comparison mask must keep it too.
    pred = Range("f", low=0.0, high=10.0)
    rel = Relation(
        "f", [Column("f", "float")],
        [(5.0,), (NAN,), (-1.0,), (None,), (11.0,)],
    )
    oracle = assert_identical(LeafRelation(rel).select(pred))
    kept = [r[0] for r in oracle.rows]
    assert any(isinstance(v, float) and math.isnan(v) for v in kept)
    assert kept[0] == 5.0 and len(kept) == 2


# ---------------------------------------------------------------------------
# pushdown keeps predicate structure
# ---------------------------------------------------------------------------

def find_selects(tree):
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Select):
            found.append(node)
        stack.extend(node.children())
    return found


def test_pushdown_through_rename_preserves_structure():
    rng = random.Random(3)
    rel = random_relation(rng, "r", [("a", "int"), ("x", "str")], 120)
    tree = (
        LeafRelation(rel)
        .rename({"a": "b"})
        .select(And(Eq("b", 3), Range("b", low=0)))
    )
    pushed = push_down(tree)
    selects = find_selects(pushed)
    assert selects, "selection vanished during pushdown"
    inner = selects[0].predicate
    # still a structured predicate (not an opaque re-keying lambda) and
    # rewritten to read the pre-rename column
    assert isinstance(inner, And)
    assert all(isinstance(p, Predicate) for p in inner.predicates)
    assert inner.referenced_columns() == ("a",)
    assert_identical(pushed)
    assert_identical(tree)


def test_pushdown_past_join_keeps_vectorizable_predicate():
    rng = random.Random(5)
    left = random_relation(rng, "l", [("k", "int"), ("lv", "str")], 200)
    right = random_relation(rng, "r", [("rk", "int"), ("rv", "float")], 80)
    tree = (
        LeafRelation(left)
        .join(LeafRelation(right), on=[("k", "rk")], keep_right=True)
        .select(In("lv", ("alpha", "z")))
    )
    pushed = push_down(tree)
    selects = find_selects(pushed)
    assert selects
    assert all(isinstance(s.predicate, Predicate) for s in selects)
    assert_identical(pushed)
    assert_identical(tree)


# ---------------------------------------------------------------------------
# join kernels: factorize / scalar / tuple must be indistinguishable
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", ["int", "str", "bool"])
def test_factorize_join_bit_identical(dtype):
    rng = random.Random(hash(dtype) & 0xFFFF)
    left = random_relation(
        rng, "l", [("k", dtype), ("lv", "float")], 300
    )
    right = random_relation(
        rng, "r", [("rk", dtype), ("rv", "str")], 90
    )
    tree = LeafRelation(left).join(
        LeafRelation(right), on=[("k", "rk")], keep_right=True
    )
    assert_identical(tree)


def test_mixed_int_bool_keys_join_identically():
    left = Relation(
        "l", [Column("k", "int"), Column("lv", "str")],
        [(0, "a"), (1, "b"), (2, "c"), (None, "d")],
    )
    right = Relation(
        "r", [Column("rk", "bool"), Column("rv", "int")],
        [(True, 10), (False, 20), (None, 30)],
    )
    tree = LeafRelation(left).join(
        LeafRelation(right), on=[("k", "rk")], keep_right=True
    )
    oracle = assert_identical(tree)
    # Python semantics: 1 == True, 0 == False — the factorized kernel
    # must honor numeric cross-dtype equality, and None never matches
    assert sorted((r[0], r[3]) for r in oracle.rows) == [(0, 20), (1, 10)]


def test_float_keys_with_nan_join_identically():
    # NaN keys hit dict-probe identity semantics; floats are excluded
    # from the factorized kernel so both engines share that behavior.
    nan = NAN  # one shared object: identity matters here
    left = Relation(
        "l", [Column("k", "float"), Column("lv", "int")],
        [(1.5, 1), (nan, 2), (None, 3)],
    )
    right = Relation(
        "r", [Column("rk", "float"), Column("rv", "int")],
        [(1.5, 10), (nan, 20), (2.5, 30)],
    )
    tree = LeafRelation(left).join(
        LeafRelation(right), on=[("k", "rk")], keep_right=True
    )
    assert_identical(tree)


@pytest.mark.parametrize("seed", range(4))
def test_composite_key_join_bit_identical(seed):
    rng = random.Random(seed)
    left = random_relation(
        rng, "l", [("k1", "int"), ("k2", "str"), ("lv", "float")], 250
    )
    right = random_relation(
        rng, "r", [("r1", "int"), ("r2", "str"), ("rv", "bool")], 70
    )
    tree = LeafRelation(left).join(
        LeafRelation(right),
        on=[("k1", "r1"), ("k2", "r2")],
        keep_right=True,
    )
    assert_identical(tree)


@pytest.mark.parametrize("seed", range(3))
def test_select_then_join_pipeline_bit_identical(seed):
    rng = random.Random(100 + seed)
    left = random_relation(
        rng, "l", [("k", "int"), ("lv", "float"), ("tag", "str")], 300
    )
    right = random_relation(
        rng, "r", [("rk", "int"), ("rv", "str")], 100
    )
    tree = (
        LeafRelation(left)
        .select(And(Range("lv", low=-1.0), In("tag", ("alpha", "béta"))))
        .join(LeafRelation(right), on=[("k", "rk")], keep_right=True)
        .project(["k", "lv", "rv"])
        .distinct()
    )
    assert_identical(push_down(tree))
    assert_identical(tree)
