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

import enum
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
# join kernels: int64 / dict / tuple must be indistinguishable
# ---------------------------------------------------------------------------

def random_key_join(dtype):
    rng = random.Random(sum(map(ord, dtype)))
    left = random_relation(
        rng, "l", [("k", dtype), ("lv", "float")], 300
    )
    right = random_relation(
        rng, "r", [("rk", dtype), ("rv", "str")], 90
    )
    return left, right, LeafRelation(left).join(
        LeafRelation(right), on=[("k", "rk")], keep_right=True
    )


@pytest.mark.parametrize("dtype", ["int", "bool"])
def test_int64_join_bit_identical(dtype):
    left, right, tree = random_key_join(dtype)
    assert left.columnar.join_keys("k") is not None
    assert right.columnar.join_order("rk") is not None
    assert_identical(tree)


def test_dict_join_bit_identical():
    left, right, tree = random_key_join("str")
    assert left.columnar.join_keys("k") is None
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
    # Python semantics: 1 == True, 0 == False — the int64 kernel must
    # honor numeric cross-dtype equality, and None never matches
    assert sorted((r[0], r[3]) for r in oracle.rows) == [(0, 20), (1, 10)]


def test_float_keys_with_nan_join_identically():
    # NaN keys hit dict-probe identity semantics; float columns have no
    # int64 join keys, so both engines share that behavior.
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


# ---------------------------------------------------------------------------
# int64 join keys: which columns have them, and single-key joins of every
# key dtype against the iteration oracle
# ---------------------------------------------------------------------------

class Tag(str):
    """A str subclass: ``==`` and ``hash`` by content."""


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def one_column(dtype, cells):
    return Relation("r", [Column("c", dtype)], [(v,) for v in cells])


def test_join_keys_hold_int64_with_nulls_marked():
    view = one_column("int", [3, None, -2**63, 2**63 - 1, 3]).columnar
    keys, nulls = view.join_keys("c")
    assert keys.dtype == np.int64 and not keys.flags.writeable
    assert keys.tolist() == [3, 0, -2**63, 2**63 - 1, 3]
    assert nulls.tolist() == [False, True, False, False, False]
    assert not nulls.flags.writeable
    assert view.join_keys("c") is view.join_keys("c")  # cached
    # the probe side: non-null keys ascending, equal keys in row order
    ordered, rows = view.join_order("c")
    assert ordered.tolist() == [-2**63, 3, 3, 2**63 - 1]
    assert rows.tolist() == [2, 0, 4, 3]
    # True is 1 and False 0, as ``==`` says; a null-free column has no mask
    keys, nulls = one_column("bool", [True, False]).columnar.join_keys("c")
    assert keys.tolist() == [1, 0] and nulls is None


@pytest.mark.parametrize("dtype, cells", [
    ("float", [1.0, 2.0]),
    ("float", [1, 2]),
    ("str", ["a", "b"]),
    ("any", [1, 2]),
    ("int", [Level.LOW, 2]),
    ("int", [1, 2**63]),
    ("int", [-2**63 - 1, 1]),
])
def test_other_columns_have_no_join_keys(dtype, cells):
    view = one_column(dtype, cells).columnar
    assert view.join_keys("c") is None
    assert view.join_order("c") is None


def test_released_relation_keeps_its_join_caches_and_joins_identically():
    left, right, tree = random_key_join("int")
    expected = ColumnarEngine().execute(tree)
    keys, order = left.columnar.join_keys("k"), right.columnar.join_order("rk")
    for relation in (left, right):
        relation.content_hash()
        relation.columnar.release()
    # release drops the registration pass's caches, not the join caches
    assert left.columnar.join_keys("k") is keys
    assert right.columnar.join_order("rk") is order
    again = LeafRelation(left).join(
        LeafRelation(right), on=[("k", "rk")], keep_right=True
    )
    fast = ColumnarEngine().execute(again)
    assert fast.rows == expected.rows
    assert fast.provenance == expected.provenance
    assert_identical(again)


WIDE = [-2**63 - 1, -2**63, -1, 0, 1, 2**63 - 1, 2**63, 2**64]
SMALL_INTS = st.integers(-2, 3)
KEY_CELLS = {
    "int": SMALL_INTS,
    "bool": st.booleans(),
    "str": st.sampled_from(["a", "b", "é"]) | st.sampled_from(
        ["a", "b"]
    ).map(Tag),
    "float": st.sampled_from([0.5, 1.0, -0.0, 0.0, NAN]) | st.floats(
        allow_nan=True, allow_infinity=False, width=16
    ),
    "any": st.one_of(
        SMALL_INTS, st.booleans(), st.sampled_from(["a", "b"]),
        st.lists(st.integers(0, 1), max_size=2),
    ),
    "wide": st.sampled_from(WIDE),
    "enum": st.sampled_from([Level.LOW, Level.HIGH, 0]) | SMALL_INTS,
}
#: key kind -> (left dtype, left cells, right dtype, right cells)
KEY_KINDS = {
    "int": ("int", "int", "int", "int"),
    "bool": ("bool", "bool", "bool", "bool"),
    "int-bool": ("int", "int", "bool", "bool"),
    "bool-int": ("bool", "bool", "int", "int"),
    "str": ("str", "str", "str", "str"),
    "float": ("float", "float", "float", "float"),
    "int-float": ("int", "int", "float", "float"),
    "any": ("any", "any", "any", "any"),
    "wide": ("int", "wide", "int", "wide"),
    "wide-int": ("int", "wide", "int", "int"),
    "enum": ("int", "enum", "int", "int"),
}


@st.composite
def key_join_trees(draw):
    ldt, lcells, rdt, rcells = KEY_KINDS[draw(st.sampled_from(
        sorted(KEY_KINDS)
    ))]

    def keyed(name, dtype, cells, key):
        keys = draw(st.lists(
            st.none() | KEY_CELLS[cells], max_size=12
        ))
        return LeafRelation(Relation(
            name, [Column(key, dtype), Column(f"{name}v", "int")],
            [(k, i) for i, k in enumerate(keys)],
        ))

    left = keyed("l", ldt, lcells, "k")
    right = keyed("r", rdt, rcells, "rk")
    third = keyed("s", rdt, rcells, "sk")
    keep = draw(st.booleans())
    shape = draw(st.sampled_from(
        ["pair", "left-chain", "left-chain-3", "right-chain", "right-select"]
    ))
    if shape == "right-select":
        right = right.select(Range("rv", low=draw(st.integers(0, 6))))
    if shape == "right-chain":
        # the probed side is an intermediate: sorted per call, not cached
        right = right.join(third, on=[("rk", "sk")], keep_right=True)
    tree = left.join(right, on=[("k", "rk")], keep_right=keep)
    if shape.startswith("left-chain"):
        # the left side is an intermediate: keys go through row indexes
        tree = tree.join(third, on=[("k", "sk")], keep_right=True)
    if shape == "left-chain-3":
        fourth = keyed("t", rdt, rcells, "tk")
        tree = tree.join(fourth, on=[("k", "tk")], keep_right=keep)
    return tree


@settings(max_examples=300, deadline=None)
@given(key_join_trees())
def test_single_key_joins_match_the_iteration_oracle(tree):
    assert_identical(tree)


def test_threads_racing_to_build_join_caches_join_identically():
    """8 threads join the same fresh leaves at once, so they race to
    build each leaf's join caches; every result is the oracle's."""
    rng = random.Random(9)
    specs = {
        "l": [("k", "int"), ("lv", "float")],
        "r": [("rk", "int"), ("rv", "bool")],
        "s": [("sk", "bool"), ("sv", "str")],
    }
    rows = {
        "l": [(random_cell(rng, "int"), float(i)) for i in range(200)],
        "r": [(k, random_cell(rng, "bool")) for k in range(-5, 15)] * 2,
        "s": [(random_cell(rng, "bool"), v) for v in STRINGS],
    }

    def leaves():
        return {n: Relation(n, [Column(*c) for c in specs[n]], rows[n])
                for n in specs}

    def chain(rels):
        return (
            LeafRelation(rels["l"])
            .join(LeafRelation(rels["r"]), on=[("k", "rk")], keep_right=True)
            .join(LeafRelation(rels["s"]), on=[("rv", "sk")], keep_right=True)
        )

    expected = IterationEngine().execute(chain(leaves()))
    rounds = [leaves() for _ in range(12)]
    start = threading.Barrier(8)
    errors: list[BaseException] = []
    wrong: list[int] = []

    def worker():
        try:
            for i, rels in enumerate(rounds):
                start.wait(timeout=20)
                out = ColumnarEngine().execute(chain(rels))
                if (out.rows, out.provenance) != (
                    expected.rows, expected.provenance
                ):
                    wrong.append(i)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and wrong == []
