"""The lazy relation algebra: tree construction, engine bit-identity.

The columnar engine must be **bit-identical** to the iteration oracle —
same rows, same row order, same schema, same relation name, and equal
provenance expressions — on arbitrary operator trees, including null keys
and non-ASCII strings.  The randomized tests here build such trees from a
seeded generator and compare both engines node-for-node; the
selection-pushdown rewrite the columnar engine applies is checked on the
same trees by running the oracle on the rewritten tree.
"""

import dataclasses
import random

import pytest

from oracles.execution import IterationEngine
from repro.errors import SchemaError, UnknownColumnError
from repro.relation import (
    Column,
    ColumnarEngine,
    Join,
    LeafRelation,
    Processor,
    Relation,
    Select,
    push_down,
)

ITER = IterationEngine()
COL = ColumnarEngine()


def orders():
    return Relation(
        "orders",
        [Column("cid", "int"), Column("amount", "float"),
         Column("note", "str")],
        [(1, 10.0, "café"), (2, 20.0, None), (2, 25.0, "øre"),
         (None, 5.0, "名前"), (3, 7.5, "plain")],
    )


def customers():
    return Relation(
        "customers",
        [Column("cid", "int"), Column("city", "str")],
        [(1, "oslo"), (2, "rome"), (None, "nowhere"), (4, "bergen")],
    )


def cities():
    return Relation(
        "cities",
        [Column("city", "str"), Column("pop", "int")],
        [("oslo", 700_000), ("rome", 2_800_000), ("bergen", None)],
    )


def assert_bit_identical(tree):
    """Both engines agree on every observable of the result, and the
    pushdown rewrite the columnar engine applies changes none of them."""
    a = ITER.execute(tree)
    b = COL.execute(tree)
    c = ITER.execute(push_down(tree))
    for other in (b, c):
        assert other.rows == a.rows
        assert other.schema == a.schema
        assert other.name == a.name
        assert other.provenance == a.provenance
    assert COL.count(tree) == len(a)
    assert ITER.count(tree) == len(a)
    return a


# -- construction-time validation -----------------------------------------


def test_factories_validate_like_eager_operators():
    leaf = orders().lazy()
    with pytest.raises(UnknownColumnError):
        leaf.project(["ghost"])
    with pytest.raises(UnknownColumnError):
        leaf.where(ghost=1)
    with pytest.raises(UnknownColumnError):
        leaf.select(lambda r: True, columns=["ghost"])
    with pytest.raises(SchemaError):
        leaf.rename({"ghost": "x"})
    with pytest.raises(SchemaError, match="no shared column"):
        orders().lazy().join(cities().lazy())
    with pytest.raises(SchemaError):
        leaf.extend(Column("cid", "int"), lambda r: 0)


def test_tree_nodes_are_frozen():
    leaf = orders().lazy()
    tree = leaf.project(["cid", "amount"]).where(cid=2).distinct()
    for node in (tree, tree.target, tree.target.target, leaf):
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.target = leaf  # type: ignore[attr-defined]
    # but the payload slot is sanctioned mutability
    result = tree.collect()
    assert tree.payload is result


def test_trees_hash_and_compare_structurally():
    leaf = orders().lazy()
    a = leaf.project(["cid", "amount"]).where(cid=2)
    b = leaf.project(["cid", "amount"]).where(cid=2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != leaf.project(["cid"]).where(cid=2)
    assert {a, b} == {a}
    # LeafRelation equality is identity: Relation.__eq__ is bag equality,
    # too coarse to identify a leaf inside a tree
    assert orders().lazy() != orders().lazy()
    assert leaf == leaf


def test_repr_round_trips():
    leaf = orders().lazy()
    a = leaf.project(["cid", "amount"]).where(cid=2).distinct()
    b = leaf.project(["cid", "amount"]).where(cid=2).distinct()
    assert repr(a) == repr(b)
    for op in ("Distinct", "Select", "Project", "LeafRelation", "'orders'"):
        assert op in repr(a)
    assert repr(a) != repr(leaf.project(["cid"]).where(cid=2).distinct())


def test_tree_structure_accessors():
    o, c, t = orders().lazy(), customers().lazy(), cities().lazy()
    tree = o.join(c, on=["cid"]).join(t, on=["city"]).project(["amount"])
    assert tree.leaves() == (o, c, t)
    assert tree.depth() == 4
    assert tree.name == "orders⋈customers⋈cities"
    assert tree.columns == ("amount",)


def test_payload_memoizes_across_engines():
    tree = orders().lazy().where(cid=2)
    first = tree.collect()
    assert tree.collect() is first  # the payload serves every later read
    assert Processor().count(tree) == 2
    assert ITER.execute(tree).rows == first.rows


# -- hand-written engine equivalences -------------------------------------


def test_join_pipeline_bit_identical():
    tree = (
        orders().lazy()
        .join(customers().lazy(), on=["cid"])
        .join(cities().lazy(), on=["city"], keep_right=True)
        .where(city="rome")
        .project(["amount", "city", "pop"])
        .rename({"pop": "population"})
        .relabel("rome_orders")
    )
    out = assert_bit_identical(tree)
    assert out.name == "rome_orders"
    assert out.rows == ((20.0, "rome", 2_800_000), (25.0, "rome", 2_800_000))
    # null join keys never match, on either side
    assert all("nowhere" not in row for row in out.rows)


def test_distinct_extend_predicate_bit_identical():
    tree = (
        orders().lazy()
        .project(["cid"])
        .distinct()
        .extend(Column("cid2", "any"), lambda r: None if r["cid"] is None
                else r["cid"] * 2, columns=["cid"])
        .select(lambda r: r["cid2"] is None or r["cid2"] > 2,
                columns=["cid2"])
    )
    out = assert_bit_identical(tree)
    assert set(out.column("cid")) == {2, None, 3}


def test_pushdown_rewrites_preserve_semantics():
    tree = (
        orders().lazy()
        .join(customers().lazy(), on=["cid"], keep_right=True)
        .where(city="rome", cid=2)
        .project(["amount", "city"])
    )
    optimized = push_down(tree)
    assert ITER.execute(optimized).rows == ITER.execute(tree).rows
    # the equality select was split and sunk below the join: no Select
    # remains above a Join, but Selects exist inside the join inputs
    def has_select_above_join(node, above=True):
        if isinstance(node, Select) and above:
            return True
        below = above and not isinstance(node, Join)
        return any(has_select_above_join(k, below) for k in node.children())

    def count_selects(node):
        return isinstance(node, Select) + sum(
            count_selects(k) for k in node.children()
        )

    assert not has_select_above_join(optimized)
    assert count_selects(optimized) == 2  # cid→orders side, city→customers


# -- randomized trees ------------------------------------------------------

POOL = (orders, customers, cities)


def random_tree(rng, max_ops=8):
    """Grow a random operator tree over the shared-key leaf pool."""
    tree = rng.choice(POOL)().lazy()
    for _ in range(rng.randrange(2, max_ops)):
        op = rng.randrange(7)
        try:
            if op == 0:
                names = [
                    n for n in tree.columns if rng.random() < 0.7
                ]
                tree = tree.project(names or list(tree.columns[:1]))
            elif op == 1:
                col = rng.choice(tree.columns)
                values = {row[tree.columns.index(col)]
                          for row in ITER.execute(tree).rows}
                if not values:
                    continue
                value = rng.choice(sorted(values, key=repr))
                tree = tree.where(**{col: value})
            elif op == 2:
                col = rng.choice(tree.columns)
                tree = tree.select(
                    lambda r, _c=col: r[_c] is not None, columns=[col]
                )
            elif op == 3:
                tree = tree.distinct()
            elif op == 4:
                col = rng.choice(tree.columns)
                tree = tree.rename({col: f"{col}_x"})
            elif op == 5:
                col = rng.choice(tree.columns)
                tree = tree.extend(
                    Column(f"d{tree.depth()}", "any"),
                    lambda r, _c=col: (None if r[_c] is None
                                       else f"v:{r[_c]}"),
                    columns=[col],
                )
            else:
                other = rng.choice(POOL)().lazy()
                shared = [n for n in tree.columns if n in other.schema]
                if not shared:
                    continue
                tree = tree.join(
                    other, on=shared,
                    keep_right=rng.random() < 0.5,
                )
        except SchemaError:
            continue  # e.g. suffixed name clash; skip the op
    return tree


@pytest.mark.parametrize("seed", range(12))
def test_random_trees_bit_identical(seed):
    rng = random.Random(seed)
    for _ in range(4):
        tree = random_tree(rng)
        assert_bit_identical(tree)


@pytest.mark.parametrize("seed", range(12, 18))
def test_random_trees_pushdown_equivalent(seed):
    rng = random.Random(seed)
    for _ in range(3):
        tree = random_tree(rng)
        baseline = ITER.execute(tree)
        rewritten = push_down(tree)
        out = ITER.execute(rewritten)
        assert out.rows == baseline.rows
        assert out.schema == baseline.schema
        assert out.provenance == baseline.provenance


@pytest.mark.parametrize("seed", range(18, 22))
def test_random_trees_hash_stable(seed):
    rng = random.Random(seed)
    tree = random_tree(rng)
    assert isinstance(hash(tree), int)
    assert tree == tree
    assert isinstance(tree, LeafRelation) or tree.children()
