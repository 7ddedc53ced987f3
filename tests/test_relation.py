"""Unit tests for the Relation class and its provenance propagation."""

import numpy as np
import pytest

from repro.errors import SchemaError, TypeMismatchError, UnknownColumnError
from repro.relation import Column, ProvToken, Relation


@pytest.fixture
def people():
    return Relation(
        "people",
        [("id", "int"), ("name", "str"), ("age", "int")],
        [(1, "ann", 34), (2, "bob", 28), (3, "cyd", 41)],
    )


@pytest.fixture
def cities():
    return Relation(
        "cities",
        [("id", "int"), ("city", "str")],
        [(1, "oslo"), (2, "rome"), (4, "lima")],
    )


def test_construction_validates_rows():
    with pytest.raises(TypeMismatchError):
        Relation("r", [("a", "int")], [("not-int",)])
    with pytest.raises(SchemaError):
        Relation("r", [("a", "int")], [(1, 2)])


def test_default_provenance_tags_rows(people):
    assert people.provenance[0] == ProvToken("people", 0)
    assert people.provenance[2] == ProvToken("people", 2)


def test_from_dicts_infers_schema():
    r = Relation.from_dicts("r", [{"a": 1, "b": "x"}, {"a": 2, "b": None}])
    assert r.schema["a"].dtype == "int"
    assert r.schema["b"].dtype == "str"
    assert len(r) == 2


def test_from_dicts_empty_requires_schema():
    with pytest.raises(SchemaError):
        Relation.from_dicts("r", [])
    r = Relation.from_dicts("r", [], schema=[("a", "int")])
    assert len(r) == 0


def test_column_and_to_dicts(people):
    assert people.column("name") == ["ann", "bob", "cyd"]
    assert people.to_dicts()[1] == {"id": 2, "name": "bob", "age": 28}
    with pytest.raises(UnknownColumnError):
        people.column("zzz")


def test_project_keeps_provenance(people):
    p = people.project(["name"])
    assert p.columns == ("name",)
    assert p.provenance == people.provenance


def test_select_and_where(people):
    adults = people.select(lambda r: r["age"] > 30)
    assert len(adults) == 2
    assert adults.provenance[0] == ProvToken("people", 0)
    assert len(people.where(name="bob")) == 1
    assert len(people.where(name="bob", age=99)) == 0


def test_rename(people):
    r = people.rename({"name": "full_name"})
    assert "full_name" in r.schema
    assert r.column("full_name") == people.column("name")


def test_extend_adds_computed_column(people):
    r = people.extend(Column("next_age", "int"), lambda row: row["age"] + 1)
    assert r.column("next_age") == [35, 29, 42]
    with pytest.raises(SchemaError):
        people.extend("age", lambda row: 0)


def test_drop(people):
    r = people.drop(["age"])
    assert r.columns == ("id", "name")
    with pytest.raises(UnknownColumnError):
        people.drop(["nope"])


def test_distinct_merges_provenance():
    r = Relation("r", [("a", "int")], [(1,), (1,), (2,)])
    d = r.distinct()
    assert len(d) == 2
    # the duplicate row's annotation is a sum of both derivations
    merged = d.provenance[0]
    assert {t.row_id for t in merged.tokens()} == {0, 1}


def test_union_requires_same_columns(people, cities):
    with pytest.raises(SchemaError):
        people.union(cities)
    u = people.union(people)
    assert len(u) == 6


def test_join_natural(people, cities):
    j = people.join(cities)
    assert len(j) == 2
    assert set(j.column("city")) == {"oslo", "rome"}
    # provenance of joined rows is a product over both sources
    assert j.provenance[0].sources() == {"people", "cities"}


def test_join_on_pairs_and_suffix():
    left = Relation("l", [("k", "int"), ("v", "str")], [(1, "a")])
    right = Relation("r", [("key", "int"), ("v", "str")], [(1, "b")])
    j = left.join(right, on=[("k", "key")])
    assert j.columns == ("k", "v", "v_r")
    assert j.rows[0] == (1, "a", "b")


def test_join_nulls_never_match():
    left = Relation("l", [("k", "int")], [(None,), (1,)])
    right = Relation("r", [("k", "int")], [(None,), (1,)])
    assert len(left.join(right)) == 1


def test_join_no_shared_columns_raises(people):
    other = Relation("o", [("x", "int")], [(1,)])
    with pytest.raises(SchemaError):
        people.join(other)


def test_left_join_pads_with_nulls(people, cities):
    j = people.left_join(cities)
    assert len(j) == 3
    missing = [r for r in j.to_dicts() if r["city"] is None]
    assert len(missing) == 1 and missing[0]["id"] == 3


def test_aggregate_count_sum_mean():
    r = Relation(
        "sales",
        [("store", "str"), ("amount", "float")],
        [("a", 10.0), ("a", 20.0), ("b", 5.0)],
    )
    g = r.aggregate(["store"], {"n": ("*", "count"), "total": ("amount", "sum"),
                                "avg": ("amount", "mean")})
    by_store = {row["store"]: row for row in g.to_dicts()}
    assert by_store["a"]["n"] == 2
    assert by_store["a"]["total"] == pytest.approx(30.0)
    assert by_store["b"]["avg"] == pytest.approx(5.0)


def test_aggregate_provenance_is_group_sum():
    r = Relation("r", [("g", "str"), ("x", "int")], [("a", 1), ("a", 2)])
    g = r.aggregate(["g"], {"n": ("*", "count")})
    assert {t.row_id for t in g.provenance[0].tokens()} == {0, 1}


def test_aggregate_unknown_agg():
    r = Relation("r", [("g", "str")], [("a",)])
    with pytest.raises(SchemaError):
        r.aggregate(["g"], {"x": ("g", "median")})


def test_order_by_and_limit(people):
    r = people.order_by(["age"])
    assert r.column("age") == [28, 34, 41]
    r = people.order_by(["age"], descending=True).limit(1)
    assert r.column("name") == ["cyd"]


def test_order_by_handles_nulls():
    r = Relation("r", [("a", "int")], [(2,), (None,), (1,)])
    assert r.order_by(["a"]).column("a") == [None, 1, 2]


def test_sample(people):
    rng = np.random.default_rng(0)
    s = people.sample(2, rng)
    assert len(s) == 2
    assert people.sample(99, rng) is people


def test_map_column(people):
    r = people.map_column("age", lambda a: a * 2)
    assert r.column("age") == [68, 56, 82]


def test_equality_is_bag_and_order_insensitive():
    a = Relation("a", [("x", "int")], [(1,), (2,)])
    b = Relation("b", [("x", "int")], [(2,), (1,)])
    assert a == b
    c = Relation("c", [("x", "int")], [(1,), (1,)])
    assert a != c


class _Tag(str):
    """A str subclass: ``==`` to the plain str of its characters."""


@pytest.mark.parametrize("schema, left, right", [
    # a list and a tuple with equal items, in either order
    ([("x", "any")], [([1, 2],), ((1, 2),)], [((1, 2),), ([1, 2],)]),
    # a str and a str subclass's equal str, each in the other's row
    ([("s", "str"), ("n", "int")], [("a", 1), (_Tag("a"), 2)],
     [(_Tag("a"), 1), ("a", 2)]),
])
def test_equality_is_bag_equality_across_cell_types(schema, left, right):
    a, b = Relation("a", schema, left), Relation("b", schema, right)
    assert a == b
    assert len(a.distinct()) == len(b.distinct())


def test_content_hash_stable_under_row_order():
    a = Relation("a", [("x", "int")], [(1,), (2,)])
    b = Relation("b", [("x", "int")], [(2,), (1,)])
    assert a.content_hash() == b.content_hash()
    c = Relation("c", [("x", "int")], [(3,)])
    assert a.content_hash() != c.content_hash()


def test_pretty_contains_header_and_rows(people):
    text = people.pretty()
    assert "name" in text and "ann" in text
    long = Relation("r", [("x", "int")], [(i,) for i in range(20)])
    assert "more rows" in long.pretty(limit=3)


def test_with_provenance_root(people):
    r = people.project(["name"]).with_provenance_root("fresh")
    assert r.provenance[0] == ProvToken("fresh", 0)


def test_head(people):
    assert len(people.head(2)) == 2
