"""Tests for the DoD engine and the MashupBuilder orchestration."""

import pytest

from repro.datagen import intro_scenario
from repro.integration import (
    AffineMap,
    MashupRequest,
    TransformHint,
)
from repro.mashup import MashupBuilder
from repro.relation import Column, Relation


def make_orders(n=40):
    return Relation(
        "orders",
        [Column("customer_id", "int", "customer"), Column("amount", "float")],
        [(i, float(i) * 2.0) for i in range(n)],
    )


def make_customers(n=40):
    return Relation(
        "customers",
        [Column("customer_id", "int", "customer"), Column("city", "str"),
         Column("age", "int")],
        [(i, "oslo" if i % 2 else "rome", 20 + i % 50) for i in range(n)],
    )


@pytest.fixture
def builder():
    b = MashupBuilder()
    b.add_dataset(make_orders(), owner="seller_a")
    b.add_dataset(make_customers(), owner="seller_b")
    return b


def test_single_dataset_mashup(builder):
    mashups = builder.build(MashupRequest(attributes=["city", "age"]))
    assert mashups
    best = mashups[0]
    assert set(best.relation.columns) == {"city", "age"}
    assert best.plan.sources() == ["customers"]
    assert best.coverage == 1.0


def test_cross_dataset_mashup_joins(builder):
    mashups = builder.build(
        MashupRequest(attributes=["amount", "city"], key="customer_id")
    )
    assert mashups
    best = mashups[0]
    assert set(best.relation.columns) == {"customer_id", "amount", "city"}
    assert set(best.plan.sources()) == {"orders", "customers"}
    assert len(best.relation) == 40
    # provenance spans both sellers' datasets
    assert best.relation.provenance[0].sources() == {"orders", "customers"}


def test_missing_attributes_reported(builder):
    mashups = builder.build(
        MashupRequest(attributes=["city", "favorite_color"])
    )
    assert mashups
    assert mashups[0].missing == ("favorite_color",)
    gap = builder.gap_report()
    assert "favorite_color" in gap.attributes
    assert gap.demand["favorite_color"] == 1


def test_no_mashups_when_nothing_matches(builder):
    mashups = builder.build(MashupRequest(attributes=["zzz_qqq"]))
    assert mashups == []
    assert "zzz_qqq" in builder.gap_report().attributes


def test_hint_enables_transformed_attribute(builder):
    # seller explains that amount is dollars; price_eur = 0.9 * amount
    builder.add_hint(
        TransformHint(
            dataset="orders", column="amount",
            target_attribute="price_eur", mapping=AffineMap(0.9, 0.0),
        )
    )
    mashups = builder.build(MashupRequest(attributes=["price_eur"]))
    assert mashups
    rel = mashups[0].relation
    orders = make_orders()
    assert sorted(rel.column("price_eur"))[:3] == pytest.approx(
        sorted(0.9 * a for a in orders.column("amount"))[:3]
    )
    assert "derive price_eur" in mashups[0].plan.describe()


def test_plan_describe_mentions_joins(builder):
    mashups = builder.build(
        MashupRequest(attributes=["amount", "city"], key="customer_id")
    )
    description = mashups[0].plan.describe()
    assert "join" in description and "project" in description


def test_example_cache_key_does_not_pin_digest_caches(builder):
    """The plan cache keys a query-by-example request by the examples'
    content hash; the ranks and packed rows the digest builds are
    released, not pinned on the buyer's relation."""
    examples = Relation(
        "examples",
        [Column("customer_id", "int", "customer"), Column("city", "str")],
        [(i, "oslo" if i % 2 else "rome") for i in range(6)],
    )
    request = MashupRequest(
        attributes=["customer_id", "city", "amount"],
        key="customer_id",
        examples=examples,
    )
    builder.build(request)
    assert examples._chash is not None
    view = examples._columnar
    assert not (view._ranked or view._packed or view._packed_distinct
                or view._numeric)


def test_intro_scenario_synthesis_of_f_prime():
    """The paper's Section 1 example: buyer needs d, seller has f(d)."""
    sc = intro_scenario(seed=3, n_entities=200)
    builder = MashupBuilder()
    builder.add_dataset(sc["s1"], owner="seller_1")
    builder.add_dataset(sc["s2"], owner="seller_2")

    # buyer provides query-by-example rows: entity_id + known d values
    full = sc["world"].full
    d_pos = full.schema.position("f3")
    examples = Relation(
        "examples",
        [Column("entity_id", "int", "entity"), Column("d", "float")],
        [(row[0], float(row[d_pos])) for row in full.rows[:10]],
    )
    request = MashupRequest(
        attributes=["a", "b", "d"],
        key="entity_id",
        examples=examples,
    )
    mashups = builder.build(request)
    assert mashups
    best = mashups[0]
    assert {"a", "b", "d"} <= set(best.relation.columns)
    # the synthesized d must invert fd = 1.8*d + 32 for *all* rows
    by_id_d = {
        r["entity_id"]: r["d"] for r in best.relation.to_dicts()
    }
    for row in full.rows[:50]:
        if row[0] in by_id_d:
            assert by_id_d[row[0]] == pytest.approx(row[d_pos], abs=1e-6)
    # plan transparency: the derivation is visible
    assert "derive d" in best.plan.describe()


def test_build_fused_contrast_view():
    """Two sellers offer the same signal; buyer wants the contrast."""
    a = Relation(
        "feed_a",
        [Column("city", "str"), Column("temp", "float")],
        [("oslo", 10.0), ("rome", 25.0)],
    )
    b = Relation(
        "feed_b",
        [Column("city", "str"), Column("temp", "float")],
        [("oslo", 12.0), ("rome", 25.0)],
    )
    builder = MashupBuilder()
    builder.add_dataset(a)
    builder.add_dataset(b)
    fused = builder.build_fused(
        MashupRequest(attributes=["temp"], key="city", max_results=4),
        key="city",
    )
    assert fused is not None
    # at least one cell should carry both sources' claims
    from repro.fusion import FusedValue

    cells = [
        v for row in fused.rows for v in row if isinstance(v, FusedValue)
    ]
    assert cells


def test_build_fused_none_when_no_match(builder):
    out = builder.build_fused(
        MashupRequest(attributes=["zzz"], key="customer_id"), key="customer_id"
    )
    assert out is None
