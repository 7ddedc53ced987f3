"""Tests for data trusts (personal-data coalitions, Section 4.5)."""

import pytest

from repro.datagen import make_classification_world
from repro.errors import TypeMismatchError
from repro.market import (
    Arbiter,
    BuyerPlatform,
    DataTrust,
    TrustError,
    exclusive_auction_market,
)
from repro.relation import Column, Relation, Schema

SCHEMA = Schema([Column("entity_id", "int", "entity"),
                 Column("steps", "int")])


def member_rows(member_idx: int, n: int) -> Relation:
    base = member_idx * 100
    return Relation(
        f"member_{member_idx}",
        SCHEMA,
        [(base + i, 1000 * member_idx + i) for i in range(n)],
    )


def test_contribute_and_pool():
    trust = DataTrust("fitness_trust", SCHEMA)
    trust.contribute("alice", member_rows(0, 5))
    trust.contribute("bob", member_rows(1, 3))
    pooled = trust.pooled_dataset()
    assert len(pooled) == 8
    assert trust.members == ["alice", "bob"]
    assert trust.member_of_row(0) == "alice"
    assert trust.member_of_row(6) == "bob"
    with pytest.raises(TrustError):
        trust.member_of_row(99)


def test_contribute_validation():
    trust = DataTrust("t", SCHEMA)
    with pytest.raises(TrustError, match="schema"):
        trust.contribute("x", Relation("r", [("a", "int")], [(1,)]))
    with pytest.raises(TrustError, match="zero rows"):
        trust.contribute(
            "x", Relation("r", SCHEMA, [])
        )
    with pytest.raises(TrustError, match="no contributions"):
        DataTrust("empty", SCHEMA).pooled_dataset()


def test_bad_contribution_is_rejected_whole():
    schema = Schema([Column("entity_id", "int"), Column("score", "float")])
    trust = DataTrust("t", schema)
    # the contribution's own columns take anything; the trust's do not
    loose = Relation("r", [("entity_id", "any"), ("score", "any")],
                     [(1, 0.5), (2, "bad"), (3, 1.5)])
    with pytest.raises(TypeMismatchError, match="'bad'"):
        trust.contribute("mallory", loose)
    assert (trust.total_rows, trust.members) == (0, [])
    trust.contribute("alice", Relation("a", schema, [(10, 2.0)]))
    pooled = trust.pooled_dataset()
    assert pooled.rows == ((10, 2.0),)
    assert trust.distribute(pooled, 10.0) == {"alice": 10.0}


def test_distribution_proportional_to_rows_used():
    trust = DataTrust("t", SCHEMA)
    trust.contribute("alice", member_rows(0, 6))
    trust.contribute("bob", member_rows(1, 2))
    pooled = trust.pooled_dataset()
    # the sold mashup uses only alice's first 4 rows and bob's 2 rows
    sold = pooled.select(
        lambda r: r["entity_id"] in {0, 1, 2, 3, 100, 101}
    )
    payouts = trust.distribute(sold, 60.0)
    assert payouts["alice"] == pytest.approx(40.0)
    assert payouts["bob"] == pytest.approx(20.0)
    assert trust.payout_of("alice") == pytest.approx(40.0)
    statement = trust.statement()
    by_member = {r["member"]: r for r in statement.to_dicts()}
    assert by_member["alice"]["rows_contributed"] == 6
    assert by_member["bob"]["payout"] == pytest.approx(20.0)


def test_distribution_requires_trust_rows():
    trust = DataTrust("t", SCHEMA)
    trust.contribute("alice", member_rows(0, 2))
    foreign = Relation("other", SCHEMA, [(500, 1)])
    with pytest.raises(TrustError, match="no rows of trust"):
        trust.distribute(foreign, 10.0)
    with pytest.raises(TrustError, match="non-negative"):
        trust.distribute(trust.pooled_dataset(), -1.0)


def test_trust_sells_through_the_market_end_to_end():
    """Full loop: pool -> share -> mashup sale -> member payouts."""
    world = make_classification_world(
        n_entities=120, feature_weights=(2.0, 1.5),
        dataset_features=((0,),), seed=44,
    )
    # members contribute disjoint slices of a personal-data relation that
    # joins the seller's features on entity_id
    trust = DataTrust("wearables", SCHEMA)
    trust.contribute(
        "alice",
        Relation("a", SCHEMA, [(i, i * 10) for i in range(0, 60)]),
    )
    trust.contribute(
        "bob",
        Relation("b", SCHEMA, [(i, i * 10) for i in range(60, 120)]),
    )

    arbiter = Arbiter(exclusive_auction_market(k=1, reserve=10.0))
    arbiter.accept_dataset(world.datasets[0], seller="feature_vendor")
    arbiter.accept_dataset(trust.pooled_dataset(), seller="wearables_trust")

    buyer = BuyerPlatform("b1")
    arbiter.register_participant("b1", funding=300.0)
    wtp = buyer.completeness_wtp(
        wanted_keys=list(range(120)),
        attributes=["f0", "steps"],
        price_steps=[(0.8, 50.0)],
    )
    buyer.submit(arbiter, wtp)
    result = arbiter.run_round()
    assert result.transactions == 1
    delivery = result.deliveries[0]
    assert "wearables" in delivery.mashup.plan.sources()

    trust_revenue = delivery.split.dataset_shares["wearables"]
    assert trust_revenue > 0
    payouts = trust.distribute(delivery.mashup.relation, trust_revenue)
    # both members' rows were used equally: equal payouts
    assert payouts["alice"] == pytest.approx(payouts["bob"], rel=0.05)
    assert sum(payouts.values()) == pytest.approx(trust_revenue)
