"""End-to-end tests of the Arbiter (Fig. 2's full pipeline)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.datagen import make_classification_world
from repro.errors import MarketError
from repro.integration.plan import Mashup
from repro.market import (
    Arbiter,
    BuyerPlatform,
    License,
    LicenseKind,
    SellerPlatform,
    external_market,
    internal_market,
)
from repro.mechanisms import VickreyAuction
from repro.relation import Relation
from repro.wtp import PriceCurve, WTPFunction


@pytest.fixture
def world():
    return make_classification_world(
        n_entities=300,
        feature_weights=(2.0, 1.5, 0.0, 2.5),
        dataset_features=((0, 1), (2, 3)),
        seed=5,
    )


def build_market(world, design=None, reserve_0=0.0, license_0=None):
    arbiter = Arbiter(design or external_market())
    s0 = SellerPlatform("alice")
    s0.package(world.datasets[0], reserve_price=reserve_0, license=license_0)
    s1 = SellerPlatform("bob")
    s1.package(world.datasets[1])
    s0.share_all(arbiter)
    s1.share_all(arbiter)
    return arbiter, s0, s1


def classification_wtp(buyer: BuyerPlatform, world, steps=((0.7, 100.0),)):
    return buyer.classification_wtp(
        labels=world.label_relation,
        features=["f0", "f1", "f3"],
        price_steps=steps,
    )


def test_full_upfront_transaction(world):
    arbiter, s0, s1 = build_market(world)
    buyer = BuyerPlatform("b1")
    arbiter.register_participant("b1", funding=500.0)
    arbiter.attach_buyer_platform(buyer)
    buyer.submit(arbiter, classification_wtp(buyer, world))
    result = arbiter.run_round()

    assert result.transactions == 1
    delivery = result.deliveries[0]
    assert delivery.satisfaction >= 0.7
    assert delivery.bid == 100.0
    # RSOP with one bidder prices at zero: revenue comes from competition
    assert delivery.price_paid >= 0.0
    assert set(delivery.mashup.plan.sources()) == {"seller_0", "seller_1"}
    # buyer platform received the mashup with a transparent plan
    assert buyer.latest.plan_description.startswith("base:")
    assert {"f0", "f1", "f3"} <= set(buyer.latest.relation.columns)
    # ledger conserves, audit verifies
    assert arbiter.ledger.conservation_check()
    assert arbiter.audit.verify()


def test_competition_generates_revenue(world):
    arbiter, *_ = build_market(world)
    buyers = []
    for i, price in enumerate((100.0, 90.0, 80.0, 60.0)):
        b = BuyerPlatform(f"b{i}")
        arbiter.register_participant(f"b{i}", funding=500.0)
        arbiter.attach_buyer_platform(b)
        b.submit(arbiter, classification_wtp(b, world, steps=((0.7, price),)))
        buyers.append(b)
    result = arbiter.run_round()
    # all four bid on the same mashup good; RSOP prices from the other half
    assert result.transactions >= 1
    assert result.revenue > 0
    assert any("outbid" in r.reason for r in result.rejections)
    # sellers got paid
    assert (
        arbiter.ledger.balance("alice") + arbiter.ledger.balance("bob") > 0
    )
    # lineage lets sellers audit their sales
    alice_platform_revenue = arbiter.lineage.revenue_of("seller_0")
    assert alice_platform_revenue > 0


def test_equal_offers_clear_as_one_good(world, monkeypatch):
    """Offers whose relations are ``==`` are one good: one buyer's mashup
    holds ``1`` where the other's holds ``1.0``, and the two bids meet in
    one second-price auction instead of each winning its own."""
    design = replace(external_market(), mechanism=VickreyAuction(k=1))
    arbiter, *_ = build_market(world, design=design)
    for buyer, price in (("b0", 100.0), ("b1", 90.0)):
        platform = BuyerPlatform(buyer)
        arbiter.register_participant(buyer, funding=500.0)
        arbiter.attach_buyer_platform(platform)
        platform.submit(
            arbiter,
            classification_wtp(platform, world, steps=((0.7, price),)),
        )
    best_offer = arbiter._best_offer

    def offer_with_one(wtp, result):
        offer = best_offer(wtp, result)
        mashup = offer[1]
        rel = mashup.relation
        i = rel.schema.position("f0")
        one = 1 if wtp.buyer == "b0" else 1.0
        rows = [rel.rows[0][:i] + (one,) + rel.rows[0][i + 1:]]
        retyped = Relation(rel.name, rel.schema, rows + list(rel.rows[1:]))
        return (wtp, Mashup(mashup.plan, retyped, mashup.matched,
                            mashup.missing), *offer[2:])

    monkeypatch.setattr(arbiter, "_best_offer", offer_with_one)
    result = arbiter.run_round()
    assert result.transactions == 1
    assert result.deliveries[0].buyer == "b0"
    assert [r.buyer for r in result.rejections] == ["b1"]
    assert "outbid" in result.rejections[0].reason


def test_grouping_offers_does_not_pin_digest_caches(world):
    """Grouping offers hashes each mashup; the ranks and packed rows the
    digest builds are released, not pinned on the delivered relation."""
    arbiter, *_ = build_market(world)
    buyer = BuyerPlatform("b1")
    arbiter.register_participant("b1", funding=500.0)
    arbiter.attach_buyer_platform(buyer)
    buyer.submit(arbiter, classification_wtp(buyer, world))
    result = arbiter.run_round()
    relation = result.deliveries[0].mashup.relation
    assert relation._chash is not None
    view = relation._columnar
    assert not (view._ranked or view._packed or view._packed_distinct
                or view._numeric)


def test_rejection_when_satisfaction_below_threshold(world):
    arbiter, *_ = build_market(world)
    buyer = BuyerPlatform("b1")
    arbiter.register_participant("b1", funding=500.0)
    # demands 99.9% accuracy: unreachable
    buyer.submit(
        arbiter, classification_wtp(buyer, world, steps=((0.999, 100.0),))
    )
    result = arbiter.run_round()
    assert result.transactions == 0
    assert any("threshold" in r.reason for r in result.rejections)


def test_rejection_when_nothing_matches(world):
    arbiter, *_ = build_market(world)
    buyer = BuyerPlatform("b1")
    arbiter.register_participant("b1", funding=10.0)
    wtp = buyer.completeness_wtp(
        wanted_keys=[1, 2], attributes=["nonexistent_attr_xyz"],
        price_steps=((0.5, 5.0),),
    )
    buyer.submit(arbiter, wtp)
    result = arbiter.run_round()
    assert result.transactions == 0
    # the gap becomes a negotiation request (Section 4.1)
    open_reqs = arbiter.negotiation.open_requests()
    assert any(r.attribute == "nonexistent_attr_xyz" for r in open_reqs)


def test_reserve_price_blocks_low_value_sale(world):
    arbiter, *_ = build_market(world, reserve_0=10_000.0)
    buyer = BuyerPlatform("b1")
    arbiter.register_participant("b1", funding=500.0)
    buyer.submit(arbiter, classification_wtp(buyer, world))
    result = arbiter.run_round()
    assert result.transactions == 0
    assert any("reserve" in r.reason for r in result.rejections)


def test_exclusive_license_enforced_across_buyers(world):
    license = License(LicenseKind.EXCLUSIVE, exclusivity_tax_rate=0.0)
    arbiter, *_ = build_market(world, license_0=license)
    for name in ("b1", "b2"):
        b = BuyerPlatform(name)
        arbiter.register_participant(name, funding=500.0)
        b.submit(arbiter, classification_wtp(b, world))
    result = arbiter.run_round()
    sellers_of_sold = [
        d for d in result.deliveries
        if "seller_0" in d.mashup.plan.sources()
    ]
    # at most one buyer may hold the exclusively licensed dataset
    assert len({d.buyer for d in sellers_of_sold}) <= 1
    blocked = [r for r in result.rejections if "exclusively" in r.reason]
    if len(sellers_of_sold) == 1 and result.transactions < 2:
        assert blocked or result.transactions == 1


def test_same_round_exclusive_contention_blocks_second_winner(world):
    """Two winners of one cleared group contend for one exclusivity slot:
    the first commits, the second is blocked at (deferred) settlement."""
    license = License(LicenseKind.EXCLUSIVE, exclusivity_tax_rate=0.0)
    arbiter, *_ = build_market(
        world, design=internal_market(), license_0=license
    )
    for name in ("b1", "b2"):
        b = BuyerPlatform(name)
        arbiter.register_participant(name)
        b.submit(arbiter, classification_wtp(b, world, steps=((0.7, 10.0),)))
    result = arbiter.run_round()
    # posted price 0 makes both buyers winners of the same good; only one
    # may hold the exclusively licensed dataset
    assert result.transactions == 1
    assert any("exclusively licensed" in r.reason for r in result.rejections)
    assert arbiter.audit.records("sale_blocked")
    assert arbiter.ledger.conservation_check()


def test_same_round_transfer_contention_blocks_second_winner(world):
    """TRANSFER licenses also consume their slot at commit: the second
    same-group winner must be blocked, not settled and then rejected."""
    license = License(LicenseKind.TRANSFER)
    arbiter, *_ = build_market(
        world, design=internal_market(), license_0=license
    )
    for name in ("b1", "b2"):
        b = BuyerPlatform(name)
        arbiter.register_participant(name)
        b.submit(arbiter, classification_wtp(b, world, steps=((0.7, 10.0),)))
    result = arbiter.run_round()
    assert result.transactions == 1
    assert any("transferred" in r.reason for r in result.rejections)
    assert arbiter.ledger.conservation_check()


def test_settlement_crash_contained_to_its_winner(world):
    """Shapley settlement re-runs buyer task code on partial mashups; a
    task that crashes there must sink only its own sale, not the round."""

    class PartialHostileTask:
        required_attributes = ["f0", "f1", "f3"]

        def evaluate(self, relation):
            if "f3" not in relation.schema or "f0" not in relation.schema:
                raise ValueError("hostile: crashes on partial mashups")
            return 0.9

    design = internal_market()
    design.revenue_sharing = "shapley"
    arbiter, *_ = build_market(world, design=design)
    arbiter.register_participant("hostile")
    arbiter.submit_wtp(
        WTPFunction(
            buyer="hostile",
            task=PartialHostileTask(),
            curve=PriceCurve.single(0.5, 10.0),
        )
    )
    honest = BuyerPlatform("honest")
    arbiter.register_participant("honest")
    honest.submit(arbiter, classification_wtp(honest, world,
                                              steps=((0.7, 10.0),)))
    result = arbiter.run_round()  # must not raise
    assert any(d.buyer == "honest" for d in result.deliveries)
    assert not any(d.buyer == "hostile" for d in result.deliveries)
    assert any(r.buyer == "hostile" and "settlement" in r.reason
               for r in result.rejections)
    assert arbiter.audit.records("settlement_crashed")
    assert arbiter.ledger.conservation_check()


def test_unregistered_buyer_rejected(world):
    arbiter, *_ = build_market(world)
    buyer = BuyerPlatform("ghost")
    with pytest.raises(MarketError, match="not registered"):
        buyer.submit(arbiter, classification_wtp(buyer, world))


def test_internal_market_mints_points(world):
    arbiter, *_ = build_market(world, design=internal_market())
    buyer = BuyerPlatform("team_analytics")
    arbiter.register_participant("team_analytics")
    buyer.submit(arbiter, classification_wtp(buyer, world))
    result = arbiter.run_round()
    assert result.transactions == 1
    # posted price 0: no money moved from the buyer...
    assert result.deliveries[0].price_paid == 0.0
    # ...but sellers earned minted bonus points
    assert arbiter.ledger.balance("alice") > internal_market().participation_grant
    assert arbiter.ledger.unit == "points"


def test_expost_flow_settles_with_report(world):
    arbiter, *_ = build_market(world)
    buyer = BuyerPlatform("explorer")
    arbiter.register_participant("explorer", funding=300.0)
    arbiter.attach_buyer_platform(buyer)
    wtp = buyer.exploration_wtp(
        attributes=["f0", "f1"], max_budget=200.0, key="entity_id"
    )
    buyer.submit(arbiter, wtp)
    result = arbiter.run_round()
    assert len(result.expost_deliveries) == 1
    assert result.transactions == 0  # nothing paid yet
    tx = result.expost_deliveries[0].transaction_id
    # buyer uses the data, realizes value 80, reports truthfully
    buyer.report_expost_value(arbiter, tx, 80.0)
    rng = np.random.default_rng(0)
    settled = arbiter.settle_expost(rng, true_values={tx: 80.0})
    assert len(settled) == 1
    assert settled[0].price_paid == pytest.approx(0.5 * 80.0)  # alpha=0.5
    assert arbiter.ledger.balance("explorer") == pytest.approx(300.0 - 40.0)
    assert arbiter.ledger.conservation_check()
    # double settlement is refused
    with pytest.raises(MarketError):
        buyer.report_expost_value(arbiter, tx, 10.0)


def test_expost_underreporting_punished_under_audit(world):
    arbiter, *_ = build_market(world)
    buyer = BuyerPlatform("cheater")
    arbiter.register_participant("cheater", funding=300.0)
    wtp = buyer.exploration_wtp(["f0"], max_budget=200.0, key="entity_id")
    buyer.submit(arbiter, wtp)
    result = arbiter.run_round()
    tx = result.expost_deliveries[0].transaction_id
    buyer.report_expost_value(arbiter, tx, 0.0)  # lies: true value is 80
    # force an audit by settling until the coin lands (audit_probability=.3)
    rng = np.random.default_rng(3)  # first draw < .3 -> audited
    settled = arbiter.settle_expost(rng, true_values={tx: 80.0})
    charge = settled[0].price_paid
    truthful_payment = 0.5 * 80.0
    if charge > 0:  # audited: penalty exceeds honest payment
        assert charge > truthful_payment
    assert arbiter.audit.verify()


def test_dataset_update_reaches_market(world):
    """Sellers can update datasets; the market uses the newest version."""
    arbiter, s0, _s1 = build_market(world)
    updated = world.datasets[0].map_column("f0", lambda v: v).renamed(
        "seller_0"
    ).with_provenance_root("seller_0")
    arbiter.builder.add_dataset(updated, owner="alice")
    assert arbiter.builder.metadata.snapshot("seller_0").version >= 1


def test_audit_log_covers_market_lifecycle(world):
    arbiter, *_ = build_market(world)
    buyer = BuyerPlatform("b1")
    arbiter.register_participant("b1", funding=500.0)
    buyer.submit(arbiter, classification_wtp(buyer, world))
    arbiter.run_round()
    kinds = {r.kind for r in arbiter.audit.records()}
    assert {"market_created", "participant_registered", "dataset_accepted",
            "wtp_submitted"} <= kinds
    assert arbiter.audit.verify()
