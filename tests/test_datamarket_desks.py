"""Façade coverage for the market's side desks: negotiation (4.1),
disputes (4.4), data trusts (4.5) and insurance (7.1) — all through typed
``DataMarket`` methods returning frozen, ``as_of``-stamped results — plus
the lazy ``PlanResult`` → ``materialize`` flow of the redesigned API."""

import dataclasses

import numpy as np
import pytest

from repro import DataMarket, internal_market
from repro.errors import (
    DatasetNotFoundError,
    DuplicateDatasetError,
    InvalidRequestError,
    NegotiationError,
    UnknownParticipantError,
)
from repro.integration import AffineMap, TransformHint
from repro.relation import Column, Relation

N_KEYS = 30


def make_dataset(name, attrs, seed=0):
    rng = np.random.default_rng(seed)
    cols = [Column("entity_id", "int", "entity")]
    cols += [Column(a, "float") for a in attrs]
    rows = [
        (k, *(float(v) for v in rng.normal(size=len(attrs))))
        for k in range(N_KEYS)
    ]
    return Relation(name, cols, rows)


# ---------------------------------------------------------------------------
# lazy plans through the façade
# ---------------------------------------------------------------------------


def test_plan_result_is_lazy_until_materialized():
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    market.register_dataset(
        make_dataset("ds_b", ["beta"], seed=1), seller="s1"
    )
    result = market.plan(["alpha", "beta"], key="entity_id")
    assert len(result) >= 1
    assert all(not m.materialized for m in result.mashups)
    assert len(result.trees) == len(result.mashups)
    relations = market.materialize(result)
    assert all(m.materialized for m in result.mashups)
    assert relations[0] is result.best.relation
    # bit-identical to the eager operators applied node-for-node
    from oracles.execution import IterationEngine

    oracle = IterationEngine().execute(result.best.tree)
    assert oracle.rows == relations[0].rows
    assert oracle.provenance == relations[0].provenance


def test_negotiation_flow_through_facade():
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    market.plan(["alpha", "mystery"], key="entity_id")
    report = market.publish_gaps()
    assert "mystery" in report.attributes
    assert report.as_of == market.graph_version
    request = next(
        r for r in report.requests if r.attribute == "mystery"
    )
    assert request.open
    with pytest.raises(dataclasses.FrozenInstanceError):
        request.bounty = 99.0

    # a seller answers with a dataset carrying the missing attribute:
    # the request closes and the dataset goes live in one step
    ds = make_dataset("ds_m", ["mystery"], seed=7)
    view = market.respond_with_dataset(request.request_id, "s9", ds)
    assert view.status == "fulfilled"
    assert view.fulfilled_by == "s9"
    assert "ds_m" in market.datasets
    assert market.open_info_requests().attributes == ()
    # the fulfilled request cannot be answered twice
    with pytest.raises(NegotiationError):
        market.respond_with_dataset(request.request_id, "s9", ds)


def test_negotiation_hint_joins_planner_hints():
    market = DataMarket(internal_market())
    market.register_dataset(
        make_dataset("ds_a", ["alpha", "price_usd"]), seller="s0"
    )
    market.plan(["alpha", "kilometrage"], key="entity_id")
    report = market.publish_gaps()
    request = next(
        r for r in report.requests if r.attribute == "kilometrage"
    )
    hint = TransformHint(
        dataset="ds_a", column="price_usd",
        target_attribute="kilometrage", mapping=AffineMap(0.9, 0.0),
    )
    view = market.respond_with_hint(request.request_id, "s0", hint)
    assert view.status == "fulfilled"
    # the hint is now standing: the same request plans successfully
    result = market.plan(["alpha", "kilometrage"], key="entity_id")
    assert result.best is not None
    assert "kilometrage" in market.materialize(result)[0].columns


def test_standing_hints_are_content_hashed_into_cache_key():
    """Plan-cache identity includes hint *content*: a new hint changes
    the key, but an equal-content hint (fresh instances, unhashable
    DictionaryMap payload included) still hits."""
    from repro.integration import DictionaryMap

    def hint():
        return TransformHint(
            dataset="ds_a", column="price_usd",
            target_attribute="kilometrage",
            mapping=DictionaryMap({1.0: 2.0, 3.0: 4.0}),
        )

    market = DataMarket(internal_market())
    market.register_dataset(
        make_dataset("ds_a", ["alpha", "price_usd"]), seller="s0"
    )
    market.plan(["alpha"], key="entity_id")
    market.plan(["alpha"], key="entity_id")
    assert market.plan_cache_stats.hits == 1
    assert market.plan_cache_stats.misses == 1

    market.builder.add_hint(hint())
    market.plan(["alpha"], key="entity_id")  # hint set changed: miss
    assert market.plan_cache_stats.misses == 2

    # equal-content hints under fresh object identities still hit
    market.builder._hints[:] = [hint()]
    market.plan(["alpha"], key="entity_id")
    assert market.plan_cache_stats.hits == 2
    assert market.plan_cache_stats.uncacheable == 0


# ---------------------------------------------------------------------------
# disputes
# ---------------------------------------------------------------------------


def test_dispute_flow_through_facade():
    market = DataMarket(internal_market())
    market.register_participant("b1", funding=100.0)
    market.ledger.mint("arbiter", 50.0, memo="operating reserve")

    filed = market.file_dispute("b1", "not_delivered", 7, 12.5)
    assert filed.status == "open"
    assert filed.kind == "not_delivered"
    assert [d.dispute_id for d in market.open_disputes()] == [
        filed.dispute_id
    ]

    before = market.ledger.balance("b1")
    resolved = market.resolve_dispute(filed.dispute_id)
    # no transaction 7 on record: the claim is upheld and refunded
    assert resolved.upheld
    assert resolved.refund == pytest.approx(12.5)
    assert market.ledger.balance("b1") == pytest.approx(before + 12.5)
    assert market.open_disputes() == ()


def test_dispute_kind_validation():
    market = DataMarket(internal_market())
    market.register_participant("b1", funding=10.0)
    with pytest.raises(InvalidRequestError, match="unknown dispute kind"):
        market.file_dispute("b1", "vibes", 0, 1.0)


# ---------------------------------------------------------------------------
# insurance
# ---------------------------------------------------------------------------


def test_insurance_flow_through_facade():
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    market.register_participant("holder", funding=100.0)

    quote = market.underwrite_insurance(
        "ds_a", "holder", liability=10.0, breach_probability=0.5,
        loading=0.25,
    )
    assert quote.premium == pytest.approx(0.5 * 10.0 * 1.25)
    assert quote.active

    first = market.collect_premium(quote.policy_id)
    second = market.collect_premium(quote.policy_id)
    assert first.kind == "premium"
    assert second.solvency == pytest.approx(2 * quote.premium)

    payout = market.file_insurance_claim(quote.policy_id)
    assert payout.kind == "claim"
    assert payout.amount == pytest.approx(10.0)
    assert payout.solvency == pytest.approx(2 * quote.premium - 10.0)


def test_insurance_validates_against_market_state():
    market = DataMarket(internal_market())
    market.register_participant("holder", funding=10.0)
    with pytest.raises(DatasetNotFoundError):
        market.underwrite_insurance(
            "ghost", "holder", liability=1.0, breach_probability=0.1
        )
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    with pytest.raises(UnknownParticipantError):
        market.underwrite_insurance(
            "ds_a", "stranger", liability=1.0, breach_probability=0.1
        )


# ---------------------------------------------------------------------------
# data trusts
# ---------------------------------------------------------------------------


def member_rows(start, n, seed):
    rng = np.random.default_rng(seed)
    return [
        (k, float(v))
        for k, v in zip(range(start, start + n), rng.normal(size=n))
    ]


def test_trust_flow_through_facade():
    market = DataMarket(internal_market())
    schema = [Column("entity_id", "int", "entity"),
              Column("steps", "float")]
    created = market.create_trust("wearables", schema)
    assert created.members == ()
    assert market.trusts == ("wearables",)

    market.contribute_to_trust(
        "wearables", "ada",
        Relation("ada_rows", schema, member_rows(0, 10, 1)),
    )
    report = market.contribute_to_trust(
        "wearables", "grace",
        Relation("grace_rows", schema, member_rows(10, 20, 2)),
    )
    assert report.members == ("ada", "grace")
    assert report.rows == 30

    # fund the trust's account up-front so the split can settle
    market.register_participant("wearables", funding=30.0)
    offered = market.offer_trust_dataset("wearables", reserve_price=1.0)
    assert offered.dataset == "wearables"
    assert offered.seller == "wearables"
    assert "wearables" in market.datasets

    # a sale of the pooled data: members are paid by provenance shares
    sold = market.metadata.relation("wearables")
    dist = market.distribute_trust_revenue("wearables", sold, 30.0)
    assert dist.distributed == pytest.approx(30.0)
    # ada contributed 10 of 30 rows, grace 20 of 30
    assert dist.payout_of("ada") == pytest.approx(10.0)
    assert dist.payout_of("grace") == pytest.approx(20.0)
    assert market.ledger.balance("ada") == pytest.approx(10.0)
    assert market.ledger.balance("grace") == pytest.approx(20.0)


def test_trust_name_collisions_rejected():
    market = DataMarket(internal_market())
    market.create_trust("pool", [Column("x", "int")])
    with pytest.raises(DuplicateDatasetError):
        market.create_trust("pool", [Column("x", "int")])
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    with pytest.raises(DuplicateDatasetError):
        market.create_trust("ds_a", [Column("x", "int")])
    with pytest.raises(DatasetNotFoundError):
        market.contribute_to_trust(
            "ghost", "ada", Relation("r", [Column("x", "int")], [(1,)])
        )
