"""Tests for the unified ``DataMarket`` platform façade: typed lifecycle
operations, the structured error taxonomy, the graph-version plan cache,
and façade-vs-manually-wired-engines equivalence."""

import numpy as np
import pytest

from repro import DataMarket, external_market, internal_market
from repro.datagen import make_classification_world
from repro.errors import (
    DatasetNotFoundError,
    DatasetOwnershipError,
    DuplicateDatasetError,
    DuplicateParticipantError,
    InvalidRequestError,
    LicenseDowngradeError,
    MarketError,
    UnknownParticipantError,
)
from repro.integration import MashupRequest
from repro.market import Arbiter, BuyerPlatform, License, LicenseKind
from repro.mashup import MashupBuilder
from repro.relation import Column, Relation
from repro.wtp import PriceCurve, QueryCompletenessTask, WTPFunction

N_KEYS = 40
ATTRS = ("alpha", "beta", "gamma", "delta", "epsilon")


def make_dataset(name: str, attrs, seed: int = 0) -> Relation:
    """A joinable dataset: shared entity_id domain + float attributes."""
    rng = np.random.default_rng(seed)
    cols = [Column("entity_id", "int", "entity")]
    cols += [Column(a, "float") for a in attrs]
    rows = [
        (k, *(float(v) for v in rng.normal(size=len(attrs))))
        for k in range(N_KEYS)
    ]
    return Relation(name, cols, rows)


def completeness_wtp(buyer: str, attrs, price: float = 50.0) -> WTPFunction:
    return WTPFunction(
        buyer=buyer,
        task=QueryCompletenessTask(
            wanted_keys=list(range(N_KEYS)),
            attributes=list(attrs),
            key="entity_id",
        ),
        curve=PriceCurve.single(0.3, price),
        key="entity_id",
    )


# ---------------------------------------------------------------------------
# typed lifecycle operations
# ---------------------------------------------------------------------------

def test_register_dataset_returns_typed_result():
    market = DataMarket(internal_market())
    r = market.register_dataset(
        make_dataset("ds_a", ["alpha"]), seller="s0", reserve_price=1.5
    )
    assert r.dataset == "ds_a"
    assert r.seller == "s0"
    assert r.version == 1
    assert r.rows == N_KEYS
    assert r.reserve_price == 1.5
    assert r.created is True
    assert r.as_of == market.graph_version


def test_register_duplicate_name_is_typed_error():
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    with pytest.raises(DuplicateDatasetError):
        market.register_dataset(make_dataset("ds_a", ["beta"]), seller="s0")


def test_update_dataset_bumps_version_and_flags_not_created():
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    r = market.update_dataset(
        make_dataset("ds_a", ["alpha"], seed=9), seller="s0"
    )
    assert r.created is False
    assert r.version == 2
    # unchanged content: no new snapshot
    r2 = market.update_dataset(
        make_dataset("ds_a", ["alpha"], seed=9), seller="s0"
    )
    assert r2.version == 2


def test_update_with_reordered_rows_is_the_same_version():
    """A dataset's identity ignores row order: the same rows in reverse
    are no new version, no graph delta and no fingerprint change."""
    market = DataMarket(internal_market())
    first = market.register_dataset(
        make_dataset("ds_a", ["alpha", "beta"]), seller="s0"
    )
    market.register_dataset(make_dataset("ds_b", ["gamma"]), seller="s1")
    graph_version = market.graph_version
    fingerprints = market.index.component_fingerprints()
    original = make_dataset("ds_a", ["alpha", "beta"])
    reversed_rows = Relation("ds_a", original.schema, original.rows[::-1])
    again = market.update_dataset(reversed_rows, seller="s0")
    assert again.version == first.version == 1
    assert market.graph_version == graph_version
    assert market.index.component_fingerprints() == fingerprints


def test_update_unknown_dataset_is_typed_error():
    market = DataMarket(internal_market())
    with pytest.raises(DatasetNotFoundError):
        market.update_dataset(make_dataset("ghost", ["alpha"]), seller="s0")


@pytest.mark.parametrize("store", [False, True])
def test_a_lone_surrogate_cell_is_refused_before_any_change(tmp_path, store):
    """A str cell with a lone surrogate has no UTF-8 form, so no content
    digest: register and update refuse it with a typed error naming the
    column, and the market (ledger included) is left as it was."""
    market = DataMarket(store=str(tmp_path / "m.db") if store else None)
    market.register_dataset(make_dataset("held", ["alpha"]), seller="s1")
    version, accounts = market.graph_version, set(market.ledger.accounts)
    bad = Relation("fresh", [Column("c", "str")], [("\ud800",), ("a",)])
    with pytest.raises(InvalidRequestError, match="column 'c'"):
        market.register_dataset(bad, seller="newcomer")
    rows = [(1, "ok"), (2, "\udfff")]
    stale = Relation("held", [Column("entity_id", "int"),
                              Column("alpha", "str")], rows)
    with pytest.raises(InvalidRequestError, match="column 'alpha'"):
        market.update_dataset(stale, seller="s1")
    assert market.graph_version == version
    assert set(market.ledger.accounts) == accounts
    assert market.datasets == ["held"]
    assert market.metadata.snapshot("held").version == 1
    if store:
        assert DataMarket(store=str(tmp_path / "m.db")).datasets == ["held"]


@pytest.mark.parametrize("store", [False, True])
@pytest.mark.parametrize("field", ["dataset name", "seller", "column name",
                                   "semantic tag"])
def test_a_lone_surrogate_in_a_name_is_refused_before_any_change(
    tmp_path, store, field
):
    """A dataset name, seller, column name or semantic tag with a lone
    surrogate has no UTF-8 form for the store or the digest: register and
    update refuse it with a typed error naming the field, and neither the
    live market nor a restart from its store holds the write."""
    path = str(tmp_path / "m.db")
    market = DataMarket(store=path if store else None)
    market.register_dataset(make_dataset("held", ["alpha"]), seller="s1")
    version, accounts = market.graph_version, set(market.ledger.accounts)
    name, seller, column, tag = "fresh", "s2", "c", None
    if field == "dataset name":
        name = "fresh\ud800"
    elif field == "seller":
        seller = "s\ud800"
    elif field == "column name":
        column = "c\udfff"
    else:
        tag = "t\ud800"
    bad = Relation(name, [Column(column, "str", tag)], [("a",)])
    with pytest.raises(InvalidRequestError, match=field):
        market.register_dataset(bad, seller=seller)
    if field != "dataset name":
        held = Relation(
            "held",
            [Column("entity_id", "int"),
             Column(column if field == "column name" else "alpha", "str",
                    tag)],
            [(1, "b")],
        )
        with pytest.raises(InvalidRequestError, match=field):
            market.update_dataset(
                held, seller=seller if field == "seller" else "s1"
            )
    assert market.datasets == ["held"]
    assert market.graph_version == version
    assert set(market.ledger.accounts) == accounts
    assert market.metadata.snapshot("held").version == 1
    if store:
        assert DataMarket(store=path).datasets == ["held"]


def test_update_by_other_seller_is_ownership_error():
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    with pytest.raises(DatasetOwnershipError):
        market.update_dataset(make_dataset("ds_a", ["alpha"]), seller="s1")


def test_retire_dataset_round_trip():
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    r = market.retire_dataset("ds_a")
    assert r.dataset == "ds_a"
    assert r.seller == "s0"
    assert "ds_a" not in market.datasets
    with pytest.raises(DatasetNotFoundError):
        market.retire_dataset("ds_a")
    # the name is free again, for any seller
    again = market.register_dataset(
        make_dataset("ds_a", ["beta"]), seller="s1"
    )
    assert again.created is True


def test_participant_errors_are_typed():
    market = DataMarket(internal_market())
    market.register_participant("b1")
    with pytest.raises(DuplicateParticipantError):
        market.register_participant("b1")
    with pytest.raises(InvalidRequestError):
        market.register_participant("b2", funding=-1.0)
    with pytest.raises(UnknownParticipantError):
        market.submit_wtp(completeness_wtp("nobody", ["alpha"]))
    with pytest.raises(InvalidRequestError):
        market.register_dataset(
            make_dataset("ds_a", ["alpha"]), seller="s0", reserve_price=-1.0
        )


def test_read_request_validation():
    market = DataMarket(internal_market())
    with pytest.raises(InvalidRequestError):
        market.search([])
    with pytest.raises(InvalidRequestError):
        market.plan([""])
    with pytest.raises(InvalidRequestError):
        market.plan(["alpha"], max_results=0)


def test_typed_errors_are_market_errors():
    # callers catching the old MarketError keep working
    for exc in (
        DuplicateDatasetError, DatasetNotFoundError, DatasetOwnershipError,
        DuplicateParticipantError, UnknownParticipantError,
        InvalidRequestError, LicenseDowngradeError,
    ):
        assert issubclass(exc, MarketError)


def test_search_and_plan_results_are_stamped():
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    market.register_dataset(make_dataset("ds_b", ["beta"]), seller="s1")
    s = market.search(["alpha", "beta"])
    assert s.datasets  # both datasets cover something
    assert s.as_of == market.graph_version
    p = market.plan(["alpha", "beta"], key="entity_id")
    assert p.best is not None
    assert set(p.best.relation.columns) == {"entity_id", "alpha", "beta"}
    assert p.as_of == market.graph_version
    assert p.plans and p.plans[0].sources()


def test_full_round_through_facade():
    world = make_classification_world(
        n_entities=200, feature_weights=(2.0, 1.5),
        dataset_features=((0,), (1,)), seed=7,
    )
    market = DataMarket(external_market())
    market.register_dataset(world.datasets[0], seller="s0")
    market.register_dataset(world.datasets[1], seller="s1")
    buyer = BuyerPlatform("b1")
    market.register_participant("b1", funding=500.0)
    market.attach_buyer_platform(buyer)
    receipt = market.submit_wtp(buyer.classification_wtp(
        labels=world.label_relation, features=["f0", "f1"],
        price_steps=[(0.6, 100.0)],
    ))
    assert receipt.buyer == "b1"
    assert receipt.queued == 1
    report = market.run_round()
    assert report.round_index == 1
    assert report.transactions == 1
    assert report.revenue == report.deliveries[0].price_paid
    assert report.as_of == market.graph_version
    assert buyer.latest is not None
    assert market.ledger.conservation_check()
    assert market.audit.verify()


# ---------------------------------------------------------------------------
# the graph-version plan cache
# ---------------------------------------------------------------------------

def test_plan_cache_hits_on_repeat_request():
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    market.register_dataset(make_dataset("ds_b", ["beta"]), seller="s1")
    p1 = market.plan(["alpha", "beta"], key="entity_id")
    p2 = market.plan(["alpha", "beta"], key="entity_id")
    assert p1.cached is False
    assert p2.cached is True
    assert p1.as_of == p2.as_of
    assert market.plan_cache_stats.hits == 1
    assert market.plan_cache_stats.misses == 1
    assert market.planner_stats.cache_hit is True
    # cached output is the same object graph's content
    assert [m.plan.describe() for m in p1.mashups] == [
        m.plan.describe() for m in p2.mashups
    ]
    assert [m.relation.rows for m in p1.mashups] == [
        m.relation.rows for m in p2.mashups
    ]


@pytest.mark.parametrize("delta", ["register", "update", "retire"])
def test_plan_cache_invalidated_by_any_delta(delta):
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    market.register_dataset(make_dataset("ds_b", ["beta"]), seller="s1")
    before = market.plan(["alpha", "beta"], key="entity_id")
    assert market.plan(["alpha", "beta"], key="entity_id").cached is True
    if delta == "register":
        market.register_dataset(make_dataset("ds_c", ["gamma"]), seller="s2")
    elif delta == "update":
        market.update_dataset(
            make_dataset("ds_b", ["beta"], seed=3), seller="s1"
        )
    else:
        market.retire_dataset("ds_b")
    after = market.plan(["alpha", "beta"], key="entity_id")
    assert after.cached is False
    assert after.as_of > before.as_of
    assert market.plan_cache_stats.invalidations >= 1


def test_plan_cache_results_identical_to_uncached_planner():
    cached = DataMarket(internal_market())
    uncached = DataMarket(internal_market(), plan_cache=False)
    for market in (cached, uncached):
        market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
        market.register_dataset(
            make_dataset("ds_b", ["beta", "gamma"]), seller="s1"
        )
    for _ in range(3):
        pc = cached.plan(["alpha", "beta", "gamma"], key="entity_id")
        pu = uncached.plan(["alpha", "beta", "gamma"], key="entity_id")
        assert [m.plan.describe() for m in pc.mashups] == [
            m.plan.describe() for m in pu.mashups
        ]
        assert [m.relation.rows for m in pc.mashups] == [
            m.relation.rows for m in pu.mashups
        ]
    assert cached.plan_cache_stats.hits == 2
    assert uncached.plan_cache_stats.requests == 0


def test_plan_with_examples_is_cached_by_content():
    """QBE payloads are content-hashed into the cache key: identical
    examples hit, different example rows miss (no false sharing)."""
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    examples = Relation(
        "examples",
        [Column("entity_id", "int", "entity"), Column("alpha", "float")],
        [(0, 0.0), (1, 1.0)],
    )
    market.plan(["alpha"], key="entity_id", examples=examples)
    market.plan(["alpha"], key="entity_id", examples=examples)
    assert market.plan_cache_stats.hits == 1
    assert market.plan_cache_stats.uncacheable == 0
    other = Relation(
        "examples",
        [Column("entity_id", "int", "entity"), Column("alpha", "float")],
        [(0, 5.0), (1, 6.0)],
    )
    market.plan(["alpha"], key="entity_id", examples=other)
    assert market.plan_cache_stats.hits == 1
    assert market.plan_cache_stats.misses == 2
    # examples-keyed entries must not serve the no-examples request either
    market.plan(["alpha"], key="entity_id")
    assert market.plan_cache_stats.hits == 1
    assert market.plan_cache_stats.misses == 3


def test_as_of_monotonicity_over_lifecycle():
    market = DataMarket(internal_market())
    stamps = []
    market.register_participant("b1", funding=100.0)
    for i, op in enumerate(
        ["register", "plan", "update", "search", "round", "retire", "plan"]
    ):
        if op == "register":
            stamps.append(
                market.register_dataset(
                    make_dataset("ds_a", ["alpha"]), seller="s0"
                ).as_of
            )
        elif op == "update":
            stamps.append(
                market.update_dataset(
                    make_dataset("ds_a", ["alpha"], seed=i), seller="s0"
                ).as_of
            )
        elif op == "search":
            stamps.append(market.search(["alpha"]).as_of)
        elif op == "plan":
            stamps.append(market.plan(["alpha"]).as_of)
        elif op == "round":
            market.submit_wtp(completeness_wtp("b1", ["alpha"]))
            stamps.append(market.run_round().as_of)
        else:
            stamps.append(market.retire_dataset("ds_a").as_of)
    assert stamps == sorted(stamps)


# ---------------------------------------------------------------------------
# façade vs. manually wired engines: lifecycle property test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [11, 29, 47])
def test_facade_equals_manual_wiring_over_random_lifecycle(seed):
    """A random register/update/retire/search/plan/run_round stream through
    ``DataMarket`` (plan cache on) matches the same stream hand-wired
    through Arbiter + engines with the cache off."""
    rng = np.random.default_rng(seed)
    market = DataMarket(internal_market())
    manual = Arbiter(internal_market(), builder=MashupBuilder(plan_cache=False))
    live: dict[str, str] = {}  # dataset -> seller
    next_id = 0
    for b in ("b0", "b1"):
        market.register_participant(b, funding=1000.0)
        manual.register_participant(b, funding=1000.0)

    for step in range(25):
        op = rng.choice(
            ["register", "update", "retire", "search", "plan", "round"]
        )
        if op == "register" or (op in ("update", "retire") and not live):
            name = f"ds_{next_id}"
            seller = f"s{next_id % 3}"
            next_id += 1
            attrs = list(rng.choice(ATTRS, size=2, replace=False))
            ds = make_dataset(name, attrs, seed=100 + step)
            market.register_dataset(ds, seller=seller)
            manual.accept_dataset(ds, seller=seller)
            live[name] = seller
        elif op == "update":
            name = str(rng.choice(sorted(live)))
            attrs = list(rng.choice(ATTRS, size=2, replace=False))
            ds = make_dataset(name, attrs, seed=200 + step)
            market.update_dataset(ds, seller=live[name])
            manual.accept_dataset(ds, seller=live[name])
        elif op == "retire":
            name = str(rng.choice(sorted(live)))
            market.retire_dataset(name)
            manual.retire_dataset(name)
            del live[name]
        elif op == "search":
            attrs = list(rng.choice(ATTRS, size=2, replace=False))
            got = market.search(attrs)
            want = manual.builder.discovery.search_schema(attrs)
            assert [(h.dataset, h.score) for h in got.hits] == [
                (h.dataset, h.score) for h in want
            ]
        elif op == "plan":
            attrs = list(rng.choice(ATTRS, size=2, replace=False))
            got = market.plan(attrs, key="entity_id")
            want = manual.builder.build(
                MashupRequest(attributes=attrs, key="entity_id")
            )
            assert [m.plan.describe() for m in got.mashups] == [
                m.plan.describe() for m in want
            ]
            assert [m.relation.rows for m in got.mashups] == [
                m.relation.rows for m in want
            ]
        else:
            attrs = list(rng.choice(ATTRS, size=2, replace=False))
            for b in ("b0", "b1"):
                market.submit_wtp(completeness_wtp(b, attrs, price=20.0))
                manual.submit_wtp(completeness_wtp(b, attrs, price=20.0))
            got = market.run_round()
            want = manual.run_round()
            assert got.transactions == want.transactions
            assert got.revenue == pytest.approx(want.revenue)
            assert len(got.rejections) == len(want.rejections)
    # the façade actually exercised its cache along the way
    assert market.plan_cache_stats.requests > 0


# ---------------------------------------------------------------------------
# license continuity on dataset update (ROADMAP pre-existing bug)
# ---------------------------------------------------------------------------

def exclusive_sale_market():
    world = make_classification_world(
        n_entities=150, feature_weights=(2.0, 1.5),
        dataset_features=((0, 1),), seed=21,
    )
    market = DataMarket(external_market())
    market.register_dataset(
        world.datasets[0], seller="s0",
        license=License(LicenseKind.EXCLUSIVE, max_licensees=1),
    )
    return market, world


def buy(market, world, name, price=100.0):
    buyer = BuyerPlatform(name)
    if name not in market.ledger:
        market.register_participant(name, funding=500.0)
    market.attach_buyer_platform(buyer)
    market.submit_wtp(buyer.classification_wtp(
        labels=world.label_relation, features=["f0", "f1"],
        price_steps=[(0.6, price)],
    ))
    return market.run_round()


def test_exclusive_license_survives_seller_update():
    market, world = exclusive_sale_market()
    first = buy(market, world, "b1")
    assert first.transactions == 1
    ds = world.datasets[0].name
    assert market.licenses.licensees_of(ds) == ["b1"]
    # seller refreshes the dataset: the granted licensee must survive
    market.update_dataset(
        world.datasets[0], seller="s0",
        license=License(LicenseKind.EXCLUSIVE, max_licensees=1),
    )
    assert market.licenses.licensees_of(ds) == ["b1"]
    # the EXCLUSIVE slot stays occupied: a second buyer is blocked
    second = buy(market, world, "b2")
    assert second.transactions == 0
    assert any("exclusively licensed" in r.reason for r in second.rejections)
    # ... and the original holder still clears the license check
    third = buy(market, world, "b1")
    assert third.transactions == 1


def test_license_downgrades_rejected_on_update():
    world = make_classification_world(
        n_entities=150, feature_weights=(2.0, 1.5),
        dataset_features=((0, 1),), seed=22,
    )
    ds = world.datasets[0].name
    market = DataMarket(external_market())
    market.register_dataset(world.datasets[0], seller="s0")  # OPEN
    result = buy(market, world, "b1")
    assert result.transactions == 1
    # revoking resale rights from an existing holder is a downgrade
    with pytest.raises(LicenseDowngradeError):
        market.update_dataset(
            world.datasets[0], seller="s0",
            license=License(LicenseKind.NON_RESALE),
        )
    # shrinking exclusivity below the holder count likewise
    with pytest.raises(LicenseDowngradeError):
        market.update_dataset(
            world.datasets[0], seller="s0",
            license=License(LicenseKind.TRANSFER),
        )
    # holder list is intact and resale still works after the failed updates
    assert market.licenses.licensees_of(ds) == ["b1"]
    market.licenses.check_resale(ds, "b1")
    # with no licensees any license change is fine
    market.retire_dataset(ds)
    market.register_dataset(world.datasets[0], seller="s0")
    market.update_dataset(
        world.datasets[0], seller="s0",
        license=License(LicenseKind.NON_RESALE),
    )
    assert market.licenses.license_of(ds).kind is LicenseKind.NON_RESALE


def test_update_without_license_keeps_current_license():
    """An update that does not mention licensing must not weaken it:
    ``license=None`` means *keep*, not *reset to OPEN*."""
    market, world = exclusive_sale_market()
    ds = world.datasets[0].name
    first = buy(market, world, "b1")
    assert first.transactions == 1
    # plain refresh — the exact call shape simulator actors use
    market.update_dataset(world.datasets[0], seller="s0")
    assert market.licenses.license_of(ds).kind is LicenseKind.EXCLUSIVE
    assert market.licenses.licensees_of(ds) == ["b1"]
    # the slot is still taken: a second buyer stays blocked
    second = buy(market, world, "b2")
    assert second.transactions == 0
    assert any("exclusively licensed" in r.reason for r in second.rejections)


def test_empty_plan_after_hit_reports_cache_miss():
    """An unmatched request following a cache hit must not inherit the
    previous call's ``cache_hit`` stats."""
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    market.plan(["alpha"])
    assert market.plan(["alpha"]).cached is True
    empty = market.plan(["no_such_attribute_xyz"])
    assert len(empty) == 0
    assert empty.cached is False
    assert market.planner_stats.cache_hit is False


def test_cache_hits_serve_fresh_mutable_wrappers():
    """Cache hits share the immutable relations but hand out fresh
    Mashup/MashupPlan wrappers, so a caller mutating its copy cannot
    poison later requests."""
    market = DataMarket(internal_market())
    market.register_dataset(make_dataset("ds_a", ["alpha"]), seller="s0")
    market.register_dataset(make_dataset("ds_b", ["beta"]), seller="s1")
    market.plan(["alpha", "beta"], key="entity_id")
    hit1 = market.plan(["alpha", "beta"], key="entity_id")
    assert hit1.cached
    hit1.best.matched.clear()
    hit1.best.plan.joins.clear()
    hit1.best.plan.output.clear()
    hit2 = market.plan(["alpha", "beta"], key="entity_id")
    assert hit2.cached
    assert hit2.best.matched
    assert hit2.best.plan.output
    assert hit2.best.relation is hit1.best.relation  # immutable, shared


def test_exclusive_cap_shrink_below_holders_rejected():
    from repro.market import LicenseRegistry

    reg = LicenseRegistry()
    reg.register(
        "ds", owner="s0",
        license=License(LicenseKind.EXCLUSIVE, max_licensees=2),
    )
    reg.record_sale("ds", "b1")
    reg.record_sale("ds", "b2")
    with pytest.raises(LicenseDowngradeError):
        reg.update(
            "ds", owner="s0",
            license=License(LicenseKind.EXCLUSIVE, max_licensees=1),
        )
    # same cap is fine, holders preserved
    reg.update(
        "ds", owner="s0",
        license=License(LicenseKind.EXCLUSIVE, max_licensees=2),
    )
    assert reg.licensees_of("ds") == ["b1", "b2"]
