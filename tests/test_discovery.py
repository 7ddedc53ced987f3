"""Tests for the discovery subsystem (profiler, metadata, index, search)."""

import pytest

from oracles.planning import hop_join_path
from repro.discovery import (
    DiscoveryEngine,
    IndexBuilder,
    MetadataEngine,
    name_similarity,
    profile_column,
    profile_table,
)
from repro.errors import DiscoveryError
from repro.relation import Column, Relation


def make_orders(n=50):
    return Relation(
        "orders",
        [Column("order_id", "int"), Column("customer_id", "int", "customer"),
         Column("amount", "float")],
        [(i, i % 20, float(i) * 1.5) for i in range(n)],
    )


def make_customers():
    return Relation(
        "customers",
        [Column("customer_id", "int", "customer"), Column("city", "str")],
        [(i, "oslo" if i % 2 else "rome") for i in range(20)],
    )


def make_unrelated():
    return Relation(
        "weather",
        [Column("station", "str"), Column("temp", "float")],
        [(f"st{i}", 20.0 + i) for i in range(10)],
    )


# -- profiler ---------------------------------------------------------------


def test_profile_column_numeric_key():
    p = profile_column(make_orders(), "order_id")
    assert p.is_numeric and p.looks_like_key
    assert p.numeric is not None and p.numeric.minimum == 0
    assert p.distinct_fraction == 1.0


def test_profile_column_categorical():
    p = profile_column(make_customers(), "city")
    assert not p.is_numeric and not p.looks_like_key
    assert p.categorical.distinct == 2


def test_profile_table():
    t = profile_table(make_orders())
    assert t.dataset == "orders" and t.n_rows == 50
    assert {c.column for c in t.columns} == {"order_id", "customer_id", "amount"}
    assert t.column("amount").dtype == "float"
    with pytest.raises(KeyError):
        t.column("nope")


def test_name_similarity():
    assert name_similarity("customer_id", "customer_id") == 1.0
    assert name_similarity("Customer-ID", "customer_id") == 1.0
    assert name_similarity("customer_id", "id_customer") > 0.8
    assert name_similarity("customer_id", "temp") < 0.5


# -- metadata engine ----------------------------------------------------------


def test_register_and_versions():
    eng = MetadataEngine()
    snap1 = eng.register(make_orders(), owner="alice")
    assert snap1.version == 1 and snap1.owners == ("alice",)
    # identical content: no new snapshot
    snap_same = eng.register(make_orders())
    assert snap_same.version == 1
    # changed content: version bump
    snap2 = eng.register(make_orders(n=60))
    assert snap2.version == 2
    assert len(eng.lifecycle("orders").snapshots) == 2
    assert eng.snapshot("orders").profile.n_rows == 60


def test_unknown_dataset_raises():
    eng = MetadataEngine()
    with pytest.raises(DiscoveryError):
        eng.relation("ghost")


def test_access_quota():
    eng = MetadataEngine(access_quota=2)
    eng.register(make_orders())
    eng.register(make_customers())
    with pytest.raises(DiscoveryError):
        eng.register(make_unrelated())


def test_output_schema_relations():
    eng = MetadataEngine()
    eng.register_batch([make_orders(), make_customers()])
    out = eng.output_schema()
    assert set(out) == {"datasets", "columns", "snapshots"}
    datasets = {r["dataset"] for r in out["datasets"].to_dicts()}
    assert datasets == {"orders", "customers"}
    cols = out["columns"].where(dataset="orders")
    assert len(cols) == 3


def test_listeners_fire_on_new_snapshot():
    eng = MetadataEngine()
    events = []
    eng.subscribe(events.append)
    eng.register(make_orders())
    eng.register(make_orders())  # unchanged -> no event
    assert len(events) == 1


# -- index builder -------------------------------------------------------------


@pytest.fixture
def indexed():
    eng = MetadataEngine()
    eng.register_batch([make_orders(), make_customers(), make_unrelated()])
    return eng, IndexBuilder(eng)


def test_join_candidates_found(indexed):
    _eng, index = indexed
    cands = index.join_candidates(min_score=0.5)
    pairs = {
        frozenset([(c.left_dataset, c.left_column),
                   (c.right_dataset, c.right_column)])
        for c in cands
    }
    assert frozenset([("orders", "customer_id"),
                      ("customers", "customer_id")]) in pairs


def test_join_candidates_directional_view(indexed):
    _eng, index = indexed
    from_customers = index.join_candidates(dataset="customers")
    assert all(c.left_dataset == "customers" for c in from_customers)


def test_graph_and_path(indexed):
    _eng, index = indexed
    assert "weather" in index.graph
    path = hop_join_path(index, "orders", "customers")
    assert len(path) == 1
    step = path[0]
    assert step.left_dataset == "orders" and step.left_column == "customer_id"
    with pytest.raises(DiscoveryError):
        hop_join_path(index, "orders", "weather")
    with pytest.raises(DiscoveryError):
        hop_join_path(index, "orders", "ghost")


def test_neighbours(indexed):
    _eng, index = indexed
    assert index.neighbours("orders") == ["customers"]
    with pytest.raises(DiscoveryError):
        index.neighbours("ghost")


def test_index_refreshes_after_update(indexed):
    eng, index = indexed
    assert index.neighbours("weather") == []
    # a new dataset arrives that shares the station column
    stations = Relation(
        "stations",
        [Column("station", "str"), Column("lat", "float")],
        [(f"st{i}", 10.0 + i) for i in range(10)],
    )
    eng.register(stations)
    assert "stations" in index.neighbours("weather")


# -- discovery engine -----------------------------------------------------------


@pytest.fixture
def discovery(indexed):
    eng, index = indexed
    return DiscoveryEngine(eng, index)


def test_match_attribute_by_name(discovery):
    matches = discovery.match_attribute("amount")
    assert matches[0].dataset == "orders"
    assert matches[0].score == 1.0


def test_match_attribute_by_semantic(discovery):
    matches = discovery.match_attribute("customer")
    assert {m.dataset for m in matches} == {"orders", "customers"}
    assert all(m.score == 1.0 for m in matches)


def test_search_schema_ranks_by_coverage(discovery):
    hits = discovery.search_schema(["customer_id", "amount"])
    assert hits[0].dataset == "orders"
    assert hits[0].score > hits[-1].score or len(hits) == 1


def test_search_keyword_values(discovery):
    hits = discovery.search_keyword("oslo")
    assert hits and hits[0].dataset == "customers"


def test_cover_attributes_reports_gaps(discovery):
    cover = discovery.cover_attributes(["amount", "nonexistent_xyz"])
    assert cover["amount"] is not None
    assert cover["nonexistent_xyz"] is None
