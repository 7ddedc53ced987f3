"""Durable-store round trips: register → persist → cold-start replay.

The property under test is *bit-identical replay*: a market cold-started
from the store must answer exactly like the process that wrote it — same
``graph_version``, same column profiles (signatures included), same join
candidates and graph edges with their fan-out estimates, same search and
plan results.  Plus the service reads the store answers directly:
keyset-cursor listing and FTS dataset search.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataMarket
from repro.errors import InvalidRequestError
from repro.market.licensing import (
    ContextualIntegrityPolicy,
    License,
    LicenseKind,
)
from repro.platform import MarketStore, StoreError
from repro.relation import Column, Relation


def make_corpus(seed: int = 0, n_rows: int = 40):
    """A joinable corpus with mixed dtypes, NULLs and semantic tags."""
    rng = np.random.default_rng(seed)
    orders = Relation(
        "orders",
        [Column("order_id", "int"), Column("cust_id", "int"),
         Column("total", "float", semantic="price"),
         Column("rush", "bool")],
        [
            (i, i % 7,
             None if i % 11 == 10 else float(rng.normal()) * 10.0,
             bool(i % 2))
            for i in range(n_rows)
        ],
    )
    customers = Relation(
        "customers",
        [Column("cust_id", "int"), Column("name", "str"),
         Column("city", "str", semantic="location")],
        [(i, f"name{i}", f"city{i % 3}") for i in range(7)],
    )
    cities = Relation(
        "cities",
        [Column("city", "str"), Column("population", "int")],
        [(f"city{i}", 1000 * (i + 1)) for i in range(3)],
    )
    return [orders, customers, cities]


def seeded_store_market(tmp_path, seed: int = 0):
    path = tmp_path / "market.db"
    market = DataMarket(store=str(path))
    for rel in make_corpus(seed):
        market.register_dataset(rel, seller="acme", reserve_price=2.0)
    return market, path


def profile_record(market, dataset):
    """Comparable full rendering of one dataset's profile state."""
    profile = market.metadata.snapshot(dataset).profile
    return [
        (
            cp.dataset, cp.column, cp.dtype, cp.semantic,
            cp.distinct_fraction, cp.content_hash,
            cp.signature.num_perm, cp.signature.seed, cp.signature.count,
            tuple(int(v) for v in cp.signature.signature),
            None if cp.numeric is None else cp.numeric.to_dict(),
            cp.categorical.to_dict(),
        )
        for cp in profile.columns
    ]


# ---------------------------------------------------------------------------
# cold-start replay is bit-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cold_start_replay_is_bit_identical(tmp_path, seed):
    live, path = seeded_store_market(tmp_path, seed)
    replayed = DataMarket(store=str(path))

    assert replayed.graph_version == live.graph_version
    assert replayed.datasets == live.datasets
    for ds in live.datasets:
        assert profile_record(replayed, ds) == profile_record(live, ds)
        assert (
            replayed.metadata.relation(ds).rows
            == live.metadata.relation(ds).rows
        )
        assert replayed.index.dataset_candidates(ds) == \
            live.index.dataset_candidates(ds)
        assert replayed.index.dataset_edges(ds) == \
            live.index.dataset_edges(ds)
    assert (
        replayed.index.component_fingerprints()
        == live.index.component_fingerprints()
    )


@pytest.mark.parametrize("seed", [0, 3])
def test_replayed_search_and_plan_answers_match(tmp_path, seed):
    live, path = seeded_store_market(tmp_path, seed)
    replayed = DataMarket(store=str(path))
    attrs = ["total", "name", "population"]

    s_live = live.search(attrs)
    s_new = replayed.search(attrs)
    assert s_live.as_of == s_new.as_of
    assert s_live.hits == s_new.hits

    p_live = live.plan(attrs)
    p_new = replayed.plan(attrs)
    assert p_live.as_of == p_new.as_of
    assert len(p_live.mashups) == len(p_new.mashups)
    for a, b in zip(p_live.mashups, p_new.mashups):
        assert a.plan.describe() == b.plan.describe()
        assert a.relation.rows == b.relation.rows


def test_updates_and_retires_replay_to_final_state(tmp_path):
    live, path = seeded_store_market(tmp_path)
    orders2 = Relation(
        "orders",
        [Column("order_id", "int"), Column("cust_id", "int"),
         Column("total", "float", semantic="price")],
        [(i, i % 7, float(i)) for i in range(25)],
    )
    live.update_dataset(orders2, "acme", reserve_price=9.0)
    live.retire_dataset("cities")

    replayed = DataMarket(store=str(path))
    assert replayed.graph_version == live.graph_version
    assert replayed.datasets == ["customers", "orders"]
    assert replayed.metadata.snapshot("orders").version == 2
    assert replayed.arbiter.reserve_price_of("orders") == 9.0
    for ds in replayed.datasets:
        assert profile_record(replayed, ds) == profile_record(live, ds)


def test_an_unchanged_update_keeps_the_stored_rows(tmp_path):
    """An update whose content equals the live one (here the same rows
    in another order) keeps the rows already held, and the store keeps
    matching memory."""
    live, path = seeded_store_market(tmp_path)
    cities = live.metadata.relation("cities")
    reordered = Relation("cities", cities.schema, cities.rows[::-1])
    live.update_dataset(reordered, "acme", reserve_price=7.0)
    assert live.metadata.relation("cities") is cities
    replayed = DataMarket(store=str(path))
    assert replayed.metadata.relation("cities").rows == cities.rows
    assert replayed.arbiter.reserve_price_of("cities") == 7.0
    assert replayed.metadata.snapshot("cities").version == 1


def test_license_and_policy_round_trip(tmp_path):
    path = tmp_path / "market.db"
    market = DataMarket(store=str(path))
    license = License(
        kind=LicenseKind.EXCLUSIVE, exclusivity_tax_rate=0.4,
        max_licensees=2,
    )
    policy = ContextualIntegrityPolicy.of("research", "audit")
    market.register_dataset(
        make_corpus()[0], seller="acme",
        reserve_price=5.0, license=license, policy=policy,
    )
    replayed = DataMarket(store=str(path))
    assert replayed.licenses.license_of("orders") == license
    assert replayed.licenses.policy_of("orders") == policy
    assert replayed.licenses.owner_of("orders") == "acme"
    assert replayed.arbiter.reserve_price_of("orders") == 5.0


def test_tuple_cells_round_trip_as_tuples(tmp_path):
    path = tmp_path / "market.db"
    market = DataMarket(store=str(path))
    fused = Relation(
        "fused",
        [Column("k", "int"), Column("blob", "any")],
        [(i, ("multi", i, [i, (i,)])) for i in range(12)],
    )
    market.register_dataset(fused, seller="acme")
    replayed = DataMarket(store=str(path))
    rows = replayed.metadata.relation("fused").rows
    assert rows == fused.rows
    for _, blob in rows:
        assert type(blob) is tuple
        assert type(blob[2]) is list and type(blob[2][1]) is tuple


def _replace_relation_json(path, value) -> None:
    import sqlite3

    conn = sqlite3.connect(path)
    conn.execute("UPDATE datasets SET relation_json = ?", (value,))
    conn.commit()
    conn.close()


class _CreatesFile:
    """Unpickling this creates ``path``: stands in for any code a pickle
    can run."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


@pytest.mark.parametrize("relation_json", [
    # an unknown cell tag
    '{"name":"cities","columns":[["city","any",null]],'
    '"rows":[[{"frozenset":["a"]}]]}',
    # a payload named for another dataset
    '{"name":"towns","columns":[["city","str",null]],"rows":[["a"]]}',
    # not JSON
    "city0,1000",
])
def test_undecodable_relation_fails_cold_start(tmp_path, relation_json):
    path = tmp_path / "market.db"
    DataMarket(store=str(path)).register_dataset(
        make_corpus()[2], seller="acme"
    )
    _replace_relation_json(path, relation_json)
    with pytest.raises(StoreError, match="'cities'"):
        DataMarket(store=str(path))


def test_stored_pickle_runs_no_code(tmp_path):
    import pickle

    path = tmp_path / "market.db"
    marker = tmp_path / "created-by-pickle"
    DataMarket(store=str(path)).register_dataset(
        make_corpus()[2], seller="acme"
    )
    payload = pickle.dumps(_CreatesFile(marker), protocol=4)
    _replace_relation_json(path, payload)
    with pytest.raises(StoreError, match="'cities'"):
        DataMarket(store=str(path))
    assert not marker.exists()
    pickle.loads(payload).close()  # the payload really runs code
    assert marker.exists()


# ---------------------------------------------------------------------------
# plan-cache persistence
# ---------------------------------------------------------------------------

def test_plan_cache_replays_warm(tmp_path):
    live, path = seeded_store_market(tmp_path)
    attrs = ["total", "name"]
    cold = live.plan(attrs)
    assert cold.cached is False
    live.persist_plan_cache()

    replayed = DataMarket(store=str(path))
    warm = replayed.plan(attrs)
    assert warm.cached is True
    assert warm.as_of == cold.as_of
    for a, b in zip(cold.mashups, warm.mashups):
        assert a.plan.describe() == b.plan.describe()
        assert a.relation.rows == b.relation.rows


def test_stale_plan_cache_rows_are_pruned_by_later_deltas(tmp_path):
    live, path = seeded_store_market(tmp_path)
    live.plan(["total", "name"])
    live.persist_plan_cache()
    stale_version = live.graph_version
    live.register_dataset(
        Relation("extra", [Column("cust_id", "int")],
                 [(i,) for i in range(7)]),
        seller="acme",
    )
    assert live.graph_version > stale_version
    replayed = DataMarket(store=str(path))
    # the delta pruned the stale rows; the replayed cache starts cold
    assert replayed.plan(["total", "name"]).cached is False


# ---------------------------------------------------------------------------
# service reads
# ---------------------------------------------------------------------------

def test_keyset_cursor_listing_pages_without_overlap(tmp_path):
    live, path = seeded_store_market(tmp_path)
    store = live.store
    seen, cursor, pages = [], None, 0
    while True:
        page, cursor = store.list_datasets(limit=2, cursor=cursor)
        seen.extend(r["dataset"] for r in page)
        pages += 1
        if cursor is None:
            break
        assert len(page) == 2
    assert pages >= 2
    assert sorted(seen) == live.datasets
    assert len(seen) == len(set(seen))
    times = None
    page, _ = store.list_datasets(limit=10)
    times = [r["logical_time"] for r in page]
    assert times == sorted(times)


def test_malformed_cursor_rejected(tmp_path):
    # typed InvalidRequestError (not StoreError/sqlite) so the HTTP
    # gateway can map listing misuse to 422 instead of a 503
    live, _ = seeded_store_market(tmp_path)
    with pytest.raises(InvalidRequestError):
        live.store.list_datasets(cursor="not-a-cursor")
    with pytest.raises(InvalidRequestError):
        live.store.list_datasets(limit=0)
    with pytest.raises(InvalidRequestError):
        live.store.list_datasets(limit="10")
    with pytest.raises(InvalidRequestError):
        live.store.list_datasets(cursor="not-an-int|x", sort="registered")
    with pytest.raises(InvalidRequestError):
        live.store.list_datasets(cursor="not-a-float|x", sort="reserve")


def test_unknown_sort_key_rejected(tmp_path):
    live, _ = seeded_store_market(tmp_path)
    with pytest.raises(InvalidRequestError, match="unknown sort key"):
        live.store.list_datasets(sort="sellerz")


def test_sorted_listing_orders_and_pages(tmp_path):
    live, _ = seeded_store_market(tmp_path)
    store = live.store

    def drain(sort: str, limit: int = 2) -> list[dict]:
        rows, cursor = [], None
        while True:
            page, cursor = store.list_datasets(
                limit=limit, cursor=cursor, sort=sort
            )
            rows.extend(page)
            if cursor is None:
                return rows

    by_name = drain("name")
    assert [r["dataset"] for r in by_name] == sorted(live.datasets)
    by_rows = drain("rows")
    assert [r["rows"] for r in by_rows] == sorted(r["rows"] for r in by_rows)
    by_reserve = drain("reserve")
    reserves = [r["reserve_price"] for r in by_reserve]
    assert reserves == sorted(reserves)
    # every order lists each dataset exactly once
    for rows in (by_name, by_rows, by_reserve):
        names = [r["dataset"] for r in rows]
        assert sorted(names) == sorted(live.datasets)


def test_fts_search_finds_by_column_and_semantic(tmp_path):
    live, _ = seeded_store_market(tmp_path)
    store = live.store
    if not store.has_fts:
        pytest.skip("linked sqlite lacks FTS5")
    assert [h["dataset"] for h in store.search_datasets("population")] \
        == ["cities"]
    hits = {h["dataset"] for h in store.search_datasets("location")}
    assert hits == {"customers"}  # semantic tag, not a column name
    assert store.search_datasets("no_such_token") == []
    # quoting: a query with FTS operators must not raise
    assert isinstance(store.search_datasets('city AND "x'), list)


@pytest.mark.parametrize("limit", [-1, 0, "10", True])
def test_text_search_limit_rejected_before_sql(tmp_path, limit):
    # SQLite reads LIMIT -1 as "no limit" and LIMIT 0 as an empty page;
    # both are misuse, refused like list_datasets refuses them
    live, _ = seeded_store_market(tmp_path)
    with pytest.raises(InvalidRequestError, match="positive integer"):
        live.store.search_datasets("acme", limit=limit)
    assert len(live.store.search_datasets("acme", limit=1)) == 1


def test_schema_version_mismatch_refused(tmp_path):
    """A store of the previous layouts (schema 5: pickled rows; schema 4:
    row-order content hashes and an LSH bucket table) is refused like one
    of an unknown version."""
    import sqlite3

    for version in ("4", "5", "999"):
        path = tmp_path / f"market{version}.db"
        MarketStore(path)
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
            (version,),
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match=f"schema version {version}"):
            MarketStore(path)
