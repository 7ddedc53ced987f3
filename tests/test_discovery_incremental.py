"""Incremental discovery pipeline: delta maintenance vs. the rebuild oracle.

The index builder's delta maintenance (LSH-bucketed neighbour re-scoring on
typed metadata deltas) must be observationally identical to the O(C²) full
rebuild it replaces (``oracles.indexing``): property-style sequences of
register/update/remove are replayed and every externally visible query —
ranked candidates, the join graph, join paths — is compared against a fresh
rebuild at each step.
"""

import random

import pytest

from oracles.indexing import rebuilt_index
from oracles.planning import hop_join_path
from repro.datagen import make_classification_world
from repro.discovery import (
    DiscoveryEngine,
    IndexBuilder,
    MetadataEngine,
)
from repro.discovery.search import _MATCH_CACHE_SIZE
from repro.errors import DiscoveryError, MarketError, SimulationError
from repro.market import internal_market
from repro.market.arbiter import Arbiter
from repro.relation import Column, Relation
from repro.simulator import simulate_market_deployment, uniform_values
from repro.sketches import LSHIndex, MinHash

NAMES = ["ds_a", "ds_b", "ds_c", "ds_d", "ds_e", "ds_f"]


def make_relation(name: str, rng: random.Random) -> Relation:
    """Random dataset exercising all three candidate signals: overlapping
    int keys (overlap), optional semantic tags (semantic), and a shared
    ``code`` column name with partial value overlap (name)."""
    n = rng.randrange(15, 35)
    start = rng.choice([0, 5, 10, 20, 40])
    tag = rng.choice(["entity", None])
    columns = [
        Column("entity_id", "int", tag),
        Column("code", "str"),
        Column("payload", "float"),
    ]
    rows = [
        (start + i, f"c{(start + i) % 25}", round(rng.random() * 100, 3))
        for i in range(n)
    ]
    return Relation(name, columns, rows)


def canonical_candidates(index: IndexBuilder) -> list[tuple]:
    return [
        (c.left_dataset, c.left_column, c.right_dataset, c.right_column,
         c.score, c.evidence)
        for c in index.join_candidates()
    ]


def canonical_graph(index: IndexBuilder) -> tuple[dict, set]:
    g = index.graph
    nodes = {n: g.nodes[n].get("n_rows") for n in g.nodes}
    # the multigraph carries every qualifying predicate as a parallel edge:
    # canonicalize the full edge *set*, directions included
    edges = {
        (tuple(sorted((u, v))), d["left_dataset"], d["pairs"], d["score"],
         d["evidence"], d["pk_side"])
        for u, v, d in g.edges(data=True)
    }
    return nodes, edges


def path_cost(path) -> float:
    return sum(1.0 - step.score for step in path)


def assert_equivalent(inc: IndexBuilder, oracle: IndexBuilder) -> None:
    assert canonical_candidates(inc) == canonical_candidates(oracle)
    assert canonical_graph(inc) == canonical_graph(oracle)
    datasets = sorted(inc.graph.nodes)
    for i, source in enumerate(datasets):
        for target in datasets[i + 1 :]:
            try:
                cost = path_cost(hop_join_path(oracle, source, target))
            except DiscoveryError:
                with pytest.raises(DiscoveryError):
                    hop_join_path(inc, source, target)
                continue
            # identical graphs guarantee identical optimal cost; the node
            # sequence itself may differ only between equally cheap ties
            assert path_cost(hop_join_path(inc, source, target)) == pytest.approx(
                cost, abs=1e-12
            )


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_incremental_matches_full_rebuild_over_random_lifecycles(seed):
    rng = random.Random(seed)
    eng = MetadataEngine(num_perm=16)
    inc = IndexBuilder(eng)
    live: set[str] = set()
    for _ in range(30):
        roll = rng.random()
        if not live or roll < 0.45:
            name = rng.choice(NAMES)
            eng.register(make_relation(name, rng))
            live.add(name)
        elif roll < 0.75:
            name = rng.choice(sorted(live))
            eng.register(make_relation(name, rng))
        else:
            name = rng.choice(sorted(live))
            eng.remove(name)
            live.discard(name)
        assert_equivalent(inc, rebuilt_index(eng))


def test_candidate_order_breaks_ties_on_column_names():
    # two column pairs of the same dataset pair with identical scores: the
    # ordering must be deterministic via the column-name tiebreak
    rows = [(i, i) for i in range(20)]
    left = Relation("left", [Column("k1", "int"), Column("k2", "int")], rows)
    right = Relation("right", [Column("k1", "int"), Column("k2", "int")], rows)
    eng = MetadataEngine(num_perm=16)
    inc = IndexBuilder(eng)
    eng.register_batch([left, right])
    cands = canonical_candidates(inc)
    assert cands == canonical_candidates(rebuilt_index(eng))
    equal_scores = [c for c in cands if c[4] == cands[0][4]]
    assert equal_scores == sorted(equal_scores)


# -- multigraph maintenance: multi-edges, composites, direction --------------


def two_key_relation(name: str, n: int, start: int = 0) -> Relation:
    """Two key-like columns shared across datasets: yields parallel edges
    plus a composite-key predicate between any pair."""
    frac = (sum(map(ord, name)) % 97) / 100  # payloads never overlap
    return Relation(
        name,
        [Column("order_key", "int"), Column("batch_code", "str"),
         Column(f"{name}_payload", "float")],
        [(start + i, f"b{start + i}", -(start + i) - frac)
         for i in range(n)],
    )


def test_multigraph_maintenance_matches_refresh_rebuild():
    """After update/remove deltas the incrementally patched multigraph —
    parallel edge sets, composite predicates, directions — must equal a
    from-scratch ``refresh()`` rebuild."""
    eng = MetadataEngine(num_perm=64)
    index = IndexBuilder(eng)
    eng.register(two_key_relation("sales", 30))
    eng.register(two_key_relation("returns", 30))
    eng.register(two_key_relation("audits", 24))  # subset: directed edges
    eng.register(two_key_relation("sales", 32))  # update delta
    eng.remove("returns")
    eng.register(two_key_relation("returns", 28, start=2))  # re-arrival
    incremental_view = (canonical_candidates(index), canonical_graph(index))
    index.refresh()  # the O(C²) from-scratch oracle build
    assert (canonical_candidates(index), canonical_graph(index)) == (
        incremental_view
    )
    # parallel edges: both single-column predicates and the composite
    evidences = {
        d["evidence"] for _u, _v, d in index.graph.edges(data=True)
    }
    assert "composite" in evidences and "overlap" in evidences
    composite = [
        d for _u, _v, d in index.graph.edges(data=True)
        if d["evidence"] == "composite"
    ]
    assert all(len(d["pairs"]) == 2 for d in composite)


def test_pk_fk_direction_inferred_and_maintained():
    eng = MetadataEngine(num_perm=256)
    index = IndexBuilder(eng)
    customers = Relation(
        "customers",
        [Column("customer_id", "int"), Column("city", "str")],
        [(i, "oslo" if i % 2 else "rome") for i in range(100)],
    )
    orders = Relation(
        "orders",
        [Column("customer_id", "int"), Column("amount", "float")],
        [(i, float(i)) for i in range(80)],
    )
    eng.register_batch([customers, orders])

    def candidates():
        return {
            (c.left_dataset, c.left_column, c.right_dataset, c.right_column):
                c
            for c in index.join_candidates(min_score=0.5)
        }

    # numerically equal values share one canonical token (``1 == 1.0``),
    # so orders.amount (float(i), i < 80) pairs with the key as well
    by_pair = candidates()
    key_pair = ("customers", "customer_id", "orders", "customer_id")
    assert set(by_pair) == {
        key_pair, ("customers", "customer_id", "orders", "amount"),
    }
    # orders.customer_id ⊆ customers'
    assert by_pair[key_pair].pk_side == "customers"
    (step,) = hop_join_path(index, "orders", "customers")
    assert step.pk_side == "customers"
    assert_equivalent(index, rebuilt_index(eng))
    # updated orders now carries the full key range: containment symmetric
    eng.register(Relation(
        "orders",
        [Column("customer_id", "int"), Column("amount", "float")],
        [(i, float(i)) for i in range(100)],
    ))
    by_pair = candidates()
    assert set(by_pair) == {
        key_pair, ("customers", "customer_id", "orders", "amount"),
    }
    assert by_pair[key_pair].pk_side is None
    assert_equivalent(index, rebuilt_index(eng))


def test_components_api_tracks_deltas():
    eng = MetadataEngine(num_perm=64)
    index = IndexBuilder(eng)
    eng.register(two_key_relation("a1", 25))
    eng.register(two_key_relation("a2", 25))
    eng.register(two_key_relation("b1", 25, start=9000))
    assert index.components() == (
        frozenset({"a1", "a2"}), frozenset({"b1"}),
    )
    assert index.reachable(["a1", "a2"])
    assert not index.reachable(["a1", "b1"])
    assert not index.reachable(["a1", "ghost"])
    assert index.component_of("ghost") is None
    # a bridge dataset spanning both key ranges merges the components
    bridge = Relation(
        "bridge",
        [Column("order_key", "int"), Column("batch_code", "str")],
        [(k, f"b{k}") for k in list(range(12)) + list(range(9000, 9012))],
    )
    eng.register(bridge)
    assert len(index.components()) == 1
    assert index.reachable(["a1", "b1"])
    eng.remove("bridge")
    assert index.components() == (
        frozenset({"a1", "a2"}), frozenset({"b1"}),
    )


# -- metadata deltas, removal, unsubscribe -----------------------------------


def sample_corpus():
    rng = random.Random(0)
    return [make_relation(name, rng) for name in NAMES[:3]]


def test_remove_prunes_engine_and_index():
    eng = MetadataEngine(num_perm=16)
    index = IndexBuilder(eng)
    a, b, c = sample_corpus()
    eng.register_batch([a, b, c])
    assert index.join_candidates(dataset=b.name)
    eng.remove(b.name)
    assert b.name not in eng
    assert b.name not in eng.datasets
    assert b.name not in index.graph
    assert not index.join_candidates(dataset=b.name)
    assert all(
        b.name not in (cand.left_dataset, cand.right_dataset)
        for cand in index.join_candidates()
    )
    with pytest.raises(DiscoveryError):
        eng.remove(b.name)
    with pytest.raises(DiscoveryError):
        eng.relation(b.name)


def test_remove_emits_typed_delta_and_updates_freshness():
    eng = MetadataEngine(num_perm=16)
    events = []
    eng.subscribe(events.append)
    a, b, _ = sample_corpus()
    eng.register(a)
    eng.register(b)
    assert [e.kind for e in events] == ["added", "added"]
    assert eng.newest_logical_time == 2
    delta = eng.remove(b.name)
    assert delta.kind == "removed" and delta.previous.dataset == b.name
    assert eng.newest_logical_time == 1
    eng.remove(a.name)
    assert eng.newest_logical_time == 0


def test_update_delta_carries_previous_snapshot():
    eng = MetadataEngine(num_perm=16)
    events = []
    eng.subscribe(events.append)
    rng = random.Random(5)
    eng.register(make_relation("ds_a", rng))
    eng.register(make_relation("ds_a", rng))
    assert events[1].kind == "updated"
    assert events[1].previous.version == 1
    assert events[1].snapshot.version == 2


def test_unsubscribe_detaches_listener():
    eng = MetadataEngine(num_perm=16)
    events = []
    token = eng.subscribe(events.append)
    rng = random.Random(1)
    eng.register(make_relation("ds_a", rng))
    eng.unsubscribe(token)
    eng.register(make_relation("ds_b", rng))
    assert len(events) == 1
    with pytest.raises(DiscoveryError):
        eng.unsubscribe(token)


def test_index_detach_freezes_index():
    eng = MetadataEngine(num_perm=16)
    index = IndexBuilder(eng)
    a, b, c = sample_corpus()
    eng.register_batch([a, b])
    before = canonical_candidates(index)
    index.detach()
    index.detach()  # idempotent
    eng.register(c)
    assert canonical_candidates(index) == before


def test_discovery_match_cache_invalidated_by_deltas():
    eng = MetadataEngine(num_perm=16)
    index = IndexBuilder(eng)
    discovery = DiscoveryEngine(eng, index)
    rng = random.Random(2)
    eng.register(make_relation("ds_a", rng))
    first = discovery.match_attribute("payload")
    assert {m.dataset for m in first} == {"ds_a"}
    # cached result must not leak mutations back into the cache
    first.clear()
    assert {m.dataset for m in discovery.match_attribute("payload")} == {"ds_a"}
    eng.register(make_relation("ds_b", rng))
    assert {m.dataset for m in discovery.match_attribute("payload")} == {
        "ds_a", "ds_b",
    }
    discovery.detach()
    discovery.detach()  # idempotent


def test_discovery_match_cache_kept_by_same_schema_update():
    """A match reads column names and semantic tags only: an update that
    keeps them keeps the memo, one that renames or retags a column
    clears it."""
    eng = MetadataEngine(num_perm=16)
    index = IndexBuilder(eng)
    discovery = DiscoveryEngine(eng, index)
    rng = random.Random(3)
    first = make_relation("ds_a", rng)
    eng.register(first)
    matches = discovery.match_attribute("payload")
    update = Relation(
        "ds_a", list(first.schema),
        [(k, c, p + 1.0) for k, c, p in first.rows],
    )
    delta = []
    eng.subscribe(delta.append)
    eng.register(update)
    assert delta[-1].keeps_columns
    assert ("payload", 0.55) in discovery._match_cache
    assert discovery.match_attribute("payload") == matches
    columns = list(first.schema)
    for renamed in (
        [columns[0], columns[1], Column("load", "float")],
        [Column("entity_id", "int", "other_tag"), *columns[1:]],
    ):
        eng.register(Relation("ds_a", renamed, update.rows))
        assert not delta[-1].keeps_columns
        assert discovery._match_cache == {}
        discovery.match_attribute("payload")
    assert {m.column for m in discovery.match_attribute("payload")} == {
        "payload"
    }


def test_discovery_match_cache_bounded():
    """The memo outlives same-schema updates, so it is bounded: many
    distinct attributes never grow it past ``_MATCH_CACHE_SIZE``."""
    eng = MetadataEngine(num_perm=16)
    index = IndexBuilder(eng)
    discovery = DiscoveryEngine(eng, index)
    eng.register(make_relation("ds_a", random.Random(4)))
    for i in range(2 * _MATCH_CACHE_SIZE + 3):
        discovery.match_attribute(f"attr{i}")
        assert 0 < len(discovery._match_cache) <= _MATCH_CACHE_SIZE
    assert [m.column for m in discovery.match_attribute("payload")] == [
        "payload"
    ]


# -- profiler: per-column reuse across versions ------------------------------


def test_profile_reuses_unchanged_columns_across_versions():
    rows = [(i, f"c{i}", float(i)) for i in range(25)]
    columns = [
        Column("entity_id", "int"), Column("code", "str"),
        Column("payload", "float"),
    ]
    eng = MetadataEngine(num_perm=16)
    snap1 = eng.register(Relation("ds", columns, rows))
    # only payload changes; entity_id and code keep their values
    changed = [(i, f"c{i}", float(i) + 0.5) for i in range(25)]
    snap2 = eng.register(Relation("ds", columns, changed))
    assert snap2.version == 2
    assert snap2.profile.column("entity_id") is snap1.profile.column("entity_id")
    assert snap2.profile.column("code") is snap1.profile.column("code")
    assert snap2.profile.column("payload") is not snap1.profile.column("payload")


# -- LSH index maintenance ---------------------------------------------------


def test_lsh_remove_and_readd():
    index = LSHIndex(num_perm=16, bands=16)
    sig_a = MinHash.of(range(50), num_perm=16)
    sig_b = MinHash.of(range(25, 75), num_perm=16)
    index.add("a", sig_a)
    index.add("b", sig_b)
    assert "b" in {k for k in index.candidates(sig_a)}
    index.remove("b")
    assert "b" not in index
    assert index.candidates(sig_a) == {"a"}
    with pytest.raises(KeyError):
        index.remove("b")
    index.add("b", sig_b)  # re-adding after removal is legal
    assert len(index) == 2
    assert index.query(sig_b)[0][0] == "b"


# -- market layers: retirement mid-deployment --------------------------------


def world_datasets():
    world = make_classification_world(
        n_entities=60, feature_weights=(1.0, 1.0),
        dataset_features=((0,), (1,)), seed=61,
    )
    return world.datasets


def test_arbiter_retire_dataset():
    arbiter = Arbiter(internal_market())
    a, b = world_datasets()
    arbiter.accept_dataset(a, seller="s0")
    arbiter.accept_dataset(b, seller="s1")
    arbiter.retire_dataset(b.name)
    assert b.name not in arbiter.builder.datasets
    assert a.name in arbiter.builder.datasets
    assert b.name not in arbiter.licenses
    with pytest.raises(MarketError):
        arbiter.retire_dataset("ghost")


def test_arbiter_reaccept_after_retire_and_update():
    arbiter = Arbiter(internal_market())
    a, b = world_datasets()
    arbiter.accept_dataset(a, seller="s0")
    # same seller re-accepting is an update, not an error
    arbiter.accept_dataset(a, seller="s0", reserve_price=2.0)
    assert arbiter.builder.metadata.snapshot(a.name).version == 1  # unchanged
    # another seller may not hijack the name
    with pytest.raises(MarketError):
        arbiter.accept_dataset(a, seller="s1")
    assert a.name in arbiter.builder.datasets  # rejected before state moved
    # after retirement the name is free again
    arbiter.retire_dataset(a.name)
    arbiter.accept_dataset(a.renamed(a.name), seller="s1")
    assert arbiter.licenses.owner_of(a.name) == "s1"
    arbiter.accept_dataset(b, seller="s0")
    assert set(arbiter.builder.datasets) == {a.name, b.name}


def test_fullstack_arrivals_and_departures():
    datasets = world_datasets()
    late = datasets[1].renamed("late_arrival")
    result = simulate_market_deployment(
        internal_market(),
        datasets,
        wanted_attributes=["f0", "f1"],
        value_sampler=uniform_values(10, 100),
        strategy_mix={"truthful": 1.0},
        n_buyers=4,
        n_rounds=4,
        seed=3,
        departures={2: [datasets[1].name]},
        arrivals={2: [late]},
    )
    assert result.rounds == 4
    # the late arrival's seller joined the balance sheet
    assert set(result.seller_balances) == {"seller_0", "seller_1", "seller_2"}
    assert result.transactions > 0


def test_fullstack_rejects_bad_schedules():
    datasets = world_datasets()

    def run(**schedule):
        return simulate_market_deployment(
            internal_market(),
            datasets,
            wanted_attributes=["f0"],
            value_sampler=uniform_values(10, 100),
            strategy_mix={"truthful": 1.0},
            n_buyers=2,
            n_rounds=6,
            **schedule,
        )

    late = datasets[1].renamed("late_arrival")
    with pytest.raises(SimulationError):
        run(departures={1: ["ghost"]})
    with pytest.raises(SimulationError):  # departs before it arrives
        run(arrivals={4: [late]}, departures={2: ["late_arrival"]})
    with pytest.raises(SimulationError):  # same round: departures run first
        run(arrivals={2: [late]}, departures={2: ["late_arrival"]})
    with pytest.raises(SimulationError):  # name clash with a live dataset
        run(arrivals={1: [datasets[0].renamed(datasets[0].name)]})
    # depart-then-rearrive with the same name is a legal lifecycle
    result = run(
        departures={1: [datasets[1].name]},
        arrivals={3: [datasets[1].renamed(datasets[1].name)]},
    )
    assert result.rounds == 6
