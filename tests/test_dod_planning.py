"""Join-graph-aware DoD planning: beam search vs. the exhaustive oracle.

The component-pruned best-first planner must return exactly the same
ranked mashups — same scores, same join shapes — as the old
``itertools.product`` sweep it replaces, which ``oracles.planning`` keeps
as the reference (:class:`ExhaustiveDoDEngine`).  Mirroring the lifecycle-replay
style of ``tests/test_discovery_incremental.py``, randomized corpora are
churned through register/update/remove deltas and both planners are compared
after every step, while doing strictly less scoring work on the beam side.
"""

import random

import pytest

from oracles.planning import ExhaustiveDoDEngine, install_planner
from repro.discovery import DiscoveryEngine, IndexBuilder, MetadataEngine
from repro.integration import DoDEngine, MashupRequest
from repro.mashup import MashupBuilder
from repro.relation import Column, Relation

ATTRS = ["alpha", "beta", "gamma"]
NAMES = ["ds_a", "ds_b", "ds_c", "ds_d", "ds_e", "ds_f", "ds_g"]
#: entity_id ranges per cluster never overlap, and semantic tags are
#: cluster-scoped, so the relationship graph splits into components
CLUSTER_STARTS = ([0, 12, 30], [5000, 5015])


def make_relation(name: str, rng: random.Random) -> Relation:
    cluster = rng.randrange(len(CLUSTER_STARTS))
    start = rng.choice(CLUSTER_STARTS[cluster])
    n = rng.randrange(18, 36)
    tag = f"entity{cluster}" if rng.random() < 0.4 else None
    columns = [Column("entity_id", "int", tag)]
    for attr in sorted(rng.sample(ATTRS, k=rng.randrange(1, 3))):
        # occasional near-miss names give the planner score diversity
        column = attr + "2" if rng.random() < 0.3 else attr
        columns.append(Column(column, "float"))
    rows = [
        (start + i,
         *[round(rng.random() * 50, 3) for _ in range(len(columns) - 1)])
        for i in range(n)
    ]
    return Relation(name, columns, rows)


def make_request(rng: random.Random) -> MashupRequest:
    wanted = sorted(rng.sample(ATTRS, k=rng.randrange(1, 3)))
    return MashupRequest(attributes=wanted, key="entity_id")


def canonical_mashups(dod: DoDEngine, request: MashupRequest) -> list[tuple]:
    mashups = dod.build_mashups(request)
    return [
        (m.plan.describe(), sorted(m.matched.items()), m.missing,
         len(m.relation))
        for m in mashups
    ]


def planner_pair(engine: MetadataEngine):
    """Beam planner and exhaustive oracle over one shared discovery stack."""
    index = IndexBuilder(engine)
    discovery = DiscoveryEngine(engine, index)
    beam = DoDEngine(engine, index, discovery)
    oracle = ExhaustiveDoDEngine(engine, index, discovery)
    return beam, oracle


def assert_planners_agree(beam, oracle, request) -> None:
    got = canonical_mashups(beam, request)
    want = canonical_mashups(oracle, request)
    assert got == want
    assert (
        beam.last_stats.assignments_scored
        <= oracle.last_stats.assignments_scored
    )


@pytest.mark.parametrize("seed", [3, 17, 59])
def test_beam_matches_oracle_over_random_lifecycles(seed):
    rng = random.Random(seed)
    engine = MetadataEngine(num_perm=16)
    beam, oracle = planner_pair(engine)
    live: set[str] = set()
    for _ in range(25):
        roll = rng.random()
        if not live or roll < 0.5:
            name = rng.choice(NAMES)
            engine.register(make_relation(name, rng))
            live.add(name)
        elif roll < 0.8:
            engine.register(make_relation(rng.choice(sorted(live)), rng))
        else:
            name = rng.choice(sorted(live))
            engine.remove(name)
            live.discard(name)
        assert_planners_agree(beam, oracle, make_request(rng))


def test_component_pruning_counts_disconnected_assignments():
    """With attribute coverage split across two disconnected clusters, the
    beam planner must prune cross-cluster assignments before scoring."""
    engine = MetadataEngine(num_perm=16)
    beam, oracle = planner_pair(engine)
    for cluster, start in enumerate((0, 9000)):
        for j in range(2):
            rows = [
                (start + i, float(start + i) + 0.5, float(start + i) * 2.0)
                for i in range(25)
            ]
            engine.register(Relation(
                f"c{cluster}_{j}",
                [Column("entity_id", "int"), Column("alpha", "float"),
                 Column("beta", "float")],
                rows,
            ))
    assert len(beam.index.components()) == 2
    request = MashupRequest(attributes=["alpha", "beta"], key="entity_id")
    assert_planners_agree(beam, oracle, request)
    assert beam.last_stats.pruned_disconnected > 0


def test_equal_score_plans_are_deterministic():
    """Tie-rich corpus: identical twin datasets force equal-score plans;
    rebuilding the whole stack must reproduce the exact plan order."""

    def build():
        engine = MetadataEngine(num_perm=16)
        beam, oracle = planner_pair(engine)
        rows = [(i, float(i), float(2 * i)) for i in range(30)]
        columns = [Column("entity_id", "int"), Column("alpha", "float"),
                   Column("beta", "float")]
        for name in ("twin_b", "twin_a", "twin_c"):
            engine.register(Relation(name, columns, rows))
        request = MashupRequest(
            attributes=["alpha", "beta"], key="entity_id", max_results=5
        )
        return (
            canonical_mashups(beam, request),
            canonical_mashups(oracle, request),
        )

    first_beam, first_oracle = build()
    second_beam, second_oracle = build()
    assert first_beam == second_beam == first_oracle == second_oracle
    # equal-score ties resolve toward the lexicographically first dataset
    assert "twin_a" in first_beam[0][0].splitlines()[0]


def test_composite_key_join_step():
    """Two datasets sharing two key-like columns join on the composite
    predicate, and the plan carries the multi-column step."""
    n = 30
    sales = Relation(
        "sales",
        [Column("order_key", "int"), Column("batch_code", "str"),
         Column("amount", "float")],
        [(i, f"b{i}", float(i) * 1.5) for i in range(n)],
    )
    returns = Relation(
        "returns",
        [Column("order_key", "int"), Column("batch_code", "str"),
         Column("reason", "str")],
        [(i, f"b{i}", "damaged" if i % 2 else "late") for i in range(n)],
    )
    builder = MashupBuilder()
    builder.add_dataset(sales)
    builder.add_dataset(returns)
    mashups = builder.build(
        MashupRequest(attributes=["amount", "reason"], key="order_key")
    )
    assert mashups
    joined = next(m for m in mashups if m.plan.joins)
    step = joined.plan.joins[0]
    assert step.extra_on  # composite predicate: more than one column pair
    assert {frozenset(p) for p in step.pairs} == {
        frozenset(("sales__order_key", "returns__order_key")),
        frozenset(("sales__batch_code", "returns__batch_code")),
    }
    assert " and " in step.describe()
    assert len(joined.relation) == n


def test_misaligned_composite_falls_back_to_primary_pair():
    """A second key-like column pair whose value sets overlap but whose
    rows are misaligned makes the composite AND-join empty; the planner
    must fall back to the single-column join instead of losing the mashup."""
    n = 30
    left = Relation(
        "left",
        [Column("id", "int"), Column("code", "int"), Column("price", "float")],
        [(i, i, float(i)) for i in range(n)],
    )
    right = Relation(
        "right",
        # same code value *set*, shifted one row: set overlap 1.0, but the
        # conjunction id=id AND code=code matches nothing
        [Column("id", "int"), Column("code", "int"), Column("qty", "float")],
        [(i, (i + 1) % n, float(i) * 2.0) for i in range(n)],
    )
    for exhaustive in (False, True):
        builder = MashupBuilder()
        if exhaustive:
            install_planner(builder, ExhaustiveDoDEngine)
        builder.add_dataset(left)
        builder.add_dataset(right)
        mashups = builder.build(
            MashupRequest(attributes=["price", "qty"], key="id")
        )
        assert mashups, "misaligned composite must not lose the mashup"
        joined = next(m for m in mashups if m.plan.joins)
        assert len(joined.relation) == n
        # the delivered plan degraded to single-column join steps
        assert all(not step.extra_on for step in joined.plan.joins)


def test_builder_and_fullstack_expose_planner_choice(monkeypatch):
    """The oracle planner swaps into a builder, and a full-stack market
    deployment clears identically under either planner."""
    from repro import DataMarket
    from repro.datagen import make_classification_world
    from repro.market import internal_market
    from repro.simulator import (
        fullstack,
        simulate_market_deployment,
        uniform_values,
    )

    builder = MashupBuilder()
    assert isinstance(
        install_planner(builder, ExhaustiveDoDEngine), ExhaustiveDoDEngine
    )
    assert builder.dod.engine is builder.metadata

    deployed = []

    def exhaustive_market(design):
        market = DataMarket(design)
        install_planner(market.builder, ExhaustiveDoDEngine)
        deployed.append(market)
        return market

    world = make_classification_world(
        n_entities=40, feature_weights=(1.0, 1.0),
        dataset_features=((0,), (1,)), seed=11,
    )
    results = {}
    for planner in ("beam", "exhaustive"):
        if planner == "exhaustive":
            monkeypatch.setattr(fullstack, "DataMarket", exhaustive_market)
        result = simulate_market_deployment(
            internal_market(),
            world.datasets,
            wanted_attributes=["f0", "f1"],
            value_sampler=uniform_values(10, 100),
            strategy_mix={"truthful": 1.0},
            n_buyers=3,
            n_rounds=2,
            seed=5,
        )
        results[planner] = (
            result.revenue, result.transactions, result.welfare
        )
    # planner choice must not change market outcomes, only planning work
    assert results["beam"] == results["exhaustive"]
    assert [type(m.planner) for m in deployed] == [ExhaustiveDoDEngine]
