"""Planner memos outlive exactly the deltas that cannot change them.

The attribute-match memo (``DiscoveryEngine``) reads column names and
semantic tags only; the join-path and step memos (``DoDEngine``) read only
their start dataset's component; a plan-cache entry reads the components
of every dataset matching its attributes.  Over a seeded stream of deltas
against a market of several components — same-schema updates, renamed
columns, retagged columns, registrations, retirements, and a bridge
dataset that merges two components — every live ``plan()``/``search()``
answer must equal the answer of a planner that holds no memo at all, and
the path and step memos must hold only live component fingerprints.
"""

from __future__ import annotations

import random

import pytest

from repro import DataMarket, internal_market
from repro.discovery import DiscoveryEngine
from repro.integration import DoDEngine, MashupRequest
from repro.relation import Column, Relation

#: per component: its key column and the offset of its disjoint key domain
KEYS = {"user": ("userkey", 0), "grid": ("gridref", 10_000)}
N_ROWS = 24
REQUESTS = [
    (("user0", "user2"), "userkey"),
    (("grid1", "grid3"), "gridref"),
    (("user1", "grid1"), None),
]


def make_ds(stem: str, i: int, seed: int, names=None, tag=None) -> Relation:
    """Dataset ``i`` of component ``stem``: the stem's key plus two float
    attributes, named ``{stem}{i}`` and ``{stem}{i + 1}`` unless given."""
    key, offset = KEYS[stem]
    rng = random.Random(seed)
    first, second = names or (f"{stem}{i}", f"{stem}{i + 1}")
    return Relation(
        f"{stem}_ds{i}",
        [Column(key, "int"), Column(first, "float", tag),
         Column(second, "float")],
        [(offset + k, rng.random(), rng.random()) for k in range(N_ROWS)],
    )


def bridge() -> Relation:
    """Joins both key domains, so registering it merges the components."""
    return Relation(
        "bridge",
        [Column("ukey", "int"), Column("gref", "int")],
        [(k, 10_000 + k) for k in range(N_ROWS)],
    )


def canonical(mashups) -> list:
    return [
        (m.plan, sorted(m.matched.items()), m.missing,
         sorted(map(repr, m.relation.rows)))
        for m in mashups
    ]


def memo_free(market: DataMarket, attrs, key):
    """``plan``/``search`` answered by a fresh discovery and planner over
    the same indexes: no match, path, step or plan memo carried over."""
    b = market.builder
    discovery = DiscoveryEngine(b.metadata, b.index, subscribe=False)
    dod = DoDEngine(b.metadata, b.index, discovery, plan_cache=False)
    request = MashupRequest(attributes=list(attrs), key=key)
    return (
        canonical(dod.build_mashups(request)),
        tuple(discovery.search_schema(list(attrs))),
    )


def assert_memos_live(market: DataMarket) -> None:
    live = market.index.component_fingerprint_set()
    planner = market.planner
    assert all(fp in live for fp, _path in planner._path_cache.values())
    assert all(e[0] in live for e in planner._step_cache.values())
    assert all(
        e.fingerprints <= live for e in planner._plan_cache.values()
    )


KINDS = ("update", "rename", "retag", "register", "retire", "bridge")


def apply_delta(market: DataMarket, rng: random.Random, kind: str,
                step: int) -> None:
    """Apply one delta of ``kind`` to a dataset drawn by ``rng``."""
    live = [d for d in market.datasets if d != "bridge"]
    if kind == "register" or len(live) < 3:
        stem, i = rng.choice(sorted(KEYS)), rng.randrange(5)
        relation = make_ds(stem, i, seed=step)
        if relation.name in market.datasets:
            market.update_dataset(relation, seller=f"s_{stem}")
        else:
            market.register_dataset(relation, seller=f"s_{stem}")
        return
    name = rng.choice(live)
    stem, i = name.split("_ds")[0], int(name.split("_ds")[1])
    if kind == "retire":
        market.retire_dataset(name)
    elif kind == "bridge":
        if "bridge" in market.datasets:
            market.retire_dataset("bridge")
        else:
            market.register_dataset(bridge(), seller="s_bridge")
    else:
        held = market.metadata.relation(name)
        names = tuple(held.schema.names[1:])
        tag = held.schema[names[0]].semantic
        if kind == "rename":
            names = (names[0], rng.choice([f"{stem}{i + 2}", f"{stem}x"]))
        elif kind == "retag":
            tag = rng.choice([None, f"{stem}0", "grid3"])
        market.update_dataset(
            make_ds(stem, i, seed=step, names=names, tag=tag),
            seller=f"s_{stem}",
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_live_answers_equal_memo_free_answers_under_churn(seed):
    rng = random.Random(seed)
    market = DataMarket(internal_market())
    for stem in sorted(KEYS):
        for i in range(3):
            market.register_dataset(
                make_ds(stem, i, seed=i), seller=f"s_{stem}"
            )
    stream = [k for _ in range(10) for k in rng.sample(KINDS, len(KINDS))]
    for step, kind in enumerate(stream):
        apply_delta(market, rng, kind, 100 + step)
        assert_memos_live(market)
        for attrs, key in REQUESTS:
            live = (
                canonical(market.plan(attrs, key=key).mashups),
                market.search(attrs).hits,
            )
            assert live == memo_free(market, attrs, key), (step, attrs)
        assert_memos_live(market)
    # the stream kept memos alive across deltas, not only rebuilt them
    assert market.plan_cache_stats.hits > 0


def test_bridge_merge_drops_paths_of_both_components():
    """Merging two components changes both fingerprints, so no path or
    step entry of either survives the bridge's registration; a delta in
    a third component after that keeps them all."""
    market = DataMarket(internal_market())
    for stem in sorted(KEYS):
        for i in range(3):
            market.register_dataset(
                make_ds(stem, i, seed=i), seller=f"s_{stem}"
            )
    for attrs, key in REQUESTS:
        market.plan(attrs, key=key)
    planner = market.planner
    assert planner._path_cache and planner._step_cache
    market.register_dataset(bridge(), seller="s_bridge")
    assert planner._path_cache == {} and planner._step_cache == {}
    for attrs, key in REQUESTS:
        market.plan(attrs, key=key)
    paths = dict(planner._path_cache)
    assert paths
    market.register_dataset(
        Relation("island", [Column("zz", "str")], [("x",), ("y",)]),
        seller="s_island",
    )
    assert planner._path_cache == paths


@pytest.mark.parametrize("plan_cache", [True, False])
def test_a_dataset_that_leaves_and_returns_is_planned_afresh(plan_cache):
    """Retiring a dataset and registering the same content again brings
    its component's fingerprint back, but its edges now point the other
    way (it registered last), so equal-cost predicates list their pairs
    in the other order.  No memo may carry the old orientation over,
    whether or not the planner sees the deltas."""
    left = Relation(
        "left",
        [Column("a", "int"), Column("b", "int"), Column("lval", "float")],
        [(k, 100 + k, float(k)) for k in range(N_ROWS)],
    )
    right = Relation(
        "right",
        [Column("c", "int"), Column("d", "int"), Column("rval", "float")],
        [(100 + k, k, float(-k)) for k in range(N_ROWS)],
    )
    market = DataMarket(internal_market(), plan_cache=plan_cache)
    market.register_dataset(left, seller="s")
    market.register_dataset(right, seller="s")
    before = canonical(market.plan(["lval", "rval"]).mashups)
    market.retire_dataset("left")
    market.register_dataset(left, seller="s")
    after = canonical(market.plan(["lval", "rval"]).mashups)
    assert after == memo_free(market, ["lval", "rval"], None)[0]
    assert after != before
