"""Component-scoped plan-cache invalidation, LRU bounds and accounting.

The cache no longer drops everything on any metadata delta: each entry is
keyed by the join-graph component fingerprints its result depended on
(:meth:`IndexBuilder.component_fingerprints`), so churn in unrelated
components leaves entries servable, while deltas touching a dependency —
including retirements and component merges — evict exactly the affected
entries.  A delta subscription additionally evicts entries whose
attributes a newly arrived column could match."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataMarket, internal_market
from repro.errors import IntegrationError
from repro.relation import Column, Relation

#: per-component name schemes chosen (and verified by the similarity
#: assertions below) so cross-stem column names score under every matching
#: threshold — retention must not hinge on luck
STEMS = ("user", "grid", "planet")
KEYS = {"user": "userkey", "grid": "gridref", "planet": "planetno"}
N_ROWS = 30


def make_ds(stem: str, i: int, seed: int = 0) -> Relation:
    """Component ``stem``: datasets share the ``KEYS[stem]`` key domain
    (disjoint across stems) plus two float attributes."""
    stem_index = STEMS.index(stem) if stem in STEMS else 9
    rng = np.random.default_rng(seed + 100 * i + 10_000 * stem_index)
    offset = stem_index * 10_000
    cols = [
        Column(KEYS[stem], "int"),
        Column(f"{stem}{i}", "float"),
        Column(f"{stem}{i + 1}", "float"),
    ]
    rows = [
        (offset + k, *(float(v) for v in rng.normal(size=2)))
        for k in range(N_ROWS)
    ]
    return Relation(f"{stem}_ds{i}", cols, rows)


def seeded_markets():
    cached = DataMarket(internal_market())
    uncached = DataMarket(internal_market(), plan_cache=False)
    for market in (cached, uncached):
        for stem in STEMS:
            for i in range(3):
                market.register_dataset(make_ds(stem, i), seller=f"s_{stem}")
    return cached, uncached


def canonical(result):
    return [
        (m.plan.describe(), sorted(m.matched.items()), m.missing,
         tuple(sorted(map(repr, m.relation.rows))))
        for m in result.mashups
    ]


ALPHA_REQ = dict(key="userkey")
ALPHA_ATTRS = ["user0", "user2"]


def plan_both(cached, uncached):
    pc = cached.plan(ALPHA_ATTRS, **ALPHA_REQ)
    pu = uncached.plan(ALPHA_ATTRS, **ALPHA_REQ)
    assert canonical(pc) == canonical(pu)
    return pc


# ---------------------------------------------------------------------------
# retention under disjoint-component churn
# ---------------------------------------------------------------------------

def test_cache_survives_unrelated_component_churn():
    cached, uncached = seeded_markets()
    first = plan_both(cached, uncached)
    assert first.cached is False
    # churn bravo/charlie: update, new arrival, retirement
    for market in (cached, uncached):
        market.update_dataset(make_ds("grid", 0, seed=9), seller="s_grid")
        market.register_dataset(make_ds("planet", 7), seller="s_planet")
        market.retire_dataset("grid_ds1")
    after = plan_both(cached, uncached)
    assert after.cached is True, "disjoint churn must not evict the entry"
    assert after.as_of > first.as_of
    stats = cached.plan_cache_stats
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.invalidations == 0


def test_retiring_dependency_invalidates_entry():
    cached, uncached = seeded_markets()
    plan_both(cached, uncached)
    for market in (cached, uncached):
        market.retire_dataset("user_ds1")
    after = plan_both(cached, uncached)
    assert after.cached is False
    assert cached.plan_cache_stats.invalidations == 1


def test_updating_dependency_invalidates_entry():
    cached, uncached = seeded_markets()
    plan_both(cached, uncached)
    for market in (cached, uncached):
        market.update_dataset(make_ds("user", 0, seed=5), seller="s_user")
    after = plan_both(cached, uncached)
    assert after.cached is False
    assert cached.plan_cache_stats.invalidations >= 1


def test_component_merge_detected_via_fingerprints():
    """A newcomer that joins the dependency component by pure value
    overlap (no attribute-name similarity, so the attribute scan stays
    silent) must still evict the entry: the component fingerprint changed
    and join paths may differ."""
    cached, uncached = seeded_markets()
    plan_both(cached, uncached)
    rng = np.random.default_rng(1)
    bridge = Relation(
        "zzz_bridge",
        [Column("zzzref", "int"), Column("zzzval", "float")],
        [(k, float(v)) for k, v in zip(range(N_ROWS), rng.normal(size=N_ROWS))],
    )  # zzzref values == userkey domain -> overlap edge into user component
    for market in (cached, uncached):
        market.register_dataset(bridge, seller="s_z")
    assert cached.index.component_of("zzz_bridge") == (
        cached.index.component_of("user_ds0")
    ), "bridge should have merged into the alpha component"
    after = plan_both(cached, uncached)
    assert after.cached is False
    assert cached.plan_cache_stats.invalidations == 1


def test_new_matching_column_in_foreign_component_evicts():
    """A dataset in a brand-new component whose column is named exactly
    like a cached attribute must evict that entry (it is a new candidate
    the cached result never saw)."""
    cached, uncached = seeded_markets()
    plan_both(cached, uncached)
    rng = np.random.default_rng(2)
    newcomer = Relation(
        "fresh_ds0",
        [Column("freshkey", "int"), Column("user0", "float")],
        [
            (50_000 + k, float(v))
            for k, v in zip(range(N_ROWS), rng.normal(size=N_ROWS))
        ],
    )
    for market in (cached, uncached):
        market.register_dataset(newcomer, seller="s_d")
    after = plan_both(cached, uncached)
    assert after.cached is False
    assert cached.plan_cache_stats.invalidations == 1


def test_stale_entry_leaves_the_cache_at_the_delta():
    """A delta that changes a dependency's fingerprint evicts the entry
    there, with its materialized mashups, not at the next lookup — an
    entry nobody asks for again must not wait for the LRU bound."""
    cached, _uncached = seeded_markets()
    cached.plan(ALPHA_ATTRS, **ALPHA_REQ)
    cached.plan(["grid0"], key="gridref")
    user_entry, grid_entry = cached.planner._plan_cache.values()
    cached.update_dataset(make_ds("user", 1, seed=4), seller="s_user")
    assert list(cached.planner._plan_cache.values()) == [grid_entry]
    assert cached.plan_cache_stats.invalidations == 1
    assert user_entry.fingerprints - cached.index.component_fingerprint_set()
    cached.retire_dataset("grid_ds2")
    assert cached.planner._plan_cache == {}
    assert cached.plan_cache_stats.invalidations == 2
    assert cached.plan_cache_stats.hits == 0


# ---------------------------------------------------------------------------
# LRU bound
# ---------------------------------------------------------------------------

def test_lru_bound_evicts_oldest_entry():
    market = DataMarket(internal_market(), plan_cache_size=2)
    for stem in STEMS:
        for i in range(2):
            market.register_dataset(make_ds(stem, i), seller=f"s_{stem}")
    requests = [
        (["user0"], "userkey"),
        (["grid0"], "gridref"),
        (["planet0"], "planetno"),
    ]
    for attrs, key in requests:
        assert market.plan(attrs, key=key).cached is False
    stats = market.plan_cache_stats
    assert stats.lru_evictions == 1
    # oldest (alpha) was evicted; the two newest are still hits
    assert market.plan(*requests[1][:1], key=requests[1][1]).cached is True
    assert market.plan(*requests[2][:1], key=requests[2][1]).cached is True
    assert market.plan(*requests[0][:1], key=requests[0][1]).cached is False
    assert market.plan_cache_stats.lru_evictions == 2  # bravo pushed out


def test_lru_hit_refreshes_recency():
    market = DataMarket(internal_market(), plan_cache_size=2)
    for stem in STEMS:
        market.register_dataset(make_ds(stem, 0), seller=f"s_{stem}")
    market.plan(["user0"], key="userkey")
    market.plan(["grid0"], key="gridref")
    assert market.plan(["user0"], key="userkey").cached is True  # refresh
    market.plan(["planet0"], key="planetno")  # evicts grid, not user
    assert market.plan(["user0"], key="userkey").cached is True
    assert market.plan(["grid0"], key="gridref").cached is False


def test_plan_cache_size_validated():
    with pytest.raises(IntegrationError):
        DataMarket(internal_market(), plan_cache_size=0)


# ---------------------------------------------------------------------------
# accounting + lifecycle
# ---------------------------------------------------------------------------

def test_stats_accounting_under_mixed_churn():
    cached, uncached = seeded_markets()
    plan_both(cached, uncached)                      # miss
    plan_both(cached, uncached)                      # hit
    for market in (cached, uncached):                # unrelated churn
        market.update_dataset(make_ds("grid", 1, seed=3), seller="s_grid")
    plan_both(cached, uncached)                      # hit (retained)
    for market in (cached, uncached):                # dependency churn
        market.update_dataset(make_ds("user", 1, seed=3), seller="s_user")
    plan_both(cached, uncached)                      # miss after eviction
    stats = cached.plan_cache_stats
    assert stats.hits == 2
    assert stats.misses == 2
    assert stats.invalidations >= 1
    assert stats.uncacheable == 0
    assert stats.requests == 4
    assert uncached.plan_cache_stats.requests == 0


def test_miss_path_serves_copies_too():
    """Mutating the mashups returned by the *miss* (populating) call must
    not poison later cache hits — both paths hand out fresh wrappers."""
    market = DataMarket(internal_market())
    market.register_dataset(make_ds("user", 0), seller="s_user")
    first = market.plan(["user0"], key="userkey")
    assert first.cached is False and first.mashups
    victim = first.mashups[0]
    victim.matched.clear()
    victim.plan.joins.append("POISON")
    hit = market.plan(["user0"], key="userkey")
    assert hit.cached is True
    assert hit.mashups[0].matched, "cache served the caller-mutated entry"
    assert "POISON" not in hit.mashups[0].plan.joins


def test_component_fingerprint_api():
    """The index's changed-component reporting surface: fingerprints are
    aligned with components(), stable while nothing changes, and diffable
    across deltas."""
    market = DataMarket(internal_market())
    market.register_dataset(make_ds("user", 0), seller="s_user")
    market.register_dataset(make_ds("grid", 0), seller="s_grid")
    index = market.index
    fps = index.component_fingerprints()
    assert len(fps) == len(index.components())
    assert index.component_fingerprint_set() == frozenset(fps)
    for comp, fp in zip(index.components(), fps):
        for ds in comp:
            assert index.component_fingerprint_of(ds) == fp
    assert index.component_fingerprint_of("nope") is None
    # idempotent while the graph is unchanged
    assert index.component_fingerprints() == fps
    assert index.changed_components(fps) == frozenset()
    # a delta in one component changes exactly that fingerprint
    user_fp = index.component_fingerprint_of("user_ds0")
    market.update_dataset(make_ds("user", 0, seed=8), seller="s_user")
    changed = index.changed_components(fps)
    assert changed == {user_fp}
    assert index.component_fingerprint_of("grid_ds0") in (
        index.component_fingerprint_set()
    )


def test_builder_close_detaches_plan_cache_listener():
    market = DataMarket(internal_market())
    market.register_dataset(make_ds("user", 0), seller="s_user")
    market.plan(["user0"], key="userkey")
    market.builder.close()
    # detach is idempotent, empties the cache and disables caching: with
    # no delta subscription a newly cached entry could go stale silently
    market.builder.close()
    assert market.planner._plan_cache == {}
    assert market.plan(["user0"], key="userkey").cached is False
    assert market.planner._plan_cache == {}
    assert market.plan(["user0"], key="userkey").cached is False


def test_lru_hot_entry_survives_churn_at_capacity():
    """Regression guard on hit recency: a hot entry re-touched between
    inserts at a full cache must survive arbitrary insert/evict churn —
    only the cold entries rotate out."""
    market = DataMarket(internal_market(), plan_cache_size=2)
    for stem in STEMS:
        for i in range(2):
            market.register_dataset(make_ds(stem, i), seller=f"s_{stem}")
    hot = (["user0"], "userkey")
    cold = [(["grid0"], "gridref"), (["planet0"], "planetno"),
            (["grid1"], "gridref"), (["planet1"], "planetno")]
    market.plan(hot[0], key=hot[1])
    for attrs, key in cold:
        assert market.plan(attrs, key=key).cached is False  # insert
        assert market.plan(hot[0], key=hot[1]).cached is True  # re-touch
    # four inserts against size 2 with the hot entry always re-touched:
    # every eviction hit a cold entry
    assert market.plan_cache_stats.lru_evictions == len(cold) - 1
    assert market.plan(hot[0], key=hot[1]).cached is True


# ---------------------------------------------------------------------------
# teardown: no leaked metadata listeners
# ---------------------------------------------------------------------------

def test_builder_close_unsubscribes_every_listener():
    """`MashupBuilder.close()` must walk the whole detach chain: after it,
    the metadata engine holds zero subscribers — a long-running deployment
    discarding builders must not accumulate dangling listeners."""
    market = DataMarket(internal_market())
    market.register_dataset(make_ds("user", 0), seller="s_user")
    assert len(market.metadata.subscribers) > 0
    market.builder.close()
    assert market.metadata.subscribers == ()
    market.builder.close()  # idempotent
    assert market.metadata.subscribers == ()


def test_closed_builder_receives_no_further_deltas():
    market = DataMarket(internal_market())
    market.register_dataset(make_ds("user", 0), seller="s_user")
    market.plan(["user0"], key="userkey")
    index_version = market.index.graph_version
    market.builder.close()
    # a delta arriving after teardown reaches no engine: the index keeps
    # its pre-close graph and the plan cache stays empty
    market.metadata.register(make_ds("grid", 0), owner="s_grid")
    assert market.index.graph_version == index_version
    assert "grid_ds0" not in market.index._profiles
    assert market.planner._plan_cache == {}
