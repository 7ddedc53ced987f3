"""E23 — Component-scoped plan cache under seller churn (§5.2).

The always-on market must keep serving plans while sellers come and go.
Before this experiment's changes any metadata delta dropped the whole plan
cache; the component-scoped cache keys entries on join-graph component
fingerprints, so unrelated seller churn stops evicting them.

The plan-cache harness replays a steady-state request stream against one
join-graph component while unrelated components churn between requests:
≥90% of requests must still hit, with every response identical to an
uncached planner's.

E23 also introduced the columnar ingest fast path (one canonical pass per
column, one C-level BLAKE2b call per column, vectorized token hashing).
Its cold-registration sweep — the same wide and tall corpora, timed
against the pre-fastpath per-value replica in ``oracles.legacy`` — now
runs in E28 next to the classic-scheme scalar oracle, under E28's stricter
legacy floor (4.5x instead of 2.5x).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import DataMarket, internal_market
from repro.relation import Column, Relation


# ---------------------------------------------------------------------------
# plan-cache retention under disjoint-component churn
# ---------------------------------------------------------------------------

STEMS = ("user", "grid", "planet")
KEYS = {"user": "userkey", "grid": "gridref", "planet": "planetno"}


def component_ds(stem: str, i: int, seed: int = 0, n_rows: int = 40):
    stem_index = STEMS.index(stem)
    rng = np.random.default_rng(seed + 100 * i + 10_000 * stem_index)
    cols = [
        Column(KEYS[stem], "int"),
        Column(f"{stem}{i}", "float"),
        Column(f"{stem}{i + 1}", "float"),
    ]
    rows = [
        (stem_index * 10_000 + k, *(float(v) for v in rng.normal(size=2)))
        for k in range(n_rows)
    ]
    return Relation(f"{stem}_ds{i}", cols, rows)


def canonical_plans(result):
    return [
        (m.plan.describe(), sorted(m.matched.items()), m.missing,
         tuple(sorted(map(repr, m.relation.rows))))
        for m in result.mashups
    ]


@pytest.fixture(scope="module")
def churn_sweep(smoke):
    n_requests = 20 if smoke else 60
    popular = [
        (["user0", "user2"], "userkey"),
        (["user1", "user3"], "userkey"),
        (["user0", "user3"], "userkey"),
        (["user2"], "userkey"),
    ]
    cached = DataMarket(internal_market())
    uncached = DataMarket(internal_market(), plan_cache=False)
    for market in (cached, uncached):
        for stem in STEMS:
            for i in range(4):
                market.register_dataset(
                    component_ds(stem, i), seller=f"s_{stem}"
                )

    def churn(step: int) -> None:
        """Touch only the grid/planet components, never user."""
        stem = ("grid", "planet")[step % 2]
        for market in (cached, uncached):
            if step % 3 == 2:
                market.retire_dataset(f"{stem}_ds3")
                market.register_dataset(
                    component_ds(stem, 3, seed=step), seller=f"s_{stem}"
                )
            else:
                market.update_dataset(
                    component_ds(stem, step % 4, seed=step),
                    seller=f"s_{stem}",
                )

    # warm each distinct request once: the measured stream is steady state,
    # so every miss below is churn-induced, not a cold start
    for attrs, key in popular:
        assert canonical_plans(cached.plan(attrs, key=key)) == (
            canonical_plans(uncached.plan(attrs, key=key))
        )
    warm = cached.plan_cache_stats
    warm_hits, warm_misses = warm.hits, warm.misses

    t_cached = t_uncached = 0.0
    for step in range(n_requests):
        attrs, key = popular[step % len(popular)]
        churn(step)
        t0 = time.perf_counter()
        pc = cached.plan(attrs, key=key)
        t_cached += time.perf_counter() - t0
        t0 = time.perf_counter()
        pu = uncached.plan(attrs, key=key)
        t_uncached += time.perf_counter() - t0
        assert canonical_plans(pc) == canonical_plans(pu), (
            f"cached plan diverged from uncached planner at step {step}"
        )
    stats = cached.plan_cache_stats
    hits = stats.hits - warm_hits
    misses = stats.misses - warm_misses
    hit_rate = hits / n_requests
    return {
        "requests": n_requests,
        "hits": hits,
        "misses": misses,
        "invalidations": stats.invalidations,
        "hit_rate": round(hit_rate, 3),
        "cached_ms": round(t_cached * 1000, 1),
        "uncached_ms": round(t_uncached * 1000, 1),
        "speedup": round(t_uncached / t_cached, 1),
    }


def test_e23_cache_churn_report(churn_sweep, table, bench_json):
    table(
        ["requests", "hits", "misses", "invalidations", "hit rate",
         "uncached (ms)", "cached (ms)", "speedup"],
        [(churn_sweep["requests"], churn_sweep["hits"],
          churn_sweep["misses"], churn_sweep["invalidations"],
          churn_sweep["hit_rate"], churn_sweep["uncached_ms"],
          churn_sweep["cached_ms"], f"{churn_sweep['speedup']}x")],
        title="E23: plan stream under disjoint-component churn — "
        "component-scoped cache vs uncached planner (identical outputs)",
    )
    bench_json(
        "E23",
        plan_cache_churn=churn_sweep,
        plan_cache_outputs_identical=True,
    )


def test_e23_cache_retention_at_least_90pct(churn_sweep):
    """Acceptance gate: ≥90% hit retention while unrelated components
    churn on every request (the old version-keyed cache would sit at 0%)."""
    assert churn_sweep["hit_rate"] >= 0.9, (
        f"only {churn_sweep['hit_rate']:.0%} of requests hit the cache "
        "under disjoint-component churn"
    )
    assert churn_sweep["invalidations"] == 0
