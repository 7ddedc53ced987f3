"""E22 — The platform façade under a steady-state request stream (§4/§5).

A deployed DMMS serves the same handful of data products over and over:
buyers rediscover popular attribute combinations far more often than the
seller corpus changes.  Because every mutation flows through the
``DataMarket`` façade, the DoD engine can memoize whole plan requests
against the relationship graph's version counter — a repeated ``plan`` at
an unchanged graph version is a dict lookup instead of a full
discovery+enumeration+join run, and any register/update/retire delta
invalidates the cache automatically.

Two harnesses:

* **plan cache** — N datasets, a rotating set of popular plan requests,
  façade with the cache on vs. off.  Outputs must be identical; the cached
  stream must clear ≥5x faster at the production sizes (the acceptance
  gate for the ISSUE-4 tentpole).
* **registration hashing** — the ``MinHash.update_many`` micro-benchmark:
  bulk registration with per-call dedupe + vectorized/memoized token
  hashing vs. a per-value scalar-rehash path (``oracles.legacy``, folded
  through the same production sketch), on corpora with a shared
  vocabulary.  Signatures must be identical.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from oracles.legacy import legacy_update_many
from repro import DataMarket, internal_market
from repro.relation import Column, Relation
from repro.sketches import MinHash

N_ROWS = 60
ATTRS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


def make_dataset(i: int, rng: np.random.Generator) -> Relation:
    """Joinable corpus: shared entity_id domain, two attribute columns and
    a low-cardinality string column drawn from a shared vocabulary."""
    a1 = ATTRS[i % len(ATTRS)]
    a2 = ATTRS[(i + 1) % len(ATTRS)]
    columns = [
        Column("entity_id", "int", "entity"),
        Column(a1, "float"),
        Column(a2, "float"),
        Column("city", "str"),
    ]
    cities = ("oslo", "rome", "lima", "kyiv", "pune")
    rows = [
        (k, round(float(rng.normal()), 6), round(float(rng.normal()), 6),
         cities[int(rng.integers(len(cities)))])
        for k in range(N_ROWS)
    ]
    return Relation(f"ds_{i:04d}", columns, rows)


def canonical(result) -> list[tuple]:
    return [
        (m.plan.describe(), sorted(m.matched.items()), m.missing)
        for m in result.mashups
    ]


def request_stream(n_requests: int):
    """The steady-state workload: four popular attribute pairs, cycled."""
    popular = [
        ["alpha", "beta"], ["gamma", "delta"],
        ["alpha", "gamma"], ["beta", "epsilon"],
    ]
    return [popular[i % len(popular)] for i in range(n_requests)]


@pytest.fixture(scope="module")
def plan_sweep(smoke):
    sizes = (12,) if smoke else (40, 80)
    n_requests = 20 if smoke else 120
    rows = []
    for n in sizes:
        rng = np.random.default_rng(17)
        datasets = [make_dataset(i, rng) for i in range(n)]
        cached = DataMarket(internal_market())
        uncached = DataMarket(internal_market(), plan_cache=False)
        for market in (cached, uncached):
            for i, ds in enumerate(datasets):
                market.register_dataset(ds, seller=f"s{i % 5}")
        stream = request_stream(n_requests)
        # warm both stacks once per distinct request: discovery caches and
        # the plan cache prime here, so the measured loop is steady state
        for attrs in stream[:4]:
            assert canonical(
                cached.plan(attrs, key="entity_id")
            ) == canonical(uncached.plan(attrs, key="entity_id"))

        t0 = time.perf_counter()
        cached_out = [
            canonical(cached.plan(attrs, key="entity_id"))
            for attrs in stream
        ]
        t_cached = time.perf_counter() - t0
        t0 = time.perf_counter()
        uncached_out = [
            canonical(uncached.plan(attrs, key="entity_id"))
            for attrs in stream
        ]
        t_uncached = time.perf_counter() - t0
        assert cached_out == uncached_out, (
            f"plan cache diverged from the uncached planner at {n} datasets"
        )
        stats = cached.plan_cache_stats
        # 4 warm-up misses primed the cache; every measured request hit
        assert stats.hits == n_requests
        assert uncached.plan_cache_stats.requests == 0
        rows.append((
            n, n_requests, stats.hits, stats.misses,
            round(t_uncached * 1000, 2), round(t_cached * 1000, 2),
            round(t_uncached / t_cached, 1),
        ))
    return rows


def test_e22_report(plan_sweep, table, bench_json):
    table(
        ["datasets", "requests", "cache hits", "misses",
         "uncached (ms)", "cached (ms)", "speedup"],
        [(n, r, h, m, tu, tc, f"{sp}x")
         for n, r, h, m, tu, tc, sp in plan_sweep],
        title="E22: steady-state plan request stream — graph-version plan "
        "cache vs uncached planner (identical outputs)",
    )
    bench_json(
        "E22",
        plan_cache={
            n: {"uncached_ms": tu, "cached_ms": tc, "speedup": sp}
            for n, _r, _h, _m, tu, tc, sp in plan_sweep
        },
        outputs_identical=True,  # asserted inside the sweep fixture
    )


def test_e22_steady_state_speedup_at_least_5x(plan_sweep, smoke):
    """Acceptance gate: ≥5x steady-state speedup at production sizes.

    Smoke mode shrinks the workload below timing-stable sizes; there the
    deterministic hit-count and output-equality assertions inside the
    sweep fixture carry the test.
    """
    if smoke:
        return
    for n, _r, _h, _m, _tu, _tc, speedup in plan_sweep:
        if n >= 40:
            assert speedup >= 5.0, (
                f"plan cache only {speedup:.1f}x faster at {n} datasets"
            )


def test_e22_delta_invalidates_and_matches(plan_sweep):
    """After a corpus delta the cache recomputes and still matches the
    uncached planner."""
    rng = np.random.default_rng(99)
    cached = DataMarket(internal_market())
    uncached = DataMarket(internal_market(), plan_cache=False)
    for market in (cached, uncached):
        for i in range(8):
            market.register_dataset(
                make_dataset(i, np.random.default_rng(i)),
                seller=f"s{i % 3}",
            )
    attrs = ["alpha", "beta"]
    assert canonical(cached.plan(attrs, key="entity_id")) == canonical(
        uncached.plan(attrs, key="entity_id")
    )
    assert cached.plan(attrs, key="entity_id").cached is True
    newcomer = make_dataset(8, rng)
    cached.register_dataset(newcomer, seller="s9")
    uncached.register_dataset(newcomer, seller="s9")
    after = cached.plan(attrs, key="entity_id")
    assert after.cached is False
    assert canonical(after) == canonical(
        uncached.plan(attrs, key="entity_id")
    )


# ---------------------------------------------------------------------------
# registration hashing: MinHash.update_many micro-benchmark
# ---------------------------------------------------------------------------

def shared_vocab_columns(n_columns: int, n_values: int, vocab: int):
    """Columns over a shared token vocabulary (UUID-ish reuse across a
    corpus: ids, cities, categories recur in every seller's datasets)."""
    rng = np.random.default_rng(3)
    tokens = [f"token_{i:06d}" for i in range(vocab)]
    return [
        [tokens[j] for j in rng.integers(vocab, size=n_values)]
        for _ in range(n_columns)
    ]


@pytest.fixture(scope="module")
def hashing_sweep(smoke):
    shapes = [(20, 200, 500)] if smoke else [(80, 1000, 2000), (150, 2000, 3000)]
    rows = []
    for n_columns, n_values, vocab in shapes:
        columns = shared_vocab_columns(n_columns, n_values, vocab)

        t0 = time.perf_counter()
        legacy = []
        for values in columns:
            mh = MinHash(num_perm=64)
            legacy_update_many(mh, values)
            legacy.append(mh)
        t_legacy = time.perf_counter() - t0

        t0 = time.perf_counter()
        current = []
        for values in columns:
            mh = MinHash(num_perm=64)
            mh.update_many(values)
            current.append(mh)
        t_current = time.perf_counter() - t0

        for a, b in zip(legacy, current):
            assert a.digest() == b.digest(), "fast hash path changed sketches"
        rows.append((
            n_columns, n_values, vocab,
            round(t_legacy * 1000, 2), round(t_current * 1000, 2),
            round(t_legacy / t_current, 1),
        ))
    return rows


def test_e22_hashing_report(hashing_sweep, table, bench_json):
    bench_json(
        "E22",
        bulk_hashing={
            f"{c}x{v}": {"legacy_ms": tl, "fast_ms": tc, "speedup": sp}
            for c, v, _vo, tl, tc, sp in hashing_sweep
        },
        signatures_identical=True,  # asserted inside the sweep fixture
    )
    table(
        ["columns", "values/col", "vocab", "legacy (ms)", "cached (ms)",
         "speedup"],
        [(c, v, vo, tl, tc, f"{sp}x")
         for c, v, vo, tl, tc, sp in hashing_sweep],
        title="E22: MinHash.update_many — dedupe + vectorized/memoized "
        "token hashing vs per-value scalar rehash (identical signatures)",
    )


def test_e22_hashing_measurably_faster(hashing_sweep, smoke):
    if smoke:
        return
    for _c, _v, _vo, _tl, _tc, speedup in hashing_sweep:
        assert speedup >= 1.5, (
            f"bulk token hashing only {speedup:.1f}x faster than legacy path"
        )
