"""E28 — One-permutation MinHash ingest (§5.1).

The market profiles and sketches every arriving column before it is
discoverable.  Production sketches with one-permutation hashing: each
token is hashed exactly once, bucketed by high bits into ``num_perm``
bins, per-bin minima are kept and bins left empty are filled by later
rounds of the same tokens — O(tokens) instead of the k-permutation
fold's O(tokens x num_perm) — while numeric columns skip ``repr``
entirely via struct-packed canonical bytes hashed straight from the
buffer, and str columns hash their raw UTF-8.

Cold-registration comparison on the wide and tall corpora (the ingest
sweep E23 introduced, now run here):

* **legacy** — the pre-fastpath per-value pipeline replica
  (``oracles.legacy.legacy_ingest``).
* **classic scalar** — the value-at-a-time profiler under the classic
  k-permutation scheme (``oracles.legacy.classic_profiling``), registered
  through the same ``MetadataEngine.register`` path.
* **oph scalar** — the value-at-a-time oracle of the production scheme
  (``oracles.profiling``), kept for bit-identical output checks.
* **production** — the columnar profiler ``MetadataEngine.register``
  runs.

Gates (full mode, best of 5 cold rounds per mode; smoke shrinks corpora
below timing-stable sizes and leans on the equality assertions instead):
production ≥4x over the classic-scheme scalar path on the tall corpus
(≥3x on wide, which hovers near 4x run-to-run), and ≥4.5x over legacy on
both.

Correctness rides along in the same sweep: production profiles are
bit-identical to the OPH scalar oracle; the classic scalar oracle
reproduces the legacy replica's content hashes and summaries; production
and the classic oracle agree on every scheme-independent profile field
(table content hashes, numeric summaries, heavy hitters, distinct
fractions — column content hashes and signatures differ by construction);
markets registered through production and through the classic oracle
agree on join-candidate pairs, search hits and materialized plans; and a
cold restart from a durable store replays signatures bit-identically
while a store in the two-scheme schema-2 layout is refused with a typed
``StoreError``.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from bench_e23_ingest_fastpath import STEMS, component_ds
from oracles.legacy import (
    LEGACY_TOKEN_MEMO,
    classic_profiling,
    downgrade_to_schema_2,
    legacy_ingest,
)
from oracles.profiling import scalar_profiling
from repro import DataMarket, internal_market
from repro.discovery.index import _LSH_ROWS_PER_BAND
from repro.discovery.metadata import MetadataEngine
from repro.platform.store import MarketStore, StoreError
from repro.relation import Column, Relation
from repro.relation.columnar import pack_value
from repro.sketches.minhash import _TOKEN_CACHE

NUM_PERM = 64


# ---------------------------------------------------------------------------
# corpora (row payloads built once; fresh Relation objects per mode so no
# memoized view or content hash leaks across timings)
# ---------------------------------------------------------------------------

def wide_spec(i: int, rng: np.random.Generator, n_rows: int):
    """A dimension table: one row-identity column, an entity key, many
    bounded-domain foreign-key/categorical strings, a few metrics."""
    cols = [Column("entity_id", "int", "entity"), Column("record_uid", "str")]
    cols += [Column(f"ref_{i}_{j}", "str") for j in range(14)]
    cols += [Column(f"c_{i}_{j}", "str") for j in range(16)]
    cols += [Column(f"m_{i}_{j}", "float") for j in range(6)]
    cols += [Column("flag", "bool"), Column("qty", "int")]
    refs = [[f"r{j}:{k:05d}" for k in range(1000)] for j in range(14)]
    cats = [
        [f"cat{j}_{k:03d}" for k in range(30 + (53 * j) % 370)]
        for j in range(16)
    ]
    rows = []
    for k in range(n_rows):
        row = [int(k), f"uid-{i}-{k:06x}-{int(rng.integers(1 << 30)):08x}"]
        row += [
            refs[j][int(v)]
            for j, v in enumerate(rng.integers(1000, size=14))
        ]
        row += [
            cats[j][int(v) % len(cats[j])]
            for j, v in enumerate(rng.integers(1 << 16, size=16))
        ]
        row += [round(float(x), 2) for x in rng.normal(size=6)]
        row += [bool(k % 3 == 0), int(rng.integers(60))]
        rows.append(tuple(row))
    return f"wide_{i}", cols, rows


def tall_spec(i: int, rng: np.random.Generator, n_rows: int):
    """A fact/event stream: many rows over bounded domains plus one
    per-event identifier column."""
    cols = [Column("record_uid", "str"), Column("entity_id", "int", "entity"),
            Column("account", "str"), Column("code", "str"),
            Column("city", "str"), Column("grade", "str"),
            Column("status", "str"), Column("day", "str"),
            Column("channel", "str"), Column("region", "str"),
            Column("flag", "bool"), Column("metric", "float"),
            Column("qty", "int"), Column("tier", "str")]
    accts = [f"acct:{k:06d}" for k in range(2500)]
    cities = [f"city_{k:04d}" for k in range(300)]
    codes = [f"c{k}" for k in range(1200)]
    days = [f"d{k:03d}" for k in range(365)]
    grades = ["a", "b", "c", "d", "e"]
    statuses = ["ok", "late", "hold", "void"]
    channels = [f"ch{k}" for k in range(12)]
    regions = [f"reg_{k:02d}" for k in range(40)]
    tiers = ["gold", "silver", "bronze"]
    rows = [
        (f"uid-{i}-{k:08x}", int(rng.integers(4000)),
         accts[int(rng.integers(2500))], codes[int(rng.integers(1200))],
         cities[int(rng.integers(300))], grades[int(rng.integers(5))],
         statuses[int(rng.integers(4))], days[int(rng.integers(365))],
         channels[int(rng.integers(12))], regions[int(rng.integers(40))],
         bool(k % 2), round(float(rng.normal()), 1),
         int(rng.integers(60)), tiers[int(rng.integers(3))])
        for k in range(n_rows)
    ]
    return f"tall_{i}", cols, rows


def build_corpus(shape: str, n_rows: int, n_datasets: int = 3):
    rng = np.random.default_rng(7)
    spec = wide_spec if shape == "wide" else tall_spec
    return [spec(i, rng, n_rows) for i in range(n_datasets)]


def fresh_relations(specs):
    return [Relation(name, cols, rows) for name, cols, rows in specs]


@contextmanager
def no_gc():
    """Collect up front, then keep the collector out of the timed region:
    cyclic-GC pauses triggered by the *previous* mode's garbage otherwise
    land inside whichever timing loop allocates next and smear the gate
    ratios by ±15%."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def timed_register(specs, profiling, repeats: int = 1) -> tuple[float, list]:
    """Best-of-``repeats`` cold registration through ``profiling`` (a
    context manager routing ``MetadataEngine.register``; ``nullcontext``
    for production), with fresh relations and a fresh engine every round
    and the token memo cleared, so each round really is cold; best-of
    damps scheduler noise that a single shot would feed straight into the
    gate ratios."""
    best = float("inf")
    profiles = []
    with profiling():
        for _ in range(repeats):
            relations = fresh_relations(specs)
            _TOKEN_CACHE.clear()
            engine = MetadataEngine(num_perm=NUM_PERM)
            with no_gc():
                t0 = time.perf_counter()
                for r in relations:
                    engine.register(r)
                elapsed = time.perf_counter() - t0
            if elapsed < best:
                best = elapsed
                profiles = [
                    engine.snapshot(r.name).profile for r in relations
                ]
    return best, profiles


def timed_legacy(specs, repeats: int = 1) -> tuple[float, list]:
    best = float("inf")
    outputs = []
    for _ in range(repeats):
        relations = fresh_relations(specs)
        _TOKEN_CACHE.clear()
        LEGACY_TOKEN_MEMO.clear()
        with no_gc():
            t0 = time.perf_counter()
            result = [legacy_ingest(r, NUM_PERM) for r in relations]
            elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, outputs = elapsed, result
    return best, outputs


# ---------------------------------------------------------------------------
# equality checks
# ---------------------------------------------------------------------------

def assert_matches_scalar_reference(production, scalar):
    for a, b in zip(production, scalar):
        assert a.content_hash == b.content_hash
        for ca, cb in zip(a.columns, b.columns):
            assert ca.content_hash == cb.content_hash, ca.column
            assert ca.signature.digest() == cb.signature.digest(), ca.column
            assert repr(ca.numeric) == repr(cb.numeric), ca.column
            assert ca.categorical == cb.categorical, ca.column
            assert ca.distinct_fraction == cb.distinct_fraction, ca.column


def assert_classic_matches_legacy(classic, legacy):
    """The classic scalar oracle and the legacy replica hash and summarize
    identically (signatures differ: the replica hashes tokens with
    BLAKE2b, the oracle with the FNV/mix token hash)."""
    for a, b in zip(classic, legacy):
        for ca, cb in zip(a.columns, b["columns"]):
            assert ca.column == cb["column"]
            assert ca.content_hash == cb["content_hash"], ca.column
            assert repr(ca.numeric) == repr(cb["numeric"]), ca.column
            assert ca.categorical == cb["categorical"], ca.column
            assert ca.distinct_fraction == cb["distinct_fraction"], ca.column
            assert ca.signature.count == cb["signature"].count, ca.column


def repr_distinct_merges(specs) -> dict:
    """Per (dataset, column): how many repr-distinct numeric encodings the
    packed canonicalization identifies.  The classic scheme canonicalizes
    via ``repr``, which tells ``-0.0`` and ``0.0`` apart; the packed form
    deliberately merges them (IEEE equality).  This is the *only* place
    the two canonicalizations may legitimately diverge, and the sweep
    asserts the divergence is exactly this, nothing more."""
    merges = {}
    for name, cols, rows in specs:
        for i, col in enumerate(cols):
            if col.dtype not in ("int", "float", "bool"):
                merges[(name, col.name)] = 0
                continue
            vals = [r[i] for r in rows if r[i] is not None]
            merges[(name, col.name)] = (
                len({repr(v) for v in vals})
                - len({pack_value(v) for v in vals})
            )
    return merges


def assert_scheme_independent_outputs_match(production, classic, merges):
    """The classic sketch lives in another hash space and digests another
    canonical stream per column, so column content hashes and signatures
    differ by construction — but the table content hash is the relation's
    one identity, whatever the sketch, and every profile field discovery
    ranks on must agree, up to the documented ``-0.0``/``0.0``
    canonicalization merge (see :func:`repr_distinct_merges`)."""
    for a, b in zip(production, classic):
        assert a.dataset == b.dataset
        assert a.content_hash == b.content_hash
        for ca, cb in zip(a.columns, b.columns):
            assert ca.column == cb.column
            assert repr(ca.numeric) == repr(cb.numeric), ca.column
            merged = merges[(a.dataset, ca.column)]
            if merged == 0:
                assert ca.categorical == cb.categorical, ca.column
                assert ca.distinct_fraction == cb.distinct_fraction, (
                    ca.column
                )
            else:
                # e.g. a float column holding both -0.0 and 0.0: the
                # distinct set shrinks by exactly the merged encodings
                assert cb.categorical.distinct - ca.categorical.distinct \
                    == merged, ca.column
                assert ca.categorical.count == cb.categorical.count
                assert ca.categorical.nulls == cb.categorical.nulls
                assert ca.distinct_fraction <= cb.distinct_fraction


# ---------------------------------------------------------------------------
# ingest sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ingest_sweep(smoke):
    shapes = (
        [("wide", 400), ("tall", 2500)] if smoke
        else [("wide", 4000), ("tall", 25000)]
    )
    repeats = 1 if smoke else 5
    rows = []
    for shape, n_rows in shapes:
        specs = build_corpus(shape, n_rows)
        n_values = sum(len(r) * len(c) for _n, c, r in specs)

        t_legacy, legacy = timed_legacy(specs, repeats)
        t_classic, classic = timed_register(
            specs, classic_profiling, repeats
        )
        t_scalar, scalar = timed_register(specs, scalar_profiling, repeats)
        t_prod, production = timed_register(specs, nullcontext, repeats)

        assert_matches_scalar_reference(production, scalar)
        assert_classic_matches_legacy(classic, legacy)
        assert_scheme_independent_outputs_match(
            production, classic, repr_distinct_merges(specs)
        )
        rows.append({
            "shape": shape,
            "rows": n_rows,
            "values": n_values,
            "legacy_ms": round(t_legacy * 1000, 1),
            "classic_scalar_ms": round(t_classic * 1000, 1),
            "oph_scalar_ms": round(t_scalar * 1000, 1),
            "production_ms": round(t_prod * 1000, 1),
            "vs_legacy": round(t_legacy / t_prod, 1),
            "vs_classic_scalar": round(t_classic / t_prod, 1),
            "vs_oph_scalar": round(t_scalar / t_prod, 1),
        })
    return rows


def test_e28_ingest_report(ingest_sweep, table, bench_json):
    table(
        ["shape", "rows", "legacy (ms)", "classic scalar (ms)",
         "oph scalar (ms)", "production (ms)", "vs legacy",
         "vs cl. scalar", "vs oph scalar"],
        [(r["shape"], r["rows"], r["legacy_ms"], r["classic_scalar_ms"],
          r["oph_scalar_ms"], r["production_ms"], f"{r['vs_legacy']}x",
          f"{r['vs_classic_scalar']}x", f"{r['vs_oph_scalar']}x")
         for r in ingest_sweep],
        title="E28: cold-registration ingest — production OPH vs the "
        "legacy replica and the scalar oracles (identical outputs)",
    )
    by_shape = {r["shape"]: r for r in ingest_sweep}
    bench_json(
        "E28",
        ingest=by_shape,
        min_speedup_vs_legacy=min(r["vs_legacy"] for r in ingest_sweep),
        tall_speedup_vs_classic_scalar=(
            by_shape["tall"]["vs_classic_scalar"]
        ),
        wide_speedup_vs_classic_scalar=(
            by_shape["wide"]["vs_classic_scalar"]
        ),
        oph_outputs_identical=1,
    )


#: per-shape floor for production over the classic-scheme scalar path.
#: The tall (fact-stream) corpus is the acceptance target and clears 4x
#: with margin; the wide corpus hovers nearer 4x (its per-column fixed
#: costs dominate), so its gate sits at 3x to keep CI honest instead of
#: flaky.
SCALAR_FLOORS = {"tall": 4.0, "wide": 3.0}


def test_e28_oph_speedup_floor(ingest_sweep, smoke):
    """Acceptance gate: production ≥4x over the classic-scheme scalar path
    on the tall corpus (≥3x on wide, see :data:`SCALAR_FLOORS`) and ≥4.5x
    over the legacy replica on every shape at production sizes."""
    if smoke:
        return
    for r in ingest_sweep:
        floor = SCALAR_FLOORS[r["shape"]]
        assert r["vs_classic_scalar"] >= floor, (
            f"ingest only {r['vs_classic_scalar']}x faster than the "
            f"classic scalar path on {r['shape']} (floor {floor}x)"
        )
        assert r["vs_legacy"] >= 4.5, (
            f"ingest only {r['vs_legacy']}x faster than legacy "
            f"on {r['shape']}"
        )


# ---------------------------------------------------------------------------
# discovery outcomes: production vs the classic oracle
# ---------------------------------------------------------------------------

def candidate_pairs(market) -> set:
    return {frozenset(c.pair) for c in market.index.join_candidates()}


def canonical_plans(result) -> list:
    return [
        (m.plan.describe(), sorted(m.matched.items()), m.missing,
         tuple(sorted(map(repr, m.relation.rows))))
        for m in result.mashups
    ]


@pytest.fixture(scope="module")
def scheme_markets():
    """Two markets holding the same multi-component corpus (E23's
    plan-cache corpus: within a component the key columns overlap
    completely, across components not at all, so the candidate set does
    not hang on estimator noise near the score threshold), one registered
    through production and one through the classic-scheme oracle."""
    markets = {}
    for scheme, profiling in (("classic", classic_profiling),
                              ("oph", nullcontext)):
        market = DataMarket(internal_market(), num_perm=NUM_PERM)
        with profiling():
            for stem in STEMS:
                for i in range(4):
                    market.register_dataset(
                        component_ds(stem, i), seller=f"s_{stem}"
                    )
        markets[scheme] = market
    return markets


def test_e28_discovery_outcomes_identical(scheme_markets, bench_json):
    classic, oph = scheme_markets["classic"], scheme_markets["oph"]

    pairs_classic, pairs_oph = candidate_pairs(classic), candidate_pairs(oph)
    assert pairs_oph == pairs_classic
    assert pairs_oph, "corpus produced no join candidates at all"

    for attrs in (["user0", "user2"], ["grid1", "planet2", "user3"]):
        assert classic.search(attrs).hits == oph.search(attrs).hits

    for attrs, key in ((["user0", "user2"], "userkey"),
                       (["grid0", "grid3"], "gridref")):
        assert canonical_plans(classic.plan(attrs, key=key)) == (
            canonical_plans(oph.plan(attrs, key=key))
        )

    bench_json(
        "E28",
        candidate_pairs=len(pairs_oph),
        discovery_outcomes_identical=1,
    )


def band_keys(signature) -> set[tuple[int, ...]]:
    """The LSH bucket keys the index cuts from a signature, one per band
    of ``_LSH_ROWS_PER_BAND`` signature rows."""
    rows = _LSH_ROWS_PER_BAND
    sig = signature.signature
    return {
        tuple(int(x) for x in sig[b * rows:(b + 1) * rows])
        for b in range(signature.num_perm // rows)
    }


def test_e28_band_keys_disjoint_by_scheme(scheme_markets):
    """The two schemes hash into different spaces, so their band keys
    must not collide — this is what makes replaying an old store's
    signatures beside new ones unsafe, and why it is refused."""
    classic, oph = scheme_markets["classic"], scheme_markets["oph"]
    cols_classic = classic.metadata.snapshot("user_ds0").profile.columns
    cols_oph = oph.metadata.snapshot("user_ds0").profile.columns
    for cc, co in zip(cols_classic, cols_oph):
        if cc.signature.count == 0:
            continue
        assert not (band_keys(cc.signature) & band_keys(co.signature)), (
            cc.column
        )


# ---------------------------------------------------------------------------
# durable-store replay: bit-identical cold start, typed refusal of a
# schema-2 store
# ---------------------------------------------------------------------------

def test_e28_store_replay_bit_identical(tmp_path, bench_json):
    specs = build_corpus("tall", 800)
    path = tmp_path / "market.db"
    warm = DataMarket(
        internal_market(), num_perm=NUM_PERM, store=MarketStore(path),
    )
    for relation in fresh_relations(specs):
        warm.register_dataset(relation, seller=f"s_{relation.name}")

    # a crash loses nothing the store holds: cold-start a fresh market
    # from the same file and demand bit-identical sketch state
    cold = DataMarket(
        internal_market(), num_perm=NUM_PERM, store=MarketStore(path),
    )
    for name, _cols, _rows in specs:
        warm_cols = warm.metadata.snapshot(name).profile.columns
        cold_cols = cold.metadata.snapshot(name).profile.columns
        for cw, cc in zip(warm_cols, cold_cols):
            assert cw.signature.to_bytes() == cc.signature.to_bytes(), (
                cw.column
            )
    assert candidate_pairs(cold) == candidate_pairs(warm)

    # the same store in the two-scheme layout must be refused at open
    downgrade_to_schema_2(path)
    with pytest.raises(StoreError, match="schema version 2"):
        MarketStore(path)

    bench_json(
        "E28",
        replay_bit_identical=1,
        old_store_refused=1,
    )
