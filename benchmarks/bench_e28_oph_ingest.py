"""E28 — One-permutation MinHash ingest with densification (§5.1).

E23 vectorized the ingest *pipeline* (one canonical repr per value, one
BLAKE2b call per column) but kept the classic MinHash fold: every distinct
token still multiplies through a ``num_perm``-row universal-hash matrix,
and numeric columns still pay a Python-level ``repr`` per distinct value
to enter the hash space.  This experiment measures the next rung: the
``"oph"`` sketch scheme hashes each token exactly once, buckets by high
bits into ``num_perm`` bins, keeps per-bin minima and densifies empty
bins by rotation — O(tokens) instead of O(tokens x num_perm) — while
numeric columns skip ``repr`` entirely via struct-packed canonical bytes
hashed straight from the buffer.

Five-way cold-registration comparison on the E23 corpora:

* **legacy** — E23's replica of the pre-fastpath per-value pipeline.
* **classic scalar** — the value-at-a-time oracle, classic scheme.
* **classic columnar** — E23's shipped fast path (the prior default).
* **oph scalar** — value-at-a-time oracle under the OPH scheme, kept for
  bit-identical output checks.
* **oph columnar** — this experiment's fast path.

Gates (full mode; smoke shrinks corpora below timing-stable sizes and
leans on the equality assertions instead): OPH columnar ≥4x over the
classic-scheme scalar path on the tall corpus (≥3x on wide, which hovers
right at 4x run-to-run), and ≥4.5x over legacy on both.  The honest
decomposition: against E23's classic *columnar* path OPH buys ~1.2–1.6x
— Amdahl again, since E23 already removed the per-value Python loops and
what remains (materialize, sort, Counter) is shared by both schemes —
but against the classic-scheme scalar path the combined effect is 4–5x,
and against legacy 5–7.5x, en route to the 10x north star (the remaining
distance is the C/Cython pack kernel noted in ROADMAP.md).

Correctness rides along in the same sweep: OPH columnar profiles are
bit-identical to the OPH scalar oracle; classic and OPH markets agree on
every scheme-independent discovery outcome (numeric summaries, heavy
hitters, distinct fractions, join-candidate pair sets, search hits and
materialized plan outputs — content hashes and LSH band keys differ by
construction, which is why a store refuses to replay across schemes);
and a cold restart from a durable store replays OPH signatures and band
keys bit-identically while a classic-scheme market cold-starting from
the same store fails with a typed ``StoreError``.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager, nullcontext

import pytest

from bench_e23_ingest_fastpath import (
    _LEGACY_TOKEN_MEMO,
    NUM_PERM,
    STEMS,
    assert_matches_scalar_reference,
    build_corpus,
    component_ds,
    fresh_relations,
    legacy_ingest,
)
from oracles.profiling import scalar_profiling
from repro import DataMarket, internal_market
from repro.discovery.metadata import MetadataEngine
from repro.platform.store import MarketStore, StoreError
from repro.relation.columnar import pack_value
from repro.sketches.minhash import _TOKEN_CACHE


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


def timed_register(
    specs, scheme: str, columnar: bool, repeats: int = 1
) -> tuple[float, list]:
    """Best-of-``repeats`` cold registration (fresh relations and a fresh
    engine every round, token memo cleared, so each round really is
    cold); best-of damps scheduler noise that a single shot would feed
    straight into the gate ratios."""
    best = float("inf")
    profiles = []
    with nullcontext() if columnar else scalar_profiling():
        for _ in range(repeats):
            relations = fresh_relations(specs)
            _TOKEN_CACHE.clear()
            engine = MetadataEngine(num_perm=NUM_PERM, scheme=scheme)
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


def scheme_distinct_merges(specs) -> dict:
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


def assert_scheme_independent_outputs_match(oph_profiles, classic_profiles,
                                            merges):
    """Classic and OPH sketches live in different hash spaces, so content
    hashes, signatures and band keys differ by construction — but every
    profile field discovery ranks on must agree, up to the documented
    ``-0.0``/``0.0`` canonicalization merge (see
    :func:`scheme_distinct_merges`)."""
    for a, b in zip(oph_profiles, classic_profiles):
        assert a.dataset == b.dataset
        assert a.content_hash != b.content_hash  # scheme-tagged by design
        for ca, cb in zip(a.columns, b.columns):
            assert ca.column == cb.column
            assert repr(ca.numeric) == repr(cb.numeric), ca.column
            assert ca.signature.scheme == "oph", ca.column
            assert cb.signature.scheme == "classic", ca.column
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
    repeats = 1 if smoke else 2
    rows = []
    for shape, n_rows in shapes:
        specs = build_corpus(shape, n_rows)
        n_values = sum(len(r) * len(c) for _n, c, r in specs)

        t_legacy = float("inf")
        for _ in range(repeats):
            relations = fresh_relations(specs)
            _TOKEN_CACHE.clear()
            _LEGACY_TOKEN_MEMO.clear()
            with no_gc():
                t0 = time.perf_counter()
                for r in relations:
                    legacy_ingest(r)
                t_legacy = min(t_legacy, time.perf_counter() - t0)

        t_classic_scalar, classic_scalar = timed_register(
            specs, "classic", columnar=False, repeats=repeats
        )
        t_classic_col, classic_col = timed_register(
            specs, "classic", columnar=True, repeats=repeats
        )
        t_oph_scalar, oph_scalar = timed_register(
            specs, "oph", columnar=False, repeats=repeats
        )
        t_oph_col, oph_col = timed_register(
            specs, "oph", columnar=True, repeats=repeats
        )

        assert_matches_scalar_reference(oph_col, oph_scalar)
        assert_scheme_independent_outputs_match(
            oph_col, classic_col, scheme_distinct_merges(specs)
        )
        rows.append({
            "shape": shape,
            "rows": n_rows,
            "values": n_values,
            "legacy_ms": round(t_legacy * 1000, 1),
            "classic_scalar_ms": round(t_classic_scalar * 1000, 1),
            "classic_columnar_ms": round(t_classic_col * 1000, 1),
            "oph_scalar_ms": round(t_oph_scalar * 1000, 1),
            "oph_columnar_ms": round(t_oph_col * 1000, 1),
            "vs_legacy": round(t_legacy / t_oph_col, 1),
            "vs_classic_scalar": round(t_classic_scalar / t_oph_col, 1),
            "vs_classic_columnar": round(t_classic_col / t_oph_col, 1),
        })
    return rows


def test_e28_ingest_report(ingest_sweep, table, bench_json):
    table(
        ["shape", "rows", "legacy (ms)", "classic scalar (ms)",
         "classic columnar (ms)", "oph scalar (ms)", "oph columnar (ms)",
         "vs legacy", "vs cl. scalar", "vs cl. columnar"],
        [(r["shape"], r["rows"], r["legacy_ms"], r["classic_scalar_ms"],
          r["classic_columnar_ms"], r["oph_scalar_ms"],
          r["oph_columnar_ms"], f"{r['vs_legacy']}x",
          f"{r['vs_classic_scalar']}x", f"{r['vs_classic_columnar']}x")
         for r in ingest_sweep],
        title="E28: cold-registration ingest — OPH columnar vs every "
        "prior rung (identical scheme-independent outputs)",
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


#: per-shape floor for OPH columnar over the classic-scheme scalar path.
#: The tall (fact-stream) corpus is the acceptance target and clears 4x
#: with margin (≈4.2–4.6x measured); the wide corpus hovers right at 4x
#: (≈3.5–4.6x across runs — its per-column fixed costs are already the
#: floor E23's satellite work shaved), so its gate sits at 3x to keep CI
#: honest instead of flaky.
SCALAR_FLOORS = {"tall": 4.0, "wide": 3.0}


def test_e28_oph_speedup_floor(ingest_sweep, smoke):
    """Acceptance gate: OPH columnar ≥4x over the classic-scheme scalar
    path on the tall corpus (≥3x on wide, see :data:`SCALAR_FLOORS`) and
    ≥4.5x over legacy on every shape at production sizes (measured
    ≈5–7.5x; the module docstring decomposes why the classic-*columnar*
    delta alone is smaller)."""
    if smoke:
        return
    for r in ingest_sweep:
        floor = SCALAR_FLOORS[r["shape"]]
        assert r["vs_classic_scalar"] >= floor, (
            f"oph ingest only {r['vs_classic_scalar']}x faster than the "
            f"classic scalar path on {r['shape']} (floor {floor}x)"
        )
        assert r["vs_legacy"] >= 4.5, (
            f"oph ingest only {r['vs_legacy']}x faster than legacy "
            f"on {r['shape']}"
        )


# ---------------------------------------------------------------------------
# discovery-outcome equivalence across schemes
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
    """A classic and an OPH market holding the same multi-component
    corpus (E23's plan-cache corpus: within a component the key columns
    overlap completely, across components not at all, so the candidate
    set does not hang on estimator noise near the score threshold)."""
    markets = {}
    for scheme in ("classic", "oph"):
        market = DataMarket(
            internal_market(), num_perm=NUM_PERM, scheme=scheme
        )
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


def test_e28_band_keys_disjoint_by_scheme(scheme_markets):
    """The two schemes hash into different spaces, so their band keys
    must not collide — this is what makes cross-scheme stores unsafe
    and why replay refuses them."""
    classic, oph = scheme_markets["classic"], scheme_markets["oph"]
    cols_classic = classic.metadata.snapshot("user_ds0").profile.columns
    cols_oph = oph.metadata.snapshot("user_ds0").profile.columns
    for cc, co in zip(cols_classic, cols_oph):
        if cc.signature.count == 0:
            continue
        keys_classic = set(classic.index.lsh_band_keys(cc.signature))
        keys_oph = set(oph.index.lsh_band_keys(co.signature))
        assert not (keys_classic & keys_oph), cc.column


# ---------------------------------------------------------------------------
# durable-store replay: bit-identical OPH cold start, typed cross-scheme
# refusal
# ---------------------------------------------------------------------------

def test_e28_store_replay_bit_identical(tmp_path, bench_json):
    specs = build_corpus("tall", 800)
    path = tmp_path / "market.db"
    warm = DataMarket(
        internal_market(), num_perm=NUM_PERM, scheme="oph",
        store=MarketStore(path),
    )
    for relation in fresh_relations(specs):
        warm.register_dataset(relation, seller=f"s_{relation.name}")

    # a crash loses nothing the store holds: cold-start a fresh market
    # from the same file and demand bit-identical sketch state
    cold = DataMarket(
        internal_market(), num_perm=NUM_PERM, scheme="oph",
        store=MarketStore(path),
    )
    for name, _cols, _rows in specs:
        warm_cols = warm.metadata.snapshot(name).profile.columns
        cold_cols = cold.metadata.snapshot(name).profile.columns
        for cw, cc in zip(warm_cols, cold_cols):
            assert cw.signature.to_bytes() == cc.signature.to_bytes(), (
                cw.column
            )
            assert warm.index.lsh_band_keys(cw.signature) == (
                cold.index.lsh_band_keys(cc.signature)
            ), cw.column
    assert candidate_pairs(cold) == candidate_pairs(warm)

    # the same store must refuse to seed a classic-scheme market
    with pytest.raises(StoreError, match="scheme"):
        DataMarket(
            internal_market(), num_perm=NUM_PERM, scheme="classic",
            store=MarketStore(path),
        )

    bench_json(
        "E28",
        replay_bit_identical=1,
        cross_scheme_replay_refused=1,
    )
