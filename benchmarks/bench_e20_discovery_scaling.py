"""E20 — Incremental discovery maintenance vs. the full-rebuild oracle (§5).

The discovery layer must keep join candidates fresh as sellers register,
update and withdraw datasets.  The old ``IndexBuilder.refresh()`` re-scored
every column pair (O(C²)) on any change; the incremental pipeline consumes
typed metadata deltas and re-scores only LSH-bucketed neighbour columns of
the changed dataset, patching candidates and the join graph in place.

This benchmark registers corpora of hundreds of datasets (thousands of
columns), then performs single-dataset operations — update, new arrival,
retirement — timing the incremental patch against a full oracle rebuild and
asserting both modes produce **identical** candidate sets and graph edges.

Expected shape: ≥10x (in practice 100x+) advantage for the incremental path
at ≥200 datasets, growing with corpus size because the patch cost depends on
bucket occupancy, not corpus size.
"""

from __future__ import annotations

import random
import time

import pytest

from oracles.indexing import rebuilt_index
from repro.discovery import IndexBuilder, MetadataEngine
from repro.relation import Column, Relation

NUM_PERM = 32
N_ROWS = 80


def make_dataset(i: int, rng: random.Random, n_rows: int = N_ROWS) -> Relation:
    """Clustered corpus: datasets in the same cluster share key ranges
    (overlap signal), every third dataset carries a semantic tag (semantic
    signal), and the shared ``code`` column name links across clusters
    (name signal)."""
    offset = (i % 20) * 100
    columns = [
        Column("entity_id", "int", "entity" if i % 3 == 0 else None),
        Column("code", "str"),
        Column("metric", "float"),
        Column("flag", "str"),
    ]
    rows = [
        (
            offset + j,
            f"c{(offset + j) % 500}",
            round(rng.random() * 100, 4),
            "yes" if j % 2 else "no",
        )
        for j in range(n_rows)
    ]
    return Relation(f"ds_{i:04d}", columns, rows)


def perturb(relation: Relation, rep: int) -> Relation:
    """A new version of ``relation``: only the metric column moves."""
    rows = [
        (eid, code, round(metric + 1.0 + rep * 0.1, 4), flag)
        for eid, code, metric, flag in relation.rows
    ]
    return Relation(relation.name, list(relation.schema.columns), rows)


def canonical(index: IndexBuilder) -> list[tuple]:
    return [
        (c.left_dataset, c.left_column, c.right_dataset, c.right_column,
         c.score, c.evidence)
        for c in index.join_candidates()
    ]


def canonical_edges(index: IndexBuilder) -> dict:
    return {
        tuple(sorted((u, v))): (d["left"], d["right"], d["score"],
                                d["evidence"])
        for u, v, d in index.graph.edges(data=True)
    }


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def assert_identical(inc: IndexBuilder, oracle: IndexBuilder) -> None:
    assert canonical(inc) == canonical(oracle)
    assert canonical_edges(inc) == canonical_edges(oracle)


@pytest.fixture(scope="module")
def sweep(smoke):
    sizes = (20, 40) if smoke else (50, 120, 220)
    update_reps = 1 if smoke else 3
    rows = []
    for n in sizes:
        rng = random.Random(7)
        relations = [make_dataset(i, rng) for i in range(n)]
        engine = MetadataEngine(num_perm=NUM_PERM)
        inc = IndexBuilder(engine)
        # the oracle rebuilds only when timed: it takes no deltas
        oracle = IndexBuilder(engine, subscribe=False)
        engine.register_batch(relations)
        inc.join_candidates()  # prime: one full build into the LSH pipeline
        oracle.join_candidates()
        n_columns = sum(
            len(p.columns) for p in engine.profiles()
        )

        # single-dataset update: incremental patch vs full oracle rebuild
        target = relations[n // 2]
        t_inc = t_full = float("inf")
        for rep in range(update_reps):
            updated = perturb(target, rep)
            t_inc = min(t_inc, timed(lambda u=updated: engine.register(u)))
            t_full = min(t_full, timed(oracle.refresh))
            assert_identical(inc, oracle)
        ops = [("update", t_inc, t_full)]

        # a brand-new seller dataset arrives
        arrival = make_dataset(n + 1000, rng)
        t_arr = timed(lambda: engine.register(arrival))
        t_arr_full = timed(oracle.refresh)
        assert_identical(inc, oracle)
        ops.append(("arrival", t_arr, t_arr_full))

        # the seller withdraws it again
        t_ret = timed(lambda: engine.remove(arrival.name))
        t_ret_full = timed(oracle.refresh)
        assert_identical(inc, oracle)
        ops.append(("retire", t_ret, t_ret_full))

        for op, ti, tf in ops:
            rows.append(
                (n, n_columns, op, round(tf * 1000, 2), round(ti * 1000, 2),
                 round(tf / ti, 1), len(inc.join_candidates()))
            )
    return rows


def test_e20_report(sweep, table, bench_json):
    table(
        ["datasets", "columns", "op", "full rebuild (ms)",
         "incremental (ms)", "speedup", "candidates"],
        [(n, c, op, tf, ti, f"{s}x", k)
         for n, c, op, tf, ti, s, k in sweep],
        title="E20: discovery maintenance — LSH-bucketed incremental patch "
        "vs O(C²) rebuild",
    )
    bench_json(
        "E20",
        incremental_vs_rebuild={
            f"{n}_{op}": {"rebuild_ms": tf, "incremental_ms": ti,
                          "speedup": s}
            for n, _c, op, tf, ti, s, _k in sweep
        },
        candidate_sets_identical=True,  # asserted inside the sweep fixture
    )


def test_e20_incremental_update_10x_at_200_datasets(sweep, smoke):
    if smoke:
        pytest.skip("timing assertion is for full benchmark runs")
    speedups = {
        (n, op): s for n, _c, op, _tf, _ti, s, _k in sweep
    }
    assert speedups[(220, "update")] >= 10.0, (
        f"incremental update at 220 datasets is only "
        f"{speedups[(220, 'update')]}x faster than a full rebuild"
    )


def test_e20_candidate_sets_identical_under_churn(smoke):
    """Register/update/remove churn: incremental output stays equal to the
    oracle's (the sweep fixture asserts this after every op too)."""
    n = 12 if smoke else 40
    rng = random.Random(13)
    relations = [make_dataset(i, rng) for i in range(n)]
    engine = MetadataEngine(num_perm=NUM_PERM)
    inc = IndexBuilder(engine)
    engine.register_batch(relations)
    for i in (1, n // 2, n - 2):
        engine.register(perturb(relations[i], rep=i))
    engine.remove(relations[0].name)
    engine.register(make_dataset(n + 7, rng))
    assert_identical(inc, rebuilt_index(engine))
