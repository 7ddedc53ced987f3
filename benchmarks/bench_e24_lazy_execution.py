"""E24 — Lazy relation algebra: pipelined columnar vs eager execution.

The PR 6 API redesign makes the mashup pipeline lazy: plans assemble an
immutable expression tree and nothing touches the rows until the tree is
collected on an engine.  The **iteration engine** (the test suite's
oracle, ``oracles.execution``) executes the tree with the eager operators
node-for-node — exactly the old ``MashupPlan.execute``
behavior, materializing every intermediate (an N-way join builds N-1 full
wide relations, then the final projection throws most of their columns
away).  The **columnar engine** pushes selections toward the leaves and
carries joins as per-leaf row-index arrays, assembling only the projected
output columns at the end — intermediates are never materialized.

Harness: a star-shaped 5-way mashup join (one fact table, four payload
dimensions on a shared entity key) projecting 6 of the ~40 joined columns,
exactly the plan shape the DoD planner emits.  Both engines run the same
tree; outputs must be **bit-identical** (rows, order, schema, name,
provenance).  Peak traced allocation and wall time are measured in
separate passes (tracemalloc skews timing).

Gate (full mode): pipelined columnar execution takes ≥2x less peak
transient memory OR ≥1.5x less wall time than the eager oracle.  Smoke
mode shrinks the corpus below timing-stable sizes and only keeps the
bit-identity assertions.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

import numpy as np
import pytest

from oracles.execution import IterationEngine
from repro.mashup import JoinStep, MashupPlan
from repro.relation import Column, ColumnarEngine, Relation

N_DATASETS = 5
N_PAYLOAD = 8  # per-dataset value columns; the 5-way join carries ~40


# ---------------------------------------------------------------------------
# corpus + plan
# ---------------------------------------------------------------------------

def build_world(n_rows: int):
    """Five joinable datasets over one entity domain + the star plan."""
    rng = np.random.default_rng(24)
    datasets = {}
    for i in range(N_DATASETS):
        name = f"ds_{i}"
        cols = [Column("entity_id", "int", "entity")]
        cols += [Column(f"{name}_v{j}", "float") for j in range(N_PAYLOAD)]
        rows = [
            (k, *(float(v) for v in rng.normal(size=N_PAYLOAD)))
            for k in range(n_rows)
        ]
        datasets[name] = Relation(name, cols, rows)
    plan = MashupPlan(
        base="ds_0",
        joins=[
            JoinStep(f"ds_{i}", "ds_0__entity_id", f"ds_{i}__entity_id")
            for i in range(1, N_DATASETS)
        ],
        output={
            "entity_id": "ds_0__entity_id",
            **{f"sig_{i}": f"ds_{i}__{'ds_%d' % i}_v0"
               for i in range(N_DATASETS)},
        },
    )
    return datasets, plan


def prewarm(datasets):
    """Build the memoized per-column views and the provenance vectors
    outside the measured region: inputs are resident in both systems; the
    bench measures execution-transient memory."""
    for rel in datasets.values():
        for name in rel.columns:
            rel.columnar.values(name)
        rel.provenance


def measure(engine, plan, resolver):
    """(relation, wall_seconds, peak_bytes) for one engine, fresh trees
    per pass so no batch/payload caching leaks across measurements.  Both
    passes read the result's provenance, so both engines build the same
    output whether the engine builds it eagerly or on first read."""
    # start from a collected heap: a full collection owed to the garbage
    # of earlier bench files would otherwise land in whichever short pass
    # allocates next (90 ms inside a 15 ms pass, traced in a full smoke run)
    gc.collect()
    t0 = time.perf_counter()
    relation = engine.execute(plan.build_tree(resolver))
    relation.provenance
    wall = time.perf_counter() - t0

    tracemalloc.start()
    traced = engine.execute(plan.build_tree(resolver))
    traced.provenance
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert traced.rows == relation.rows
    return relation, wall, peak


@pytest.fixture(scope="module")
def lazy_vs_eager(request):
    smoke = request.config.getoption("--smoke")
    n_rows = 1_500 if smoke else 20_000
    datasets, plan = build_world(n_rows)
    resolver = datasets.__getitem__
    prewarm(datasets)

    eager, eager_s, eager_peak = measure(
        IterationEngine(), plan, resolver
    )
    lazy, lazy_s, lazy_peak = measure(ColumnarEngine(), plan, resolver)

    # the whole point: engine choice must not be observable in the output
    assert lazy.rows == eager.rows
    assert lazy.schema == eager.schema
    assert lazy.name == eager.name
    assert lazy.provenance == eager.provenance
    assert len(lazy) == n_rows

    return {
        "rows": n_rows,
        "joined_columns": 1 + N_DATASETS * N_PAYLOAD,
        "output_columns": len(eager.columns),
        "eager_s": eager_s,
        "lazy_s": lazy_s,
        "eager_peak_mb": eager_peak / 2**20,
        "lazy_peak_mb": lazy_peak / 2**20,
        "time_ratio": eager_s / lazy_s,
        "mem_ratio": eager_peak / lazy_peak,
    }


# ---------------------------------------------------------------------------
# report + gates
# ---------------------------------------------------------------------------

def test_e24_report(lazy_vs_eager, table, bench_json, smoke):
    r = lazy_vs_eager
    table(
        ["mode", "wall (s)", "peak alloc (MB)"],
        [
            ("eager iteration", f"{r['eager_s']:.3f}",
             f"{r['eager_peak_mb']:.1f}"),
            ("pipelined columnar", f"{r['lazy_s']:.3f}",
             f"{r['lazy_peak_mb']:.1f}"),
            ("ratio", f"{r['time_ratio']:.2f}x", f"{r['mem_ratio']:.2f}x"),
        ],
        title=(
            f"E24: 5-way mashup join, {r['rows']} rows × "
            f"{r['joined_columns']} joined columns → "
            f"{r['output_columns']} projected (bit-identical outputs)"
        ),
    )
    bench_json(
        "E24",
        rows=r["rows"],
        joined_columns=r["joined_columns"],
        output_columns=r["output_columns"],
        eager_wall_s=round(r["eager_s"], 4),
        lazy_wall_s=round(r["lazy_s"], 4),
        eager_peak_mb=round(r["eager_peak_mb"], 2),
        lazy_peak_mb=round(r["lazy_peak_mb"], 2),
        time_ratio=round(r["time_ratio"], 2),
        mem_ratio=round(r["mem_ratio"], 2),
        outputs_identical=True,
    )


def test_e24_lazy_beats_eager(lazy_vs_eager, smoke):
    """Acceptance gate: ≥2x lower peak transient memory OR ≥1.5x lower
    wall time.  Smoke sizes are below timing-stable territory, but since
    the factorize join kernel landed the columnar engine wins even there
    — the smoke gate pins that down (it used to *lose* at smoke sizes,
    the old row-loop hash join being all Python overhead)."""
    r = lazy_vs_eager
    if smoke:
        assert r["time_ratio"] >= 1.0 or r["mem_ratio"] >= 1.5, (
            f"pipelined columnar regressed at smoke size: "
            f"{r['time_ratio']:.2f}x time, {r['mem_ratio']:.2f}x memory"
        )
        return
    assert r["mem_ratio"] >= 2.0 or r["time_ratio"] >= 1.5, (
        f"pipelined columnar gained only {r['mem_ratio']:.2f}x memory / "
        f"{r['time_ratio']:.2f}x time over eager execution"
    )
