"""E25 — Cost-based join trees + vectorized columnar kernels.

Two claims, one experiment file:

**Plan quality.**  The DoD planner's ``_connect`` used to pick join
paths by hop count and attach dimensions in attribute-mention order —
blind to how much each join multiplies the running cardinality.  The
cost model weights every edge by its profile-derived fan-out estimate
(PK/FK asymmetry recovered from MinHash jaccard + distinct counts) and
orders dimension joins by ascending estimated blow-up, so shrinking
joins run before multiplying ones.  Harness: a skewed star corpus where
``events`` fans out 5x and ``status`` covers a fraction of the fact
table.  Both planners must return the **same bag of rows**; the gate is
a ≥2x reduction in peak intermediate cardinality.

**Kernel throughput.**  Structured predicates (``Eq``/``In``/``Range``/
``And``) compile to numpy masks over whole column vectors instead of a
dict-per-row Python loop, and single-key equi-joins on int columns match
int64 key vectors (binary search in the right side's stable sort)
instead of probing a Python dict tuple-by-tuple.  The join is timed from
fresh relations, so building the int64 vectors and the sort counts
against it.  The iteration engine and the tuple-probe kernel are the
bit-identity oracles; the gates are a ≥5x select speedup at 50k rows
(full mode) and the join speedup floors in ``baselines.json``.

Smoke mode shrinks both corpora below timing-stable sizes and keeps the
identity assertions plus the plan-quality (peak-rows) gate, which is
deterministic at any size.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import pytest

from oracles.execution import IterationEngine
from oracles.planning import HopCountDoDEngine, install_planner
from repro.integration import MashupRequest
from repro.integration.plan import _qualify
from repro.mashup import MashupBuilder
from repro.relation import (
    And,
    Column,
    ColumnarEngine,
    In,
    LeafRelation,
    Range,
    Relation,
)
from repro.relation.engines import _int_join, _tuple_join


# ---------------------------------------------------------------------------
# plan-quality harness
# ---------------------------------------------------------------------------

def build_market(cost_model: bool, n_orders: int, dup: int, cover_frac: float):
    n_s = max(10, n_orders // 10)
    orders = Relation(
        "orders",
        [Column("code", "int"), Column("s_code", "int"),
         Column("f_val", "float")],
        [(i, i % n_s, float(i)) for i in range(n_orders)],
    )
    events = Relation(
        "events",
        [Column("code", "int"), Column("d_attr", "str")],
        [(i % n_orders, f"e{i}") for i in range(n_orders * dup)],
    )
    status = Relation(
        "status",
        [Column("s_code", "int"), Column("s_attr", "str")],
        [(i, f"st{i}") for i in range(int(n_s * cover_frac))],
    )
    b = MashupBuilder(min_overlap=0.15)
    if not cost_model:
        install_planner(b, HopCountDoDEngine)
    b.add_dataset(orders, owner="a")
    b.add_dataset(events, owner="b")
    b.add_dataset(status, owner="c")
    return b


def peak_rows(plan, resolver) -> int:
    tree = _qualify(resolver(plan.base))
    peak = tree.count()
    for step in plan.joins:
        tree = tree.join(
            _qualify(resolver(step.dataset)),
            on=list(step.pairs), keep_right=True,
        )
        peak = max(peak, tree.count())
    return peak


@pytest.fixture(scope="module")
def plan_quality(request):
    smoke = request.config.getoption("--smoke")
    n_orders, dup = (200, 5) if smoke else (4_000, 5)
    req = MashupRequest(attributes=["f_val", "d_attr", "s_attr"])

    results = {}
    for label, flag in (("cost", True), ("hops", False)):
        b = build_market(flag, n_orders, dup, cover_frac=0.2)
        t0 = time.perf_counter()
        mashup = b.build(req)[0]
        wall = time.perf_counter() - t0
        results[label] = {
            "mashup": mashup,
            "wall_s": wall,
            "peak": peak_rows(mashup.plan, b.metadata.relation),
            "order": [j.dataset for j in mashup.plan.joins],
            "estimates": list(b.dod.last_stats.cardinality_estimates),
        }

    bag = lambda m: sorted(map(repr, m.relation.rows))
    assert bag(results["cost"]["mashup"]) == bag(results["hops"]["mashup"])
    return {"rows": n_orders, "dup": dup, **results}


# ---------------------------------------------------------------------------
# kernel micro-bench
# ---------------------------------------------------------------------------

def select_corpus(n: int) -> Relation:
    rng = np.random.default_rng(25)
    tags = ["alpha", "beta", "gamma", "delta"]
    rows = [
        (int(i), float(f), tags[t])
        for i, f, t in zip(
            rng.integers(0, 1000, n),
            rng.normal(size=n),
            rng.integers(0, len(tags), n),
        )
    ]
    return Relation(
        "sel",
        [Column("i", "int"), Column("f", "float"), Column("t", "str")],
        rows,
    )


def timed(engine, tree):
    t0 = time.perf_counter()
    out = engine.execute(tree)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def kernel_speed(request):
    smoke = request.config.getoption("--smoke")
    n = 5_000 if smoke else 50_000
    rel = select_corpus(n)
    rel.columnar.materialize()
    # collect earlier benchmarks' cyclic garbage first: a collection that
    # fires inside the ~15 ms vectorized timing frees it there and can
    # take several times the kernel's own cost
    gc.collect()

    pred = And(Range("f", low=0.5, high=1.5), In("t", ("alpha",)))
    tree = LeafRelation(rel).select(pred)
    oracle, loop_s = timed(IterationEngine(), tree)
    fast, vec_s = timed(ColumnarEngine(), tree)
    assert fast.rows == oracle.rows and fast.provenance == oracle.provenance

    # the int64 join kernel vs the tuple-probe kernel on the same keys;
    # the int64 vectors and the right side's sort are built from fresh
    # relations inside the timed region
    rng = np.random.default_rng(26)
    lvals = [int(v) for v in rng.integers(0, n // 10, n)]
    rvals = list(range(n // 10))
    lk = np.empty(n, dtype=object)
    lk[:] = lvals
    rk = np.empty(n // 10, dtype=object)
    rk[:] = rvals
    left = Relation("l", [Column("k", "int")], [(v,) for v in lvals])
    right = Relation("r", [Column("k", "int")], [(v,) for v in rvals])
    gc.collect()
    t0 = time.perf_counter()
    tl, tr = _tuple_join([lk], [rk])
    tuple_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    il, ir = _int_join(
        *left.columnar.join_keys("k"), *right.columnar.join_order("k")
    )
    int_s = time.perf_counter() - t0
    assert list(tl) == list(il) and list(tr) == list(ir)

    return {
        "rows": n,
        "select_loop_s": loop_s,
        "select_vec_s": vec_s,
        "select_speedup": loop_s / vec_s,
        "join_tuple_s": tuple_s,
        "join_int_s": int_s,
        "join_speedup": tuple_s / int_s,
    }


# ---------------------------------------------------------------------------
# report + gates
# ---------------------------------------------------------------------------

def test_e25_report(plan_quality, kernel_speed, table, bench_json, smoke):
    p, k = plan_quality, kernel_speed
    peak_ratio = p["hops"]["peak"] / p["cost"]["peak"]
    table(
        ["planner", "join order", "peak rows", "build+exec (s)"],
        [
            ("hop-count", " → ".join(p["hops"]["order"]),
             str(p["hops"]["peak"]), f"{p['hops']['wall_s']:.3f}"),
            ("cost-based", " → ".join(p["cost"]["order"]),
             str(p["cost"]["peak"]), f"{p['cost']['wall_s']:.3f}"),
            ("ratio", "", f"{peak_ratio:.1f}x",
             f"{p['hops']['wall_s'] / p['cost']['wall_s']:.2f}x"),
        ],
        title=(
            f"E25: cost-based vs hop-count planning, "
            f"{p['rows']}-row fact × {p['dup']}x fan-out "
            f"(identical output bags)"
        ),
    )
    table(
        ["kernel", "row loop (s)", "vectorized (s)", "speedup"],
        [
            ("select And(Range, In)", f"{k['select_loop_s']:.4f}",
             f"{k['select_vec_s']:.4f}", f"{k['select_speedup']:.1f}x"),
            ("single-key equi-join", f"{k['join_tuple_s']:.4f}",
             f"{k['join_int_s']:.4f}", f"{k['join_speedup']:.1f}x"),
        ],
        title=f"E25: columnar kernels, {k['rows']} rows (bit-identical)",
    )
    est = p["cost"]["estimates"]
    bench_json(
        "E25",
        fact_rows=p["rows"],
        peak_rows_hops=p["hops"]["peak"],
        peak_rows_cost=p["cost"]["peak"],
        peak_ratio=round(peak_ratio, 2),
        hops_wall_s=round(p["hops"]["wall_s"], 4),
        cost_wall_s=round(p["cost"]["wall_s"], 4),
        cardinality_estimates=[
            [round(e, 1), a] for e, a in est
        ],
        kernel_rows=k["rows"],
        select_speedup=round(k["select_speedup"], 2),
        join_speedup=round(k["join_speedup"], 2),
        outputs_identical=True,
    )


def test_e25_cost_plan_shrinks_peak(plan_quality):
    """Acceptance gate (both modes — deterministic at any size): the
    cost-based plan's peak intermediate cardinality is ≥2x smaller."""
    p = plan_quality
    assert p["cost"]["order"][0] == "status"  # shrinking join first
    assert p["cost"]["peak"] * 2 <= p["hops"]["peak"], (
        f"cost plan peaked at {p['cost']['peak']} rows vs "
        f"{p['hops']['peak']} for the hop-count plan"
    )


def test_e25_vectorized_kernels_beat_row_loop(kernel_speed, smoke):
    """Acceptance gate: ≥5x select speedup at 50k rows (full mode).
    Smoke sizes are timing-noisy; the bit-identity asserts in the
    fixture still run, and we only require the vectorized path not to
    lose outright."""
    k = kernel_speed
    if smoke:
        assert k["select_speedup"] >= 1.0
        return
    assert k["select_speedup"] >= 5.0, (
        f"vectorized select only {k['select_speedup']:.1f}x at "
        f"{k['rows']} rows"
    )
    assert k["join_speedup"] >= 2.24, (
        f"int64 join only {k['join_speedup']:.1f}x"
    )
