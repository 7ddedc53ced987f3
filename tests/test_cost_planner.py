"""Cost-based join planning: fan-out stats, path choice, join ordering.

The skewed corpus used throughout: ``orders`` (the fact side, near-unique
``code``), ``events`` (several rows per code — joining it multiplies the
running cardinality) and ``status`` (a lookup covering only a fraction of
``orders.s_code`` — joining it *shrinks* the running cardinality).  A
hop-count planner attaches dimensions in attribute-mention order; the
cost model attaches the shrinking join first, so the multiplying join
runs over fewer rows and intermediates stay small, while the final bag
of rows is identical (inner equi-joins commute).  The hop-count planner is
the ``oracles.planning`` oracle (:class:`HopCountDoDEngine`).
"""

import random

import pytest

from oracles.planning import HopCountDoDEngine, install_planner
from repro.discovery import (
    DiscoveryEngine,
    FanoutEstimate,
    IndexBuilder,
    MetadataEngine,
    combine_composite,
    estimate_fanouts,
    profile_table,
)
from repro.integration import DoDEngine, MashupRequest
from repro.integration.plan import MashupPlan, _qualify
from repro.mashup import MashupBuilder
from repro.relation import Column, Relation


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def make_orders(n=200, n_s=50):
    return Relation(
        "orders",
        [Column("code", "int"), Column("s_code", "int"),
         Column("f_val", "float")],
        [(i, i % n_s, float(i)) for i in range(n)],
    )


def make_events(n=200, dup=5):
    return Relation(
        "events",
        [Column("code", "int"), Column("d_attr", "str")],
        [(i % n, f"e{i}") for i in range(n * dup)],
    )


def make_status(n_covered=10):
    return Relation(
        "status",
        [Column("s_code", "int"), Column("s_attr", "str")],
        [(i, f"st{i}") for i in range(n_covered)],
    )


def skew_builder(cost_model: bool, **kwargs) -> MashupBuilder:
    b = MashupBuilder(min_overlap=0.15, **kwargs)
    if not cost_model:
        install_planner(b, HopCountDoDEngine)
    b.add_dataset(make_orders(), owner="a")
    b.add_dataset(make_events(), owner="b")
    b.add_dataset(make_status(), owner="c")
    return b


REQUEST = MashupRequest(attributes=["f_val", "d_attr", "s_attr"])


def peak_intermediate_rows(plan: MashupPlan, resolver) -> int:
    """Largest cardinality the plan's join pipeline passes through,
    measured by executing each prefix of the join list."""
    tree = _qualify(resolver(plan.base))
    peak = tree.count()
    for step in plan.joins:
        right = _qualify(resolver(step.dataset))
        tree = tree.join(right, on=list(step.pairs), keep_right=True)
        peak = max(peak, tree.count())
    return peak


def row_bag(mashup):
    return sorted(map(repr, mashup.relation.rows))


# ---------------------------------------------------------------------------
# fan-out estimation units
# ---------------------------------------------------------------------------

def test_estimate_fanouts_pk_fk_asymmetry():
    # referenced (PK) side: 100 unique keys; referencing side: 400 rows
    # over the same 100 values -> joining FK->PK matches ~1 row, PK->FK ~4
    pk = Relation("pk", [Column("k", "int")], [(i,) for i in range(100)])
    fk = Relation(
        "fk", [Column("k", "int")], [(i % 100,) for i in range(400)]
    )
    a = profile_table(pk).column("k")
    b = profile_table(fk).column("k")
    jac = a.signature.jaccard(b.signature)
    est = estimate_fanouts(a, b, 100, 400, jac)
    assert est is not None
    assert est.lr == pytest.approx(4.0, rel=0.35)  # pk row -> fk matches
    assert est.rl == pytest.approx(1.0, rel=0.35)  # fk row -> pk matches
    assert est.reversed() == FanoutEstimate(est.rl, est.lr)


def test_estimate_fanouts_unknown_without_signal():
    pk = Relation("pk", [Column("k", "int")], [(i,) for i in range(10)])
    a = profile_table(pk).column("k")
    assert estimate_fanouts(a, a, 10, 10, 0.0) is None


def test_combine_composite_takes_member_minimum():
    e1 = FanoutEstimate(4.0, 1.0)
    e2 = FanoutEstimate(2.0, 3.0)
    assert combine_composite([e1, e2]) == FanoutEstimate(2.0, 1.0)
    assert combine_composite([None, e1]) == e1
    assert combine_composite([None, None]) is None
    assert combine_composite([]) is None


def test_join_graph_edges_carry_fanouts():
    engine = MetadataEngine()
    index = IndexBuilder(engine, min_overlap=0.15)
    engine.register(make_orders(), owner="a")
    engine.register(make_events(), owner="b")
    engine.register(make_status(), owner="c")
    fanouts = {
        frozenset((u, v)): data["fanout"]
        for u, v, data in index.graph.edges(data=True)
    }
    ev = fanouts[frozenset(("orders", "events"))]
    assert ev is not None
    lr = ev.lr if ev.lr > ev.rl else ev.rl  # orders -> events direction
    assert lr == pytest.approx(5.0, rel=0.35)
    st = fanouts[frozenset(("orders", "status"))]
    assert st is not None
    assert min(st.lr, st.rl) < 1.0  # the shrinking direction


# ---------------------------------------------------------------------------
# cost-based vs hop-count planning
# ---------------------------------------------------------------------------

def test_cost_plan_orders_selective_join_first():
    cost = skew_builder(cost_model=True)
    hops = skew_builder(cost_model=False)
    m_cost = cost.build(REQUEST)[0]
    m_hops = hops.build(REQUEST)[0]
    assert [j.dataset for j in m_cost.plan.joins] == ["status", "events"]
    assert [j.dataset for j in m_hops.plan.joins] == ["events", "status"]


def test_cost_plan_halves_peak_with_identical_output():
    cost = skew_builder(cost_model=True)
    hops = skew_builder(cost_model=False)
    m_cost = cost.build(REQUEST)[0]
    m_hops = hops.build(REQUEST)[0]
    assert row_bag(m_cost) == row_bag(m_hops)
    peak_cost = peak_intermediate_rows(
        m_cost.plan, cost.metadata.relation
    )
    peak_hops = peak_intermediate_rows(
        m_hops.plan, hops.metadata.relation
    )
    assert peak_cost * 2 <= peak_hops


def test_join_steps_record_fanout_estimates():
    cost = skew_builder(cost_model=True)
    plan = cost.build(REQUEST)[0].plan
    by_ds = {j.dataset: j for j in plan.joins}
    assert by_ds["events"].fanout == pytest.approx(5.0, rel=0.35)
    assert by_ds["status"].fanout is not None
    assert by_ds["status"].fanout < 1.0


def test_cardinality_estimates_recorded():
    cost = skew_builder(cost_model=True)
    mashup = cost.build(REQUEST)[0]
    estimates = cost.dod.last_stats.cardinality_estimates
    assert estimates
    est, actual = estimates[0]
    assert actual == len(mashup.relation)
    # the skew corpus is estimator-friendly: expect the right magnitude
    assert est == pytest.approx(actual, rel=0.5)


@pytest.mark.parametrize("seed", range(4))
def test_property_cost_matches_heuristic_with_no_worse_peak(seed):
    """Randomized star corpora (disjoint key spaces, full containment on
    the fanning dimension): the cost-based plan returns the same bag of
    rows as the hop-count plan and never a larger peak intermediate."""
    rng = random.Random(seed)
    n_f = rng.randrange(80, 160)
    dup = rng.randrange(2, 6)
    cover = rng.randrange(10, 25)
    n_s = 40
    orders = Relation(
        "orders",
        [Column("code", "int"), Column("s_code", "int"),
         Column("f_val", "float")],
        [(i, 10_000 + i % n_s, float(i)) for i in range(n_f)],
    )
    events = Relation(
        "events",
        [Column("code", "int"), Column("d_attr", "str")],
        [(i % n_f, f"e{i}") for i in range(n_f * dup)],
    )
    status = Relation(
        "status",
        [Column("s_code", "int"), Column("s_attr", "str")],
        [(10_000 + i, f"st{i}") for i in range(cover)],
    )
    attrs = ["f_val", "d_attr", "s_attr"]
    rng.shuffle(attrs)
    request = MashupRequest(attributes=["f_val"] + [
        a for a in attrs if a != "f_val"
    ])
    builders = {}
    for flag in (True, False):
        b = MashupBuilder(min_overlap=0.1)
        if not flag:
            install_planner(b, HopCountDoDEngine)
        b.add_dataset(orders, owner="a")
        b.add_dataset(events, owner="b")
        b.add_dataset(status, owner="c")
        builders[flag] = b
    m_cost = builders[True].build(request)
    m_hops = builders[False].build(request)
    assert m_cost and m_hops
    assert row_bag(m_cost[0]) == row_bag(m_hops[0])
    peak_cost = peak_intermediate_rows(
        m_cost[0].plan, builders[True].metadata.relation
    )
    peak_hops = peak_intermediate_rows(
        m_hops[0].plan, builders[False].metadata.relation
    )
    assert peak_cost <= peak_hops


# ---------------------------------------------------------------------------
# path memoization
# ---------------------------------------------------------------------------

def test_join_paths_memoized_across_builds():
    b = skew_builder(cost_model=True, plan_cache=False)
    b.build(REQUEST)
    first = b.dod.last_stats
    assert first.path_cache_misses > 0
    b.build(REQUEST)
    second = b.dod.last_stats
    assert second.path_cache_misses == 0
    assert second.path_cache_hits > 0


def plans_of(b: MashupBuilder, request: MashupRequest, dod=None) -> list:
    """``request`` planned by ``dod``, by default a fresh engine over the
    same indexes: no match, path, step or plan memo carried over."""
    if dod is None:
        dod = DoDEngine(
            b.metadata, b.index,
            DiscoveryEngine(b.metadata, b.index, subscribe=False),
            plan_cache=False,
        )
    mashups = dod.build_mashups(request)
    return [(m.plan, m.matched, m.missing) for m in mashups]


def test_path_memo_invalidated_by_graph_change():
    """A join path reads only its start's component: a registration in
    another component keeps every memoized path, a delta inside the
    path's component forces fresh searches, and both plan as a rebuild
    with every memo cleared does.  Each request differs in its limit, so
    the plan cache never answers it."""
    b = skew_builder(cost_model=True)
    b.build(REQUEST)
    b.add_dataset(
        Relation("misc", [Column("zz", "str")], [("x",), ("y",)]),
        owner="d",
    )
    assert b.index.component_of("misc") != b.index.component_of("orders")
    again = MashupRequest(attributes=REQUEST.attributes, max_results=4)
    assert plans_of(b, again, b.dod) == plans_of(b, again)
    assert b.dod.last_stats.path_cache_misses == 0
    assert b.dod.last_stats.path_cache_hits > 0
    b.add_dataset(make_status(n_covered=20), owner="c")
    changed = MashupRequest(attributes=REQUEST.attributes, max_results=3)
    assert plans_of(b, changed, b.dod) == plans_of(b, changed)
    assert b.dod.last_stats.path_cache_misses > 0


def test_path_memo_cleared_by_graph_change_without_deltas():
    """A planner without the delta subscription clears its path memo at
    every graph change, as it cannot see a dataset leave and return."""
    b = skew_builder(cost_model=True, plan_cache=False)
    b.build(REQUEST)
    b.add_dataset(
        Relation("misc", [Column("zz", "str")], [("x",), ("y",)]),
        owner="d",
    )
    assert plans_of(b, REQUEST, b.dod) == plans_of(b, REQUEST)
    assert b.dod.last_stats.path_cache_misses > 0


def test_hop_mode_plans_unchanged_by_memoization():
    plain = skew_builder(cost_model=False)
    memo = skew_builder(cost_model=False, plan_cache=False)
    memo.build(REQUEST)
    a = plain.build(REQUEST)[0].plan.describe()
    b = memo.build(REQUEST)[0].plan.describe()
    assert a == b


# ---------------------------------------------------------------------------
# path-memo lifecycle (detach / re-attach)
# ---------------------------------------------------------------------------

def test_path_memo_cleared_on_detach():
    b = skew_builder(cost_model=True, plan_cache=False)
    b.build(REQUEST)
    assert b.dod._path_cache  # warm after a cost-model build
    b.dod.detach()
    assert b.dod._path_cache == {}
    assert b.dod._path_cache_version == -1
    assert b.dod._path_cache_index is None


def test_path_memo_not_served_after_reattach_to_other_index():
    """Re-pointing an engine at a *different* index whose graph-version
    counter happens to coincide must not serve the old graph's memoized
    paths — the memo is keyed by index identity, not just version."""
    a = skew_builder(cost_model=True, plan_cache=False)
    b = skew_builder(cost_model=True, plan_cache=False)
    a.build(REQUEST)
    b.build(REQUEST)
    # identically-built stacks: the version counters coincide, which is
    # exactly the case a version-only memo check cannot see through
    assert a.index.graph_version == b.index.graph_version
    dod = a.dod
    # re-point without detach: the warm memo carries a's paths under the
    # same version number — only the identity token invalidates them
    dod.index = b.index
    dod.discovery = b.discovery
    dod.engine = b.metadata
    mashups = dod.build_mashups(REQUEST)
    assert mashups
    assert dod.last_stats.path_cache_misses > 0
    assert dod._path_cache_index is b.index
    assert row_bag(mashups[0]) == row_bag(b.build(REQUEST)[0])


# ---------------------------------------------------------------------------
# equal-cost paths: one plan whatever the hash seed, live or cold-started
# ---------------------------------------------------------------------------

_TIE_SCRIPT = """
import json, os, tempfile
from repro import DataMarket
from repro.relation import Column, Relation

def rel(name, cols, rows):
    return Relation(name, [Column(c, "int") for c in cols], rows)

def joins(market):
    best = market.plan(["sv", "tv"]).best
    return [best.plan.base] + [step.dataset for step in best.plan.joins]

with tempfile.TemporaryDirectory() as work:
    path = os.path.join(work, "market.db")
    market = DataMarket(store=path)
    # a and b hold the same rows: s-a-t and s-b-t cost the same
    for name, cols, rows in (
        ("s", ["k", "sv"], [(i, 3 * i) for i in range(40)]),
        ("b", ["k", "m"], [(i, i + 100) for i in range(40)]),
        ("a", ["k", "m"], [(i, i + 100) for i in range(40)]),
        ("t", ["m", "tv"], [(i + 100, 7 * i) for i in range(40)]),
    ):
        market.register_dataset(rel(name, cols, rows), seller="x")
    print(json.dumps([joins(market), joins(DataMarket(store=path))]))
"""


def test_equal_cost_paths_plan_alike_under_every_hash_seed():
    """Live edges are added in the iteration order of a set of names and
    replay adds them in sorted order, so the graph's adjacency order
    depends on the hash seed and on the history; the path search must not
    break cost ties by it."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    procs = []
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _TIE_SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    plans = set()
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        live, cold = json.loads(out)
        plans.update((tuple(live), tuple(cold)))
    assert plans == {("s", "a", "t")}
