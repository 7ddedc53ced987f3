"""Deferred provenance: vectors built on first read, equal to eager tagging.

A relation built from rows, and a relation a columnar collect returns,
hold a :class:`~repro.relation.provenance.DeferredProvenance` until their
``provenance`` is read.  The properties under test:

* **laziness** — collecting leaves the vector unbuilt; pass-through
  operators keep it unbuilt;
* **fidelity** — every vector read equals the one eager per-row tagging
  builds, and the iteration oracle's;
* **portability** — relations pickle and deep-copy before and after
  resolution, and a collected relation's deferred form holds no
  ``Relation``;
* **thread safety** — threads racing on the first read all see the same
  vector.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from oracles.execution import IterationEngine
from repro.platform.client import relation_from_wire
from repro.platform.http import relation_from_payload, relation_to_payload
from repro.relation import (
    Column,
    ColumnarEngine,
    ProvToken,
    Relation,
)
from repro.relation.provenance import DeferredProvenance, times

ITER = IterationEngine()
COL = ColumnarEngine()


def deferred(rel: Relation) -> bool:
    return isinstance(rel._prov, DeferredProvenance)


def eager(rel: Relation) -> Relation:
    """The same relation with its vector built up front."""
    return Relation(
        rel.name, rel.schema, rel.rows, provenance=list(rel.provenance)
    )


def facts(n: int = 12) -> Relation:
    return Relation(
        "facts",
        [Column("k", "int"), Column("grp", "str"), Column("v", "float")],
        [(i % 5, "ab"[i % 2], float(i)) for i in range(n)],
    )


def dims() -> Relation:
    return Relation(
        "dims",
        [Column("k", "int"), Column("label", "str")],
        [(k, f"L{k}") for k in range(5)] + [(1, "L1b"), (None, "null")],
    )


def tags() -> Relation:
    return Relation(
        "tags",
        [Column("label", "str"), Column("w", "int")],
        [("L0", 1), ("L1", 2), ("L1b", 3), ("L3", 4), ("L3", 5)],
    )


def three_way():
    return (
        facts().lazy()
        .join(dims().lazy(), on=["k"])
        .join(tags().lazy(), on=["label"])
        .project(["k", "grp", "v", "w"])
    )


# -- laziness + fidelity ----------------------------------------------------


def test_base_relation_defers_its_tags():
    rel = facts()
    assert deferred(rel)
    assert rel.provenance == tuple(ProvToken("facts", i) for i in range(12))
    assert not deferred(rel)
    assert rel.provenance is rel.provenance


def test_collected_three_way_join_resolves_on_first_read():
    tree = three_way()
    out = COL.execute(tree)
    assert len(out) > 0
    assert deferred(out)
    oracle = ITER.execute(tree)
    assert deferred(out)  # running the oracle does not touch it
    assert out.provenance == oracle.provenance
    assert not deferred(out)
    # flat products over all three leaves, as the eager join builds them
    assert all(len(p.children) == 3 for p in out.provenance)


def test_resolution_matches_eager_leaves():
    """Whether a leaf was read first or not, the vector is the same."""
    leaves = [facts(), dims(), tags()]
    for leaf in leaves[:2]:
        leaf.provenance  # some leaves resolved, one still deferred
    tree = (
        leaves[0].lazy()
        .join(leaves[1].lazy(), on=["k"])
        .join(leaves[2].lazy(), on=["label"])
        .where(grp="a")
    )
    out = COL.execute(tree)
    assert deferred(out)
    assert out.provenance == ITER.execute(three_way().where(grp="a")
                                          ).provenance


def test_collected_relation_as_a_leaf_resolves_through_both_levels():
    inner = COL.execute(three_way())
    assert deferred(inner)
    tree = (
        inner.lazy()
        .where(grp="b")
        .join(dims().lazy(), on=["k"])
    )
    out = COL.execute(tree)
    inner_form = inner._prov
    assert deferred(out) and inner_form.vector is None
    expected = ITER.execute(
        eager(ITER.execute(three_way())).lazy()
        .where(grp="b")
        .join(dims().lazy(), on=["k"])
    ).provenance
    assert out.provenance == expected
    # the outer read built the leaf's vector once, in the shared form
    assert inner_form.vector is not None and inner_form.parts == ()
    assert inner.provenance is inner_form.vector
    assert inner.provenance == ITER.execute(three_way()).provenance


def test_relations_collected_over_one_leaf_share_its_tags():
    """A leaf's tags are built on the first read of any relation collected
    over it; every later read indexes the same token objects."""
    leaf = facts()
    form = leaf._prov
    joined = COL.execute(leaf.lazy().join(dims().lazy(), on=["k"]))
    picked = COL.execute(leaf.lazy().where(grp="b").project(["v"]))
    assert form.vector is None
    joined.provenance
    assert deferred(leaf) and form.vector is not None
    leaf_ids = {id(t) for t in leaf.provenance}
    assert leaf.provenance is form.vector
    for vec in (joined.provenance, picked.provenance):
        tokens = [t for expr in vec for t in expr.tokens()]
        assert all(id(t) in leaf_ids for t in tokens if t.source == "facts")
    assert picked.provenance == tuple(
        ProvToken("facts", i) for i in range(1, 12, 2)
    )


def test_single_leaf_selection_indexes_the_leaf_vector():
    out = COL.execute(facts().lazy().where(grp="a").project(["v"]))
    assert deferred(out)
    assert out.provenance == tuple(
        ProvToken("facts", i) for i in range(0, 12, 2)
    )


PASS_THROUGH = {
    "project": lambda r: r.project(["v", "k"]),
    "rename": lambda r: r.rename({"v": "value"}),
    "renamed": lambda r: r.renamed("other"),
    "extend": lambda r: r.extend(Column("v2", "float"), lambda d: d["v"] * 2),
    "map_column": lambda r: r.map_column("v", lambda v: -v),
}


@pytest.mark.parametrize("op", sorted(PASS_THROUGH))
@pytest.mark.parametrize("make", [facts, lambda: COL.execute(three_way())],
                         ids=["base", "collected"])
def test_pass_through_operators_keep_the_deferred_form(op, make):
    rel = make()
    out = PASS_THROUGH[op](rel)
    assert deferred(rel) and deferred(out)
    assert out.provenance == eager(rel).provenance


INDEXING = {
    "head": lambda r, o: r.head(3),
    "limit": lambda r, o: r.limit(4),
    "select": lambda r, o: r.select(lambda d: d["v"] > 3.0),
    "where": lambda r, o: r.where(grp="b"),
    "distinct": lambda r, o: r.project(["k", "grp"]).distinct(),
    "union": lambda r, o: r.union(o),
    "join": lambda r, o: r.join(o, on=["k"]),
    "left_join": lambda r, o: r.left_join(o, on=["k"]),
    "aggregate": lambda r, o: r.aggregate(["grp"], {"n": ("*", "count")}),
    "order_by": lambda r, o: r.order_by(["v"], descending=True),
    "sample": lambda r, o: r.sample(3, np.random.default_rng(7)),
}


@pytest.mark.parametrize("op", sorted(INDEXING))
@pytest.mark.parametrize("make", [facts, lambda: COL.execute(three_way())],
                         ids=["base", "collected"])
def test_indexing_operators_return_the_eager_vector(op, make):
    rel, other = make(), make()
    if op in ("join", "left_join"):
        other = other.project(["k", "v"]).rename({"v": "v_o"})
    expected = INDEXING[op](eager(rel), eager(other)).provenance
    out = INDEXING[op](rel, other)
    assert out.provenance == expected


def test_base_indexing_vectors_name_the_tagged_rows():
    rel = facts()
    assert rel.where(grp="b").provenance == tuple(
        ProvToken("facts", i) for i in range(1, 12, 2)
    )
    joined = rel.join(dims(), on=["k"])
    assert joined.provenance[0] == times(
        ProvToken("facts", 0), ProvToken("dims", 0)
    )


def test_retag_defers_and_explicit_vectors_are_kept():
    retagged = COL.execute(three_way()).with_provenance_root("fresh")
    assert deferred(retagged)
    assert retagged.provenance == tuple(
        ProvToken("fresh", i) for i in range(len(retagged))
    )
    explicit = Relation("x", [Column("a", "int")], [(1,), (2,)],
                        provenance=[ProvToken("s", 5), ProvToken("s", 6)])
    assert not deferred(explicit)
    assert explicit.provenance == (ProvToken("s", 5), ProvToken("s", 6))


def test_codecs_build_deferred_relations():
    rel = facts()
    payload = relation_to_payload(rel)
    for rebuilt in (relation_from_payload(payload),
                    relation_from_wire(payload)):
        assert deferred(rebuilt)
        assert rebuilt.rows == rel.rows
        assert rebuilt.provenance == rel.provenance


# -- pickling, deep copies, what the deferred form holds ---------------------


def relations_under_test():
    base = facts()
    collected = COL.execute(three_way())
    derived = collected.rename({"w": "weight"}).renamed("derived")
    return {"base": base, "collected": collected, "derived": derived}


@pytest.mark.parametrize("kind", ["base", "collected", "derived"])
@pytest.mark.parametrize("resolve_first", [False, True],
                         ids=["deferred", "resolved"])
@pytest.mark.parametrize("clone", [
    lambda r: pickle.loads(pickle.dumps(r)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_relations_round_trip(kind, resolve_first, clone):
    rel = relations_under_test()[kind]
    expected = eager(relations_under_test()[kind]).provenance
    if resolve_first:
        rel.provenance
    twin = clone(rel)
    assert twin.name == rel.name
    assert twin.schema == rel.schema
    assert twin.rows == rel.rows
    assert deferred(twin) == (not resolve_first)
    assert twin.provenance == expected
    assert rel.provenance == expected


def _reachable(form):
    """Every object inside a deferred form's own structure."""
    seen, stack, out = set(), [form], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, DeferredProvenance):
            stack.extend((obj.length, obj.parts, obj.source, obj.vector))
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return out


def test_deferred_form_of_a_collected_relation_holds_no_relation():
    leaves = [facts(), dims(), tags()]
    leaves[1].provenance  # a mix of resolved tuples and deferred tags
    nested = COL.execute(
        leaves[0].lazy().join(leaves[1].lazy(), on=["k"])
    )
    tree = nested.lazy().join(leaves[2].lazy(), on=["label"])
    out = COL.execute(tree)
    form = out._prov
    assert isinstance(form, DeferredProvenance)
    reached = _reachable(form)
    assert not any(isinstance(obj, Relation) for obj in reached)
    for prov, idx in form.parts:
        assert isinstance(prov, (tuple, DeferredProvenance))
        assert idx is None or isinstance(idx, np.ndarray)
    assert any(isinstance(obj, np.ndarray) for obj in reached)


# -- concurrent first reads ---------------------------------------------------


def test_racing_first_reads_see_one_vector():
    n_threads = 12
    big = Relation(
        "big", [Column("k", "int"), Column("v", "int")],
        [(i % 400, i) for i in range(4000)],
    )
    side = Relation(
        "side", [Column("k", "int"), Column("s", "str")],
        [(k, f"s{k}") for k in range(400)],
    )
    tree = big.lazy().join(side.lazy(), on=["k"]).project(["v", "s"])
    expected = ITER.execute(tree).provenance
    out = COL.execute(tree)
    assert deferred(out)

    barrier = threading.Barrier(n_threads)
    seen: list = [None] * n_threads
    errors: list = []

    def read(slot: int) -> None:
        try:
            barrier.wait(timeout=30)
            seen[slot] = out.provenance
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=read, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert not errors
    assert all(vec == expected for vec in seen)
    assert all(vec is seen[0] for vec in seen)
    assert out.provenance is seen[0]
