"""Planner oracles: DoD engines that enumerate or connect the old way.

* :class:`ExhaustiveDoDEngine` scores every covering assignment in
  ``itertools.product`` order (capped at 200), then sorts by
  ``(score, shape)`` — the sweep the component-pruned best-first search
  replaced.  Both share scoring arithmetic and the tie-break, so their
  top-k plans are identical whenever the 200-assignment window is not
  exceeded.
* :class:`HopCountDoDEngine` connects assignments by the fewest-step join
  path (the best-scored predicate per hop, :func:`hop_join_path`) and
  attaches dimensions in assignment order — the heuristic the fan-out cost
  model replaced.  Both build the same bag of rows (inner equi-joins
  commute); the cost model keeps intermediates smaller.

:func:`install_planner` swaps either into a ``MashupBuilder`` (or a
``DataMarket``'s ``builder``) over the same discovery stack.
"""

from __future__ import annotations

import itertools

import networkx as nx

from repro.discovery import IndexBuilder, JoinPredicate
from repro.errors import DiscoveryError
from repro.integration import DoDEngine
from repro.integration.dod import _DATASET_PENALTY, _shape_key

#: the exhaustive sweep's historical cap on scored assignments
EXHAUSTIVE_CAP = 200


class ExhaustiveDoDEngine(DoDEngine):
    """DoD engine whose enumerator is the full product sweep."""

    def _assignments(self, per_attr, stats):
        """Score every covering assignment (capped at 200 in product
        order), then sort by (score, shape)."""
        stats.mode = "exhaustive"
        scored = []
        combos = itertools.islice(itertools.product(*per_attr), EXHAUSTIVE_CAP)
        for combo in combos:
            score = sum(c.score for c in combo) / len(combo)
            # prefer fewer datasets (cheaper mashups) at equal match quality
            n_datasets = len({c.dataset for c in combo})
            stats.assignments_scored += 1
            scored.append(
                (score - _DATASET_PENALTY * (n_datasets - 1),
                 _shape_key(combo), combo)
            )
        scored.sort(key=lambda t: (-t[0], t[1]))
        return ((score, combo) for score, _shape, combo in scored)


class HopCountDoDEngine(DoDEngine):
    """DoD engine whose connector is the hop-count heuristic."""

    def _join_order(self, base, rest):
        return list(rest)

    def _cost_path(self, start, target):
        return hop_join_path(self.index, start, target)

    def _path_cost(self, path):
        return len(path)


def hop_join_path(
    index: IndexBuilder, source: str, target: str
) -> list[JoinPredicate]:
    """Cheapest join path between two datasets (weight = 1 - score; for
    parallel edges networkx takes the cheapest, i.e. the best-scored
    predicate).  Each step is the best predicate of its pair — composite
    preferred on score ties, as joining on more equality pairs is more
    selective — oriented so ``left_dataset`` is the already-reached side."""
    g = index.graph
    if source not in g or target not in g:
        raise DiscoveryError(
            f"unknown dataset in join_path: {source!r} or {target!r}"
        )
    if index.component_of(source) != index.component_of(target):
        raise DiscoveryError(
            f"no join path between {source!r} and {target!r}"
        )
    try:
        # a callable weight on a MultiGraph receives the keyed dict of all
        # parallel edges: the pair's cost is its best predicate's
        nodes = nx.shortest_path(
            g, source, target,
            weight=lambda u, v, d: 1.0 - max(
                attrs["score"] for attrs in d.values()
            ),
        )
    except nx.NetworkXNoPath:  # pragma: no cover - component check above
        raise DiscoveryError(
            f"no join path between {source!r} and {target!r}"
        ) from None
    steps = []
    for u, v in zip(nodes, nodes[1:]):
        d = min(
            g.get_edge_data(u, v).values(),
            key=lambda d: (-d["score"], -len(d["pairs"]), d["pairs"]),
        )
        pred = JoinPredicate(
            d["left_dataset"],
            v if d["left_dataset"] == u else u,
            d["pairs"], d["score"], d["evidence"], d["pk_side"],
            d["fanout"],
        )
        if pred.left_dataset != u:
            pred = pred.reversed()
        steps.append(pred)
    return steps


def install_planner(builder, planner_cls: type[DoDEngine]) -> DoDEngine:
    """Replace ``builder.dod`` with a ``planner_cls`` engine over the same
    metadata, index and discovery, keeping its plan-cache settings."""
    old = builder.dod
    plan_cache, plan_cache_size = old.plan_cache, old.plan_cache_size
    old.detach()
    builder.dod = planner_cls(
        builder.metadata, builder.index, builder.discovery,
        plan_cache=plan_cache, plan_cache_size=plan_cache_size,
    )
    return builder.dod
