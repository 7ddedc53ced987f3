"""The Dataset-on-Demand (DoD) engine (Fig. 3, right).

"The DoD engine takes WTP-functions as input and produces mashups that
fulfill the WTP-function requests as output.  It uses the indexes built by
the index builder, the output schema generated by the metadata engine, as
well as the raw data.  The DoD relies on query reverse engineering and
query-by-example techniques, as well as program-synthesis, among others"
(Section 5.3).

Given a :class:`MashupRequest` (desired attributes, optional query-by-example
rows, optional negotiation hints) the engine:

1. resolves each requested attribute to candidate columns via discovery;
2. for unresolved attributes, attempts *program synthesis*: align the
   buyer's example values with reachable columns through a join and fit a
   mapping function (the paper's ``f'``);
3. applies negotiation hints (mapping info volunteered by sellers);
4. enumerates covering dataset combinations, connects them with join paths
   from the relationship graph, and emits executable :class:`MashupPlan`s
   ranked by match quality.

Plan enumeration is **join-graph-driven**: a component-pruned best-first
search expands one attribute at a time, discards any partial assignment
whose datasets span disconnected components of the relationship graph
*before* scoring it, and emits complete assignments lazily in exact
best-score order (the dataset-count penalty only grows as attributes are
added, so the frontier bound is admissible).  Scoring arithmetic and the
deterministic ``(score, shape)`` tie-break match the exhaustive
``itertools.product`` sweep the test suite keeps as its reference oracle,
so the top-k plans of both are identical whenever the oracle's
200-combination window is not exceeded.  :class:`PlannerStats`
(``DoDEngine.last_stats``) counts assignments scored and pruned.

Join-tree construction is **cost-based**: instead of taking the
hop-count-shortest join path regardless of blow-up, ``_connect`` searches
the relationship graph with an additive cost model over the per-edge
fan-out estimates the index derives from profile stats (see
:mod:`repro.discovery.stats`) — ``log1p(fan-out)`` per edge plus a
predicate-quality term ``(1 - score)`` and a constant hop charge — and
dimension joins are attached onto the fact base in ascending estimated
blow-up order, so low-fan-out (FK→PK-shaped) joins shrink or hold the
running cardinality before any fanning join multiplies it.  Estimated vs.
actual output cardinalities of every executed plan are recorded in
:attr:`PlannerStats.cardinality_estimates`.  Join paths are memoized per
(start, target), and step costs per dataset.  A path from
``start`` reads only ``start``'s connected component, so each memo entry
records that component's fingerprint, and a planner subscribed to the
metadata deltas keeps it through every graph change that leaves the
fingerprint live: replanning never repeats a shortest-path search inside
a component no delta touched.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..discovery import (
    DiscoveryEngine,
    IndexBuilder,
    JoinPredicate,
    MetadataEngine,
)
from ..errors import (
    DiscoveryError,
    IntegrationError,
    SchemaError,
    SynthesisError,
)
from ..relation import Processor, Relation, RelationExpr
from .plan import JoinStep, Mashup, MashupPlan, TransformStep, qualified
from .synthesis import (
    AffineMap,
    DictionaryMap,
    MappingFunction,
    synthesize_mapping,
)


@dataclass(frozen=True)
class TransformHint:
    """Seller-volunteered mapping info (the outcome of a negotiation round):
    ``dataset.column`` transformed by ``mapping`` yields ``target_attribute``.
    """

    dataset: str
    column: str
    target_attribute: str
    mapping: MappingFunction


@dataclass
class MashupRequest:
    """What the buyer's WTP-function asks the DoD engine for."""

    attributes: list[str]
    #: attribute used to align rows (the join key of the buyer's world)
    key: str | None = None
    #: query-by-example relation: key column + example values of requested
    #: attributes the buyer already knows (enables synthesis of f')
    examples: Relation | None = None
    hints: list[TransformHint] = field(default_factory=list)
    max_results: int = 5
    min_match_score: float = 0.55


@dataclass(frozen=True)
class _Candidate:
    """One way to obtain a requested attribute."""

    attribute: str
    dataset: str
    column: str
    score: float
    transform: MappingFunction | None = None


@dataclass
class PlanCacheStats:
    """Cumulative plan-cache counters for one :class:`DoDEngine`.

    The cache memoizes ``build_mashups`` results keyed on the request's
    attribute set (plus key/limits).  Invalidation is **component-scoped**:
    each entry remembers the join-graph component fingerprints its result
    depended on, and is evicted only when one of those components changed
    (or a delta introduced a column that could newly match one of the
    entry's attributes) — unrelated seller churn leaves it servable.
    Eviction, and so ``invalidations``, happens at the evicting delta.
    """

    hits: int = 0
    misses: int = 0
    #: requests that bypassed the cache — hints and query-by-example
    #: payloads are content-hashed into the key, so only a hint carrying a
    #: mapping whose content defies hashing lands here
    uncacheable: int = 0
    #: entries evicted because a delta touched a component they depended
    #: on, or could have added a new candidate for their attributes
    invalidations: int = 0
    #: entries evicted by the LRU capacity bound
    lru_evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.uncacheable


@dataclass
class PlannerStats:
    """Work counters for one ``build_mashups`` call (``last_stats``)."""

    mode: str = "beam"
    #: True when the whole call was served from the plan cache
    cache_hit: bool = False
    #: complete covering assignments evaluated (scored) by the enumerator
    assignments_scored: int = 0
    #: partial assignments discarded because their datasets span
    #: disconnected components of the relationship graph
    pruned_disconnected: int = 0
    #: partial states expanded by the best-first search
    states_expanded: int = 0
    #: distinct-shaped assignments handed to the join-tree planner
    plans_attempted: int = 0
    #: plans that actually produced a join tree
    plans_built: int = 0
    #: join-path lookups served from the (start, target) memo, whose
    #: entries live while their start's component fingerprint does, vs.
    #: computed fresh by a shortest-path search
    path_cache_hits: int = 0
    path_cache_misses: int = 0
    #: per executed plan, in emission order: (estimated output rows — the
    #: base size times the product of per-step fan-out estimates — and the
    #: actual row count the execution check measured)
    cardinality_estimates: list[tuple[float, int]] = field(
        default_factory=list
    )


@dataclass
class _PlanCacheEntry:
    """One memoized ``build_mashups`` result plus its dependency footprint.

    ``fingerprints`` are the join-graph component fingerprints (from
    :meth:`IndexBuilder.component_fingerprints`) of every dataset that
    matched one of the request's attributes when the entry was built —
    join paths, intermediate datasets and executed relations all live
    inside those components, so the entry is servable exactly while every
    fingerprint is still current.  ``attributes``/``min_score`` let the
    delta listener evict entries a *new* column could now match (the one
    change component fingerprints cannot see)."""

    mashups: list[Mashup]
    fingerprints: frozenset[str]
    attributes: tuple[str, ...]
    min_score: float
    #: datasets referenced by the request's hints — a delta touching one
    #: of them evicts the entry even when no attribute name matches
    hint_datasets: frozenset[str] = frozenset()


def _copy_mashup(m: Mashup) -> Mashup:
    """Fresh mutable wrappers around a cached mashup's immutable payload.

    The result *tree* is immutable and shared between hits — so the first
    caller to materialize it memoizes the relation for every copy — but
    ``Mashup``/``MashupPlan`` wrappers and their lists/dicts are mutable
    objects that flow to callers (and, via the arbiter, near
    buyer-supplied task code): each hit gets its own copies so no caller
    can poison the cache for later requests.
    """
    plan = m.plan
    return Mashup(
        plan=MashupPlan(
            base=plan.base,
            joins=list(plan.joins),
            transforms=list(plan.transforms),
            output=dict(plan.output),
        ),
        relation=m._relation,
        matched=dict(m.matched),
        missing=m.missing,
        tree=m.tree,
    )


def _mapping_key(mapping: MappingFunction) -> tuple:
    """Content identity of a hint's mapping function (cache-key safe)."""
    if isinstance(mapping, AffineMap):
        return ("affine", mapping.a, mapping.b)
    if isinstance(mapping, DictionaryMap):
        digest = hashlib.sha256(
            "".join(
                sorted(f"{k!r}\x1f{v!r}\x1e" for k, v in mapping.mapping.items())
            ).encode()
        ).hexdigest()
        return ("dict", digest)
    return ("repr", repr(mapping))


def _hint_key(hint: TransformHint) -> tuple:
    return (
        hint.dataset,
        hint.column,
        hint.target_attribute,
        _mapping_key(hint.mapping),
    )


def _candidate_rank(c: _Candidate) -> tuple:
    """Deterministic candidate order: best score first, ties broken on
    (dataset, column) and direct-before-transformed — equal-score plans are
    stable across runs and identical to the exhaustive oracle's."""
    return (-c.score, c.dataset, c.column, c.transform is not None)


def _shape_key(combo) -> tuple:
    """Order-insensitive identity of an assignment (also the tie-break)."""
    return tuple(sorted((c.dataset, c.column, c.attribute) for c in combo))


#: per-attribute candidate fan-out of the plan enumerator
_PER_ATTRIBUTE_FANOUT = 3
#: penalty per extra dataset in an assignment (cheaper mashups first)
_DATASET_PENALTY = 0.05
#: constant per-edge charge in the cost model (prefers fewer joins when
#: fan-outs and scores tie)
_HOP_COST = 0.01


class DoDEngine:
    """Assembles mashups from discovery results + synthesis + hints.

    ``plan_cache`` (default on) memoizes whole ``build_mashups`` results
    keyed on the request identity.  Invalidation is **component-scoped**:
    every entry records the join-graph component fingerprints its result
    depended on, and the engine's metadata-delta subscription evicts it
    at the first delta after which one of them is no longer current, or
    whose new or renamed columns could match one of its attributes — so
    steady-state plan streams survive churn in unrelated components
    instead of losing the whole cache on any delta.  ``plan_cache_size``
    bounds the entry count with LRU eviction.  Requests carrying hints or
    query-by-example payloads bypass the cache (their identity is not
    hashable); :attr:`cache_stats` counts hits/misses/evictions.
    """

    def __init__(
        self,
        engine: MetadataEngine,
        index: IndexBuilder,
        discovery: DiscoveryEngine,
        plan_cache: bool = True,
        plan_cache_size: int = 128,
    ):
        self.engine = engine
        self.index = index
        self.discovery = discovery
        if plan_cache_size < 1:
            raise IntegrationError("plan_cache_size must be >= 1")
        self.processor = Processor()
        #: join-path memo: (start, target) -> (fingerprint of start's
        #: component, path or None); :meth:`_sync_memos` decides how long
        #: an entry lives
        self._path_cache: dict[tuple[str, str], tuple] = {}
        #: per dataset, under the same rule: (its component's fingerprint,
        #: its neighbours with the cost of stepping to each, and per
        #: neighbour the count of edges that mark the neighbour the PK side)
        self._step_cache: dict[str, tuple] = {}
        #: the graph version and index object the memos were last synced to
        self._path_cache_version = -1
        self._path_cache_index: IndexBuilder | None = None
        #: serializes cache mutation against concurrent readers — the
        #: service layer calls ``build_mashups`` from many reader threads
        #: while the metadata subscription mutates the same OrderedDict
        self._lock = threading.RLock()
        self.plan_cache = plan_cache
        self.plan_cache_size = plan_cache_size
        self._plan_cache: OrderedDict[tuple, _PlanCacheEntry] = OrderedDict()
        self.cache_stats = PlanCacheStats()
        self.last_stats = PlannerStats()
        self._subscription = (
            engine.subscribe(self._on_delta) if plan_cache else None
        )

    def detach(self) -> None:
        """Unsubscribe from the metadata engine (idempotent) and disable
        the plan cache — without delta-driven eviction it could serve (or
        newly cache, then serve) entries a later column match should have
        invalidated, since component fingerprints alone cannot see brand
        new components."""
        if self._subscription is not None:
            self.engine.unsubscribe(self._subscription)
            self._subscription = None
        self.plan_cache = False
        with self._lock:
            self._plan_cache.clear()
            # the join-path memo must not survive either: a later re-attach
            # to a *different* index whose graph_version coincides with the
            # memoized one would otherwise serve paths from the old graph
            self._path_cache.clear()
            self._step_cache.clear()
            self._path_cache_version = -1
            self._path_cache_index = None

    # ------------------------------------------------------------------
    def _cache_key(self, request: MashupRequest) -> tuple | None:
        """Hashable request identity, or None when the request must bypass
        the cache.

        Hints and query-by-example payloads are **content-hashed** into
        the key — hint identity is (dataset, column, attribute, mapping
        content), example identity is the relation's order-insensitive
        ``content_hash`` — so those requests are served from the cache
        too.  Only a mapping whose content cannot be rendered hashable
        falls back to a bypass."""
        if not self.plan_cache:
            return None
        try:
            hints_key = tuple(sorted(_hint_key(h) for h in request.hints))
        except Exception:
            return None  # exotic mapping content: stay conservative
        examples_key = None
        if request.examples is not None:
            examples_key = request.examples.content_hash()
            # the digest's ranks and packed rows serve profiling only
            request.examples.columnar.release()
        return (
            tuple(request.attributes),
            request.key,
            request.max_results,
            request.min_match_score,
            hints_key,
            examples_key,
        )

    def _request_attributes(self, request: MashupRequest) -> tuple[str, ...]:
        attrs = list(request.attributes)
        if request.key is not None and request.key not in attrs:
            attrs = [request.key] + attrs
        return tuple(attrs)

    def _request_fingerprints(
        self, request: MashupRequest
    ) -> frozenset[str]:
        """Component fingerprints of every dataset matching one of the
        request's attributes (the discovery lookups are memo-warm — the
        build that preceded this call issued the identical queries)."""
        fps = set()
        for attr in self._request_attributes(request):
            for m in self.discovery.match_attribute(
                attr, min_score=request.min_match_score
            ):
                fp = self.index.component_fingerprint_of(m.dataset)
                if fp is not None:
                    fps.add(fp)
        for hint in request.hints:
            fp = self.index.component_fingerprint_of(hint.dataset)
            if fp is not None:
                fps.add(fp)
        return frozenset(fps)

    def _on_delta(self, delta) -> None:
        """Drop, at the delta, every memo entry the delta can change.

        :meth:`_sync_memos` evicts every plan, path and step entry whose
        component fingerprints are no longer all live — a change *inside*
        a component an entry depends on, including removals and
        merges/splits.  The one blind spot is a column that newly matches
        an entry's attributes from a component the entry never depended
        on; scoring the delta's columns against each entry's attributes
        (the same arithmetic discovery uses) closes it.  Only a delta that
        adds or renames columns (or retags them) can bring such a column:
        a same-schema update scores exactly as before.  An entry whose
        hints name the delta's dataset goes too.
        """
        with self._lock:
            if self._plan_cache or self._path_cache or self._step_cache:
                self._sync_memos()
            if delta.snapshot is None or not self._plan_cache:
                return  # removals are fully covered by fingerprints
            columns = (
                () if delta.keeps_columns else delta.snapshot.profile.columns
            )
            score = DiscoveryEngine._attribute_score
            for key, entry in list(self._plan_cache.items()):
                if delta.dataset in entry.hint_datasets or any(
                    score(attr, col) >= entry.min_score
                    for col in columns
                    for attr in entry.attributes
                ):
                    del self._plan_cache[key]
                    self.cache_stats.invalidations += 1

    def _sync_memos(self) -> None:
        """Keep exactly the memo entries the index still vouches for.

        A new graph version keeps each path, step and plan entry whose
        component fingerprints are all still live: everything such an
        entry read (its component's members, edges, fan-outs, scores,
        ``pk_side`` and row counts) is a function of the members'
        profiles, which the fingerprint covers.  ``build_mashups`` runs
        this before it reads any memo, and the delta listener at every
        delta, so a stale entry leaves at the delta that made it stale.

        A planner without the delta subscription (``plan_cache=False``,
        or detached) cannot see a dataset leave and return with the same
        content between two builds: its fingerprint comes back, but its
        edges are re-oriented by the new registration order.  Such a
        planner, and any planner given a different index object, clears
        the path and step memos at every graph change instead."""
        index = self.index
        version = index.graph_version
        if (
            index is self._path_cache_index
            and version == self._path_cache_version
        ):
            return
        if index is not self._path_cache_index or self._subscription is None:
            self._path_cache.clear()
            self._step_cache.clear()
        self._path_cache_index = index
        self._path_cache_version = version
        if not (self._path_cache or self._step_cache or self._plan_cache):
            return
        live = index.component_fingerprint_set()
        self._path_cache = {
            k: e for k, e in self._path_cache.items() if e[0] in live
        }
        self._step_cache = {
            k: e for k, e in self._step_cache.items() if e[0] in live
        }
        for key, entry in list(self._plan_cache.items()):
            if not entry.fingerprints <= live:
                del self._plan_cache[key]
                self.cache_stats.invalidations += 1

    def build_mashups(self, request: MashupRequest) -> list[Mashup]:
        """Produce up to ``max_results`` ranked mashups for the request.

        Results are memoized with component-scoped invalidation (see class
        docstring); the cached and uncached paths return identical mashups
        because unchanged component fingerprints imply byte-identical
        discovery state for every dataset the result could draw on.
        """
        with self._lock:
            self._sync_memos()
            key = self._cache_key(request)
            if key is None:
                if self.plan_cache:
                    self.cache_stats.uncacheable += 1
                return self._build_mashups(request)
            entry = self._plan_cache.get(key)
            if entry is not None:
                self._plan_cache.move_to_end(key)
                self.cache_stats.hits += 1
                self.last_stats = PlannerStats(mode="cached", cache_hit=True)
                return [_copy_mashup(m) for m in entry.mashups]
            self.cache_stats.misses += 1
            mashups = self._build_mashups(request)
            self._plan_cache[key] = _PlanCacheEntry(
                mashups=list(mashups),
                fingerprints=self._request_fingerprints(request),
                attributes=self._request_attributes(request),
                min_score=request.min_match_score,
                hint_datasets=frozenset(h.dataset for h in request.hints),
            )
            while len(self._plan_cache) > self.plan_cache_size:
                self._plan_cache.popitem(last=False)
                self.cache_stats.lru_evictions += 1
            # the miss path must also serve copies: the cached entry may
            # stay live through many deltas, and a caller mutating the
            # returned wrappers must not poison later hits
            return [_copy_mashup(m) for m in mashups]

    def _build_mashups(self, request: MashupRequest) -> list[Mashup]:
        # fresh stats up front: the empty-result early returns below must
        # not leave a previous call's (possibly cache_hit) stats behind
        self.last_stats = PlannerStats()
        attrs = list(request.attributes)
        if request.key is not None and request.key not in attrs:
            attrs = [request.key] + attrs

        candidates: dict[str, list[_Candidate]] = {a: [] for a in attrs}
        for attr in attrs:
            for m in self.discovery.match_attribute(
                attr, min_score=request.min_match_score
            ):
                candidates[attr].append(
                    _Candidate(attr, m.dataset, m.column, m.score)
                )

        for hint in request.hints:
            if hint.target_attribute in candidates:
                candidates[hint.target_attribute].append(
                    _Candidate(
                        hint.target_attribute, hint.dataset, hint.column,
                        0.95, transform=hint.mapping,
                    )
                )

        if request.examples is not None and request.key is not None:
            for attr in attrs:
                if attr == request.key or attr not in request.examples.schema:
                    continue
                # examples are ground truth: drop direct matches they refute,
                # and add synthesized mapping candidates (the paper's f').
                validated = [
                    c for c in candidates[attr]
                    if c.transform is not None
                    or self._consistent_with_examples(c, request)
                ]
                candidates[attr] = validated + self._synthesize_candidates(
                    attr, request
                )

        missing = tuple(a for a in attrs if not candidates[a])
        covered = [a for a in attrs if candidates[a]]
        if not any(a in covered for a in request.attributes):
            return []  # nothing but the key matched: no useful mashup

        plans = self._enumerate_plans(covered, candidates, request)
        mashups: list[Mashup] = []
        for plan, matched, score in plans:
            executed = self._execute_with_fallback(plan)
            if executed is None:
                continue
            plan, tree, n_rows = executed
            self.last_stats.cardinality_estimates.append(
                (self._estimate_rows(plan), n_rows)
            )
            mashups.append(
                Mashup(plan=plan, tree=tree, matched=matched,
                       missing=missing)
            )
            if len(mashups) >= request.max_results:
                break
        return mashups

    def _execute_with_fallback(
        self, plan: MashupPlan
    ) -> tuple[MashupPlan, RelationExpr, int] | None:
        """Build a plan's tree and sanity-check it; an empty result from a
        composite-key join retries on the primary column pairs only.

        The check needs only a row *count* — the columnar engine runs the
        pipelined joins without assembling wide rows, and the count's
        intermediate state is cached on the tree, so a later ``collect``
        (the first ``Mashup.relation`` access) does not redo the joins.

        Composite predicates are profile-derived hypotheses — value *sets*
        overlap pair-wise, but sketches cannot see whether the rows align.
        When the AND of all pairs joins nothing, the single-column join the
        pre-composite planner would have used must still be tried."""
        try:
            tree = plan.build_tree(self.engine.relation)
            n = self.processor.count(tree)
        except (IntegrationError, SchemaError):
            return None
        if n > 0:
            return plan, tree, n
        if not any(step.extra_on for step in plan.joins):
            return None
        fallback = MashupPlan(
            base=plan.base,
            joins=[
                JoinStep(step.dataset, step.left_on, step.right_on,
                         step.score, fanout=step.fanout)
                for step in plan.joins
            ],
            transforms=plan.transforms,
            output=plan.output,
        )
        try:
            tree = fallback.build_tree(self.engine.relation)
            n = self.processor.count(tree)
        except (IntegrationError, SchemaError):
            return None
        if n == 0:
            return None
        return fallback, tree, n

    # ------------------------------------------------------------------
    def _consistent_with_examples(
        self, candidate: "_Candidate", request: MashupRequest
    ) -> bool:
        """Check a direct match against the buyer's example values."""
        examples = request.examples
        assert examples is not None and request.key is not None
        key_col = self._key_column_of(candidate.dataset, request)
        if key_col is None:
            return True  # cannot align: give the candidate the benefit
        dataset = self.engine.relation(candidate.dataset)
        aligned = examples.join(
            dataset, on=[(request.key, key_col)], suffix="__ds"
        )
        if len(aligned) < 2:
            return True
        col = candidate.column
        # if the dataset column's name clashed with an example column it
        # was suffixed in the join output; read the dataset's side
        out_col = col + "__ds" if col in examples.schema else col
        if out_col not in aligned.schema:
            return True
        expected = aligned.column(candidate.attribute)
        actual = aligned.column(out_col)
        for e, a in zip(expected, actual):
            if e is None or a is None:
                continue
            if isinstance(e, (int, float)) and isinstance(a, (int, float)):
                if abs(float(e) - float(a)) > 1e-6 * max(1.0, abs(float(e))):
                    return False
            elif e != a:
                return False
        return True

    def _key_column_of(
        self, dataset: str, request: MashupRequest
    ) -> str | None:
        """The column of ``dataset`` matching the request's key attribute."""
        for m in self.discovery.match_attribute(
            request.key, min_score=request.min_match_score
        ):
            if m.dataset == dataset:
                return m.column
        return None

    # ------------------------------------------------------------------
    def _synthesize_candidates(
        self, attribute: str, request: MashupRequest
    ) -> list[_Candidate]:
        """Query-by-example synthesis: find a column whose values map onto
        the buyer's example values for ``attribute`` through some f'."""
        examples = request.examples
        assert examples is not None and request.key is not None
        if attribute not in examples.schema:
            return []
        key_matches = self.discovery.match_attribute(
            request.key, min_score=request.min_match_score
        )
        out: list[_Candidate] = []
        for km in key_matches:
            dataset = self.engine.relation(km.dataset)
            aligned = examples.join(
                dataset, on=[(request.key, km.column)], suffix="__ds"
            )
            if len(aligned) < 2:
                continue
            target_vals = aligned.column(attribute)
            for col in dataset.columns:
                if col == km.column:
                    continue
                # clashing dataset columns were suffixed by the join;
                # always read the dataset's side, never the example's
                out_col = col + "__ds" if col in examples.schema else col
                if out_col not in aligned.schema:
                    continue
                source_vals = aligned.column(out_col)
                pairs = list(zip(source_vals, target_vals))
                try:
                    mapping = synthesize_mapping(pairs)
                except SynthesisError:
                    continue
                if isinstance(mapping, DictionaryMap):
                    # a lookup table over continuous values never
                    # generalizes beyond the examples: reject it
                    if dataset.schema[col].dtype == "float":
                        continue
                    score = 0.7
                else:
                    score = 0.92
                out.append(
                    _Candidate(attribute, km.dataset, col, score, mapping)
                )
        return out

    # ------------------------------------------------------------------
    def _enumerate_plans(
        self,
        attrs: list[str],
        candidates: dict[str, list[_Candidate]],
        request: MashupRequest,
    ) -> list[tuple[MashupPlan, dict[str, tuple[str, str, float]], float]]:
        """Enumerate covering assignments, best-first, and plan join trees."""
        per_attr = [
            sorted(candidates[a], key=_candidate_rank)[:_PER_ATTRIBUTE_FANOUT]
            for a in attrs
        ]
        stats = PlannerStats()
        self.last_stats = stats
        plans = []
        seen_shapes: set[tuple] = set()
        for score, combo in self._assignments(per_attr, stats):
            shape = _shape_key(combo)
            if shape in seen_shapes:
                continue
            seen_shapes.add(shape)
            stats.plans_attempted += 1
            plan = self._plan_for(combo, request)
            if plan is None:
                continue
            matched = {
                c.attribute: (c.dataset, c.column, c.score) for c in combo
            }
            plans.append((plan, matched, score))
            if len(plans) >= request.max_results * 2:
                break
        stats.plans_built = len(plans)
        return plans

    def _assignments(self, per_attr, stats):
        """Component-pruned best-first search over covering assignments.

        States extend one attribute at a time; a state whose datasets span
        two connected components of the relationship graph can never be
        joined into one mashup and is dropped before scoring.  Frontier
        priority is an admissible bound — remaining attributes contribute
        their best candidate score, and the dataset-count penalty only grows
        — so complete assignments pop in exact best-score order, with score
        ties resolved by the same shape key the oracle sorts on.  Scoring
        arithmetic mirrors the oracle operation-for-operation so equal
        assignments get bit-identical floats.
        """
        n = len(per_attr)
        suffix_best = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_best[i] = suffix_best[i + 1] + max(
                c.score for c in per_attr[i]
            )
        reachable = self.index.reachable
        # heap entries: (-bound, kind, tie, seq, depth, combo, g, datasets);
        # kind 0 = partial (expand), kind 1 = complete (yield) — on equal
        # bounds partials expand first so every equal-score assignment is
        # discovered before any is emitted, making tie order exact.  The
        # partial tie is its unique index path, the complete tie is the
        # oracle's shape key; seq only breaks same-shape duplicate ties so
        # unorderable _Candidate tuples are never compared.
        seq = itertools.count()
        start_bound = suffix_best[0] / n
        frontier = [
            (-start_bound, 0, (), next(seq), 0, (), 0.0, frozenset())
        ]
        while frontier:
            neg_bound, kind, tie, _seq, depth, combo, g, datasets = (
                heapq.heappop(frontier)
            )
            if kind == 1:
                yield (-neg_bound, combo)
                continue
            stats.states_expanded += 1
            for idx, cand in enumerate(per_attr[depth]):
                new_datasets = datasets | {cand.dataset}
                if len(new_datasets) > 1 and len(new_datasets) > len(datasets):
                    if not reachable(new_datasets):
                        stats.pruned_disconnected += 1
                        continue
                new_g = g + cand.score
                new_combo = combo + (cand,)
                penalty = _DATASET_PENALTY * (len(new_datasets) - 1)
                if depth + 1 == n:
                    score = new_g / n - penalty
                    stats.assignments_scored += 1
                    heapq.heappush(
                        frontier,
                        (-score, 1, _shape_key(new_combo), next(seq),
                         depth + 1, new_combo, new_g, new_datasets),
                    )
                else:
                    bound = (new_g + suffix_best[depth + 1]) / n - penalty
                    heapq.heappush(
                        frontier,
                        (-bound, 0, tie + (idx,), next(seq),
                         depth + 1, new_combo, new_g, new_datasets),
                    )

    def _plan_for(
        self, combo: tuple[_Candidate, ...], request: MashupRequest
    ) -> MashupPlan | None:
        """Connect the datasets of one assignment into a join tree."""
        datasets: list[str] = []
        for c in combo:
            if c.dataset not in datasets:
                datasets.append(c.dataset)
        coverage: dict[str, int] = {d: 0 for d in datasets}
        for c in combo:
            coverage[c.dataset] += 1
        # fact→dimension orientation: at equal coverage, root the join tree
        # at the dataset the relationship graph marks as the referencing
        # (FK/fact) side of its edges — dimensions then join *onto* it,
        # which keeps the pipelined columnar execution probe-heavy on one
        # side instead of rebuilding hash tables over a growing mashup
        fact = self._fact_scores(datasets)
        base = max(
            datasets,
            key=lambda d: (coverage[d], fact[d], -datasets.index(d)),
        )

        rest = [d for d in datasets if d != base]
        joins: list[JoinStep] = []
        included = {base}
        for dataset in self._join_order(base, rest):
            if dataset in included:
                continue
            step_list = self._connect(dataset, included)
            if step_list is None:
                return None
            for step in step_list:
                if step.dataset not in included:
                    joins.append(step)
                    included.add(step.dataset)

        transforms: list[TransformStep] = []
        output: dict[str, str] = {}
        for c in combo:
            if c.transform is not None:
                transforms.append(
                    TransformStep(
                        source_column=qualified(c.dataset, c.column),
                        output_column=c.attribute,
                        mapping=c.transform,
                    )
                )
                output[c.attribute] = c.attribute
            else:
                output[c.attribute] = qualified(c.dataset, c.column)
        return MashupPlan(base=base, joins=joins, transforms=transforms,
                          output=output)

    def _join_order(self, base: str, rest: list[str]) -> list[str]:
        """Attach dimensions in ascending estimated blow-up: joins that
        shrink or hold the running cardinality run before any join that
        multiplies it, so intermediates stay small."""
        return sorted(rest, key=lambda d: (self._blowup_from(base, d), d))

    def _fact_scores(self, datasets: list[str]) -> dict[str, int]:
        """Per dataset: how many join-graph edges to *other assignment
        datasets* name it as the referencing (FK) side — i.e. the other
        endpoint carries the ``pk_side`` inclusion-dependency marker."""
        members = set(datasets)
        return {
            d: sum(
                n for other, n in self._step_entry(d)[2].items()
                if other in members
            )
            for d in datasets
        }

    def _connect(
        self, target: str, included: set[str]
    ) -> list[JoinStep] | None:
        """Join path from any included dataset to ``target``: the start
        whose path minimizes the summed edge cost (fan-out blow-up +
        predicate quality + hop charge), ties broken on the start's name,
        so plans are stable across runs regardless of set iteration
        order."""
        # consult the live join graph first: a dataset outside it (never
        # indexed, or pruned after a seller withdrew) has no path at all
        target_component = self.index.component_of(target)
        if target_component is None:
            return None
        best_path: list[JoinPredicate] | None = None
        best_key: tuple | None = None
        for start in sorted(included):
            # component check skips doomed shortest-path searches outright
            if self.index.component_of(start) != target_component:
                continue
            path = self._path_for(start, target)
            if path is None:
                continue
            key = (self._path_cost(path), start)
            if best_key is None or key < best_key:
                best_path, best_key = path, key
        if best_path is None:
            return None
        return [self._join_step(pred) for pred in best_path]

    # -- cost model ----------------------------------------------------
    def _rows_of(self, dataset: str) -> int:
        """Profiled row count of a dataset (graph node attribute)."""
        g = self.index.graph
        if dataset in g:
            return int(g.nodes[dataset].get("n_rows") or 1)
        return 1

    def _edge_cost(self, u: str, v: str, attrs: dict) -> float:
        """Additive cost of traversing one graph edge from ``u`` to ``v``:
        ``log1p(blow-up) + (1 - score) + hop charge``.  The blow-up is the
        edge's fan-out estimate oriented in traversal direction; an edge
        without an estimate pessimistically charges the whole right side
        (so estimated edges are preferred over unknown ones)."""
        fanout = attrs.get("fanout")
        if fanout is not None:
            blowup = fanout.lr if attrs["left_dataset"] == u else fanout.rl
        else:
            blowup = float(max(self._rows_of(v), 1))
        return (
            math.log1p(max(blowup, 0.0))
            + (1.0 - attrs["score"])
            + _HOP_COST
        )

    def _pred_cost(self, pred: JoinPredicate) -> float:
        """Cost of one oriented path step (same arithmetic as
        :meth:`_edge_cost`, read off the predicate)."""
        if pred.fanout is not None:
            blowup = pred.fanout.lr
        else:
            blowup = float(max(self._rows_of(pred.right_dataset), 1))
        return (
            math.log1p(max(blowup, 0.0))
            + (1.0 - pred.score)
            + _HOP_COST
        )

    def _path_cost(self, path: list[JoinPredicate]) -> float:
        return sum(self._pred_cost(p) for p in path)

    def _cost_path(self, start: str, target: str) -> list[JoinPredicate]:
        """Minimum-cost join path under the fan-out cost model.

        Dijkstra keyed on (cost, the path's dataset names): of two paths
        that cost the same, the one whose names sort first wins, whatever
        order the graph's edges were added in — so a live market and its
        cold start plan the same mashup.  A pair's traversal cost is its
        cheapest parallel predicate's.  Step reconstruction re-picks that
        predicate with a deterministic tie-break (best score, then widest
        composite)."""
        g = self.index.graph
        nodes = None
        if start in g and target in g:
            best = {start: (0.0, (start,))}
            frontier = [best[start]]
            done = set()
            while frontier:
                cost, path = heapq.heappop(frontier)
                u = path[-1]
                if u == target:
                    nodes = path
                    break
                if u in done:
                    continue
                done.add(u)
                for v, step in self._step_entry(u)[1]:
                    if v in done:
                        continue
                    key = (cost + step, path + (v,))
                    if v not in best or key < best[v]:
                        best[v] = key
                        heapq.heappush(frontier, key)
        if nodes is None:
            raise DiscoveryError(
                f"no join path between {start!r} and {target!r}"
            )
        steps = []
        for u, v in zip(nodes, nodes[1:]):
            d = min(
                g.get_edge_data(u, v).values(),
                key=lambda a: (self._edge_cost(u, v, a),
                               -a["score"], -len(a["pairs"]), a["pairs"]),
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

    def _step_entry(self, u: str) -> tuple:
        """``u``'s step-memo entry (see ``_step_cache``): its neighbours,
        each with the cost of stepping to it (its cheapest parallel
        predicate's), and its FK-side edge counts, built on first use
        after :meth:`_sync_memos` last dropped them."""
        entry = self._step_cache.get(u)
        if entry is None:
            graph = self.index.graph
            adj = graph.adj[u] if u in graph else {}
            fk_edges = {}
            for v, edges in adj.items():
                n = sum(a.get("pk_side") == v for a in edges.values())
                if n:
                    fk_edges[v] = n
            entry = self._step_cache[u] = (
                self.index.component_fingerprint_of(u),
                tuple(
                    (v, min(self._edge_cost(u, v, a) for a in edges.values()))
                    for v, edges in adj.items()
                ),
                fk_edges,
            )
        return entry

    def _path_for(
        self, start: str, target: str
    ) -> list[JoinPredicate] | None:
        """Memoized join path, keyed on (start, target); the entry lives
        while ``start``'s component fingerprint does (:meth:`_sync_memos`)."""
        key = (start, target)
        entry = self._path_cache.get(key)
        if entry is not None:
            self.last_stats.path_cache_hits += 1
            return entry[1]
        self.last_stats.path_cache_misses += 1
        try:
            path = self._cost_path(start, target)
        except DiscoveryError:
            path = None
        fingerprint = self.index.component_fingerprint_of(start)
        self._path_cache[key] = (fingerprint, path)
        return path

    def _blowup_from(self, base: str, dataset: str) -> float:
        """Estimated multiplicative blow-up of joining ``dataset`` (via its
        cheapest path) onto a mashup rooted at ``base`` — the key the
        planner sorts dimension joins by."""
        path = self._path_for(base, dataset)
        if path is None:
            return float("inf")
        blowup = 1.0
        for pred in path:
            if pred.fanout is not None:
                blowup *= pred.fanout.lr
            else:
                blowup *= float(max(self._rows_of(pred.right_dataset), 1))
        return blowup

    def _estimate_rows(self, plan: MashupPlan) -> float:
        """The cost model's output-cardinality estimate for a plan: base
        rows times the product of per-step fan-outs (unknowns count 1)."""
        est = float(self._rows_of(plan.base))
        for step in plan.joins:
            est *= step.fanout if step.fanout is not None else 1.0
        return est

    def _join_step(self, pred: JoinPredicate) -> JoinStep:
        pairs = tuple(
            (qualified(pred.left_dataset, lc),
             qualified(pred.right_dataset, rc))
            for lc, rc in pred.pairs
        )
        return JoinStep(
            dataset=pred.right_dataset,
            left_on=pairs[0][0],
            right_on=pairs[0][1],
            score=pred.score,
            extra_on=pairs[1:],
            fanout=None if pred.fanout is None else pred.fanout.lr,
        )
