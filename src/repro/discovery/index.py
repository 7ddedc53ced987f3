"""The Index Builder (Fig. 3): join candidates and the relationship graph.

Section 5.2: "the index builder materializes join paths between files, and
it identifies candidate functions to map attributes to each other; i.e., it
facilitates the DoD's job.  The index builder keeps indexes up-to-date as the
output schema changes."

Join candidates are proposed from three signals and scored in [0, 1]:

* **value overlap** — MinHash Jaccard between column signatures,
* **semantic tags** — columns sharing an explicit semantic annotation,
* **name similarity** — normalized column-name distance,

gated on dtype compatibility and key-likeness of at least one side.  The
relationship graph is a :class:`networkx.MultiGraph` over datasets carrying
**every** qualifying join predicate per dataset pair — one parallel edge per
column pair, plus a *composite* edge grouping disjoint value-backed column
pairs into a multi-column (composite-key) predicate.  Each predicate also
records an inclusion-dependency direction (``pk_side``) inferred from
containment asymmetry: when one column's values are essentially contained in
the other's and the containing column is key-like, the containing side is
the referenced (primary-key) side.  The DoD engine searches the graph for
join paths and prunes plan assignments spanning disconnected components via
the :meth:`IndexBuilder.components` / :meth:`IndexBuilder.reachable` API,
which stays correct under incremental register/update/remove deltas.

Maintenance is **incremental**: the builder keeps a persistent
:class:`~repro.sketches.lsh.LSHIndex` over column MinHash signatures plus a
semantic-tag inverted index, and on every :class:`MetadataDelta` re-scores
only the changed dataset's columns against their bucketed neighbours,
patching candidates and the graph in place — removals prune, updates
re-score.  With single-row banding the neighbour set provably covers every
pair the exhaustive scorer would emit (any candidate needs either estimated
overlap > 0 or a shared semantic tag), so the patched state is identical
to an O(C²) :meth:`IndexBuilder.refresh` rebuild — the reference oracle
the tests run on a ``subscribe=False`` builder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import networkx as nx

from ..errors import DiscoveryError
from ..sketches import LSHIndex
from .metadata import MetadataDelta, MetadataEngine
from .profiler import ColumnProfile, TableProfile, name_similarity
from .stats import FanoutEstimate, combine_composite, estimate_fanouts

#: minimum column-name similarity for a name-evidence join candidate
_MIN_NAME_SIMILARITY = 0.8
#: signature rows per LSH band: one, so every column pair with estimated
#: overlap > 0 shares a bucket and the patched index misses no candidate
#: the full rebuild would score
_LSH_ROWS_PER_BAND = 1


@dataclass(frozen=True)
class JoinCandidate:
    """A scored hypothesis that two columns join."""

    left_dataset: str
    left_column: str
    right_dataset: str
    right_column: str
    score: float
    evidence: str  # "overlap" | "semantic" | "name"
    #: dataset inferred to hold the referenced (primary-key) side of an
    #: inclusion dependency, or None when containment is symmetric/weak
    pk_side: str | None = None
    #: estimated per-row join fan-out (left→right / right→left), derived
    #: from profile stats; None when the sketches carry no signal
    fanout: FanoutEstimate | None = None

    @property
    def pair(self) -> tuple[tuple[str, str], tuple[str, str]]:
        return ((self.left_dataset, self.left_column),
                (self.right_dataset, self.right_column))

    def reversed(self) -> "JoinCandidate":
        return JoinCandidate(
            self.right_dataset, self.right_column,
            self.left_dataset, self.left_column,
            self.score, self.evidence, self.pk_side,
            None if self.fanout is None else self.fanout.reversed(),
        )


@dataclass(frozen=True)
class JoinPredicate:
    """One relationship-graph edge: a (possibly multi-column) join predicate.

    ``pairs`` lists (left_column, right_column) pairs; single-column
    predicates carry exactly one pair, composite-key predicates several.
    ``pk_side`` names the dataset inferred to be the referenced (PK) side of
    the inclusion dependency, or None when direction is undecidable.
    """

    left_dataset: str
    right_dataset: str
    pairs: tuple[tuple[str, str], ...]
    score: float
    evidence: str  # "overlap" | "semantic" | "name" | "composite"
    pk_side: str | None = None
    #: estimated per-row join fan-out (left→right / right→left); composite
    #: predicates carry the member-wise minimum
    fanout: FanoutEstimate | None = None

    @property
    def left_column(self) -> str:
        return self.pairs[0][0]

    @property
    def right_column(self) -> str:
        return self.pairs[0][1]

    @property
    def is_composite(self) -> bool:
        return len(self.pairs) > 1

    def reversed(self) -> "JoinPredicate":
        return JoinPredicate(
            self.right_dataset, self.left_dataset,
            tuple((rc, lc) for lc, rc in self.pairs),
            self.score, self.evidence, self.pk_side,
            None if self.fanout is None else self.fanout.reversed(),
        )


def _candidate_sort_key(c: JoinCandidate) -> tuple:
    """Deterministic global order: best score first, then dataset names,
    then column names — ties between column pairs of the same dataset pair
    are stable."""
    return (-c.score, c.left_dataset, c.right_dataset,
            c.left_column, c.right_column)


class IndexBuilder:
    """Maintains join candidates + relationship graph over a MetadataEngine."""

    def __init__(
        self,
        engine: MetadataEngine,
        min_overlap: float = 0.5,
        subscribe: bool = True,
    ):
        self.engine = engine
        self.min_overlap = min_overlap
        self._profiles: dict[str, TableProfile] = {}
        #: registration order, mirroring the engine's lifecycle order; fixes
        #: candidate orientation identically to the full-rebuild enumeration
        self._order: dict[str, int] = {}
        self._next_order = 0
        self._lsh: LSHIndex | None = None
        self._semantic: dict[str, set[tuple[str, str]]] = {}
        self._candidates: dict[tuple, JoinCandidate] = {}
        self._pairs_of: dict[str, set[tuple]] = {}
        self._sorted: list[JoinCandidate] | None = None
        self._graph = nx.MultiGraph()
        #: bumped on every graph mutation; keys the component cache
        self._graph_version = 0
        self._components: tuple[frozenset[str], ...] = ()
        self._component_id: dict[str, int] = {}
        self._components_version = -1
        self._fingerprints: tuple[str, ...] = ()
        self._fingerprint_set: frozenset[str] = frozenset()
        self._fingerprints_version = -1
        self._stale = True
        self._subscription = None
        if subscribe:
            self._subscription = engine.subscribe(self._on_delta)

    # -- lifecycle ---------------------------------------------------------
    def detach(self) -> None:
        """Unsubscribe from the metadata engine (idempotent): a discarded
        builder must not linger as a dangling listener.

        A detached builder is *frozen at detach-time state* — like one
        constructed with ``subscribe=False``, it no longer tracks engine
        changes; call :meth:`refresh` explicitly to resync."""
        if self._subscription is not None:
            self.engine.unsubscribe(self._subscription)
            self._subscription = None

    # -- incremental maintenance -----------------------------------------
    def _on_delta(self, delta: MetadataDelta) -> None:
        if self._stale:
            return  # a pending full build will absorb this change
        if delta.kind == "removed":
            self._remove_dataset(delta.dataset)
        else:
            self._upsert_dataset(delta.snapshot.profile)

    def refresh(self) -> None:
        """Full rebuild from the engine's current profiles (the O(C²)
        reference oracle; also primes the incremental structures)."""
        profiles = self.engine.profiles()
        self._profiles = {p.dataset: p for p in profiles}  # for _score_pair
        columns: list[ColumnProfile] = [
            c for p in profiles for c in p.columns
        ]
        candidates = []
        for i, a in enumerate(columns):
            for b in columns[i + 1 :]:
                if a.dataset == b.dataset:
                    continue
                cand = self._score_pair(a, b)
                if cand is not None:
                    candidates.append(cand)
        self.restore_state(
            profiles=profiles, candidates=candidates,
            graph_version=self._graph_version + 1,
        )

    def _rebuild_buckets(self) -> None:
        self._lsh = None
        self._semantic = {}
        for profile in self._profiles.values():
            self._bucket_columns(profile)

    def _bucket_columns(self, profile: TableProfile) -> None:
        for col in profile.columns:
            if self._lsh is None:
                num_perm = col.signature.num_perm
                self._lsh = LSHIndex(
                    num_perm=num_perm, bands=num_perm // _LSH_ROWS_PER_BAND
                )
            self._lsh.add(col.key, col.signature)
            if col.semantic is not None:
                self._semantic.setdefault(col.semantic, set()).add(col.key)

    def _unbucket_columns(self, profile: TableProfile) -> None:
        for col in profile.columns:
            self._lsh.remove(col.key)
            if col.semantic is not None:
                tagged = self._semantic.get(col.semantic)
                if tagged is not None:
                    tagged.discard(col.key)
                    if not tagged:
                        del self._semantic[col.semantic]

    def _upsert_dataset(self, profile: TableProfile) -> None:
        name = profile.dataset
        if name in self._profiles:
            self._drop_derived_state(name)
            self._profiles[name] = profile  # dict position preserved
        else:
            self._profiles[name] = profile
            self._order[name] = self._next_order
            self._next_order += 1
        self._bucket_columns(profile)
        self._pairs_of.setdefault(name, set())
        self._graph.add_node(name, n_rows=profile.n_rows)
        self._graph_version += 1
        touched: set[str] = set()
        for col in profile.columns:
            for other_key in self._neighbour_keys(col):
                other_ds, other_col = other_key
                if other_ds == name:
                    continue
                other = self._profiles[other_ds].column(other_col)
                a, b = self._oriented(col, other)
                cand = self._score_pair(a, b)
                if cand is not None:
                    self._store_candidate(cand)
                    touched.add(other_ds)
        self._sorted = None
        for other_ds in touched:
            self._rebuild_pair_edges(name, other_ds)

    def _remove_dataset(self, name: str) -> None:
        if name not in self._profiles:
            return
        self._drop_derived_state(name)
        del self._profiles[name]
        del self._order[name]
        self._sorted = None

    def _drop_derived_state(self, name: str) -> None:
        """Prune buckets, candidates and graph edges touching ``name``."""
        self._unbucket_columns(self._profiles[name])
        for pair_key in self._pairs_of.pop(name, ()):
            cand = self._candidates.pop(pair_key, None)
            if cand is None:
                continue
            other = (
                cand.right_dataset
                if cand.left_dataset == name
                else cand.left_dataset
            )
            self._pairs_of[other].discard(pair_key)
        if name in self._graph:
            self._graph.remove_node(name)
            self._graph_version += 1
        self._sorted = None

    def _neighbour_keys(self, col: ColumnProfile) -> set[tuple[str, str]]:
        """Columns that could form a candidate with ``col``: LSH collisions
        (any pair with estimated overlap > 0 under single-row banding) plus
        same-semantic columns.  Falls back to every indexed column when
        ``min_overlap <= 0`` (the overlap gate then prunes nothing)."""
        if self.min_overlap <= 0:
            return set(self._lsh.keys())
        keys = self._lsh.candidates(col.signature)
        if col.semantic is not None:
            keys |= self._semantic.get(col.semantic, set())
        keys.discard(col.key)
        return keys

    def _oriented(
        self, a: ColumnProfile, b: ColumnProfile
    ) -> tuple[ColumnProfile, ColumnProfile]:
        """Left/right orientation identical to the full-rebuild enumeration:
        earlier-registered dataset (then earlier schema column) is left."""
        ka = (self._order[a.dataset], self._column_index(a))
        kb = (self._order[b.dataset], self._column_index(b))
        return (a, b) if ka < kb else (b, a)

    def _column_index(self, col: ColumnProfile) -> int:
        columns = self._profiles[col.dataset].columns
        for i, c in enumerate(columns):
            if c.column == col.column:
                return i
        raise DiscoveryError(
            f"column {col.column!r} missing from {col.dataset!r} profile"
        )

    def _store_candidate(self, cand: JoinCandidate) -> None:
        pair_key = (cand.left_dataset, cand.left_column,
                    cand.right_dataset, cand.right_column)
        self._candidates[pair_key] = cand
        self._pairs_of.setdefault(cand.left_dataset, set()).add(pair_key)
        self._pairs_of.setdefault(cand.right_dataset, set()).add(pair_key)

    def _rebuild_pair_edges(self, u: str, v: str) -> None:
        """Recompute all parallel edges between two datasets in place."""
        while self._graph.has_edge(u, v):
            self._graph.remove_edge(u, v)
        self._add_pair_edges(u, v)
        self._graph_version += 1

    def _add_pair_edges(self, u: str, v: str) -> None:
        """Insert one edge per predicate between ``u`` and ``v`` (in the
        deterministic order of :meth:`_pair_predicates`)."""
        for pred in self._pair_predicates(u, v):
            self._graph.add_edge(
                pred.left_dataset, pred.right_dataset,
                key=pred.pairs,
                left_dataset=pred.left_dataset,
                left=pred.left_column,
                right=pred.right_column,
                pairs=pred.pairs,
                score=pred.score,
                evidence=pred.evidence,
                pk_side=pred.pk_side,
                fanout=pred.fanout,
            )

    def _pair_predicates(self, u: str, v: str) -> list[JoinPredicate]:
        """All join predicates between two datasets, derived deterministically
        from the current candidate set: one single-column predicate per
        candidate, plus one composite-key predicate grouping column-disjoint
        value-backed candidates (evidence "overlap"/"semantic") when at least
        two qualify.  Candidates between a fixed dataset pair all share the
        same registration-order orientation, so pair tuples are consistent.
        """
        pair_keys = self._pairs_of.get(u, set()) & self._pairs_of.get(v, set())
        cands = sorted(
            (self._candidates[k] for k in pair_keys), key=_candidate_sort_key
        )
        preds = [
            JoinPredicate(
                c.left_dataset, c.right_dataset,
                ((c.left_column, c.right_column),),
                c.score, c.evidence, c.pk_side, c.fanout,
            )
            for c in cands
        ]
        used_left: set[str] = set()
        used_right: set[str] = set()
        members: list[JoinCandidate] = []
        for c in cands:
            if c.evidence == "name":
                continue  # composite keys need value-backed evidence
            if c.left_column in used_left or c.right_column in used_right:
                continue
            members.append(c)
            used_left.add(c.left_column)
            used_right.add(c.right_column)
        if len(members) >= 2:
            sides = {m.pk_side for m in members}
            pk_side = sides.pop() if len(sides) == 1 else None
            preds.append(
                JoinPredicate(
                    members[0].left_dataset, members[0].right_dataset,
                    tuple((m.left_column, m.right_column) for m in members),
                    # max, not mean: the composite predicate is at least as
                    # selective as its best member, and keeping path costs
                    # equal to the best single edge preserves shortest paths
                    max(m.score for m in members),
                    "composite", pk_side,
                    combine_composite([m.fanout for m in members]),
                )
            )
        return preds

    def _ensure_fresh(self) -> None:
        if self._stale:
            self.refresh()

    def _score_pair(
        self, a: ColumnProfile, b: ColumnProfile
    ) -> JoinCandidate | None:
        if not _dtypes_compatible(a.dtype, b.dtype):
            return None
        joinable = a.looks_like_key or b.looks_like_key
        overlap = a.signature.jaccard(b.signature)
        pk_side = _infer_pk_side(a, b, overlap)
        fanout = estimate_fanouts(
            a, b,
            self._profiles[a.dataset].n_rows,
            self._profiles[b.dataset].n_rows,
            overlap,
        )
        if joinable and overlap >= self.min_overlap:
            return JoinCandidate(
                a.dataset, a.column, b.dataset, b.column, overlap, "overlap",
                pk_side, fanout,
            )
        if (
            a.semantic is not None
            and a.semantic == b.semantic
            and joinable
        ):
            return JoinCandidate(
                a.dataset, a.column, b.dataset, b.column,
                max(overlap, 0.75), "semantic", pk_side, fanout,
            )
        name_sim = name_similarity(a.column, b.column)
        if joinable and name_sim >= _MIN_NAME_SIMILARITY and overlap > 0.1:
            return JoinCandidate(
                a.dataset, a.column, b.dataset, b.column,
                0.5 * name_sim + 0.5 * overlap, "name", pk_side, fanout,
            )
        return None

    def _sorted_candidates(self) -> list[JoinCandidate]:
        if self._sorted is None:
            self._sorted = sorted(
                self._candidates.values(), key=_candidate_sort_key
            )
        return self._sorted

    # -- queries -----------------------------------------------------------
    def join_candidates(
        self, dataset: str | None = None, min_score: float = 0.0
    ) -> list[JoinCandidate]:
        self._ensure_fresh()
        out = []
        for c in self._sorted_candidates():
            if c.score < min_score:
                continue
            if dataset is None:
                out.append(c)
            elif c.left_dataset == dataset:
                out.append(c)
            elif c.right_dataset == dataset:
                out.append(c.reversed())
        return out

    @property
    def graph(self) -> nx.MultiGraph:
        self._ensure_fresh()
        return self._graph

    @property
    def graph_version(self) -> int:
        """Monotonic counter bumped on every relationship-graph mutation.

        This is the platform's read-snapshot token: plan caches key on it,
        and every :mod:`repro.platform` result is stamped with the version
        (``as_of``) it was computed against.  Accessing it forces a pending
        lazy rebuild first, so equal versions imply equal derived state.
        """
        self._ensure_fresh()
        return self._graph_version

    def neighbours(self, dataset: str) -> list[str]:
        self._ensure_fresh()
        if dataset not in self._graph:
            raise DiscoveryError(f"unknown dataset {dataset!r}")
        return sorted(self._graph.neighbors(dataset))

    # -- connectivity ------------------------------------------------------
    def _ensure_components(self) -> None:
        if self._components_version == self._graph_version:
            return
        comps = sorted(
            (frozenset(c) for c in nx.connected_components(self._graph)),
            key=min,
        )
        self._components = tuple(comps)
        self._component_id = {
            ds: i for i, comp in enumerate(comps) for ds in comp
        }
        self._components_version = self._graph_version

    def components(self) -> tuple[frozenset[str], ...]:
        """Connected components of the relationship graph, deterministically
        ordered by smallest member.  Recomputed lazily only when the
        incrementally maintained graph actually changed."""
        self._ensure_fresh()
        self._ensure_components()
        return self._components

    def component_of(self, dataset: str) -> int | None:
        """Index of ``dataset``'s component in :meth:`components`, or None
        for datasets the graph does not know."""
        self._ensure_fresh()
        self._ensure_components()
        return self._component_id.get(dataset)

    def _ensure_fingerprints(self) -> None:
        if self._fingerprints_version == self._graph_version:
            return
        self._ensure_components()
        fps = []
        for comp in self._components:
            h = hashlib.blake2b(digest_size=16)
            for ds in sorted(comp):
                h.update(ds.encode())
                h.update(b"\x00")
                h.update(self._profiles[ds].content_hash.encode())
                h.update(b"\x01")
            fps.append(h.hexdigest())
        self._fingerprints = tuple(fps)
        self._fingerprint_set = frozenset(fps)
        self._fingerprints_version = self._graph_version

    def component_fingerprints(self) -> tuple[str, ...]:
        """One digest per component (aligned with :meth:`components`),
        covering its membership and every member's table content hash.

        A fingerprint changes exactly when some delta touched that
        component — a member arrived, departed, changed content/schema, or
        components merged or split.  Everything the builder derives for a
        component (candidates, edges, join paths) is a deterministic
        function of its members' profiles, so *per-delta changed-component
        reporting* reduces to diffing fingerprint sets across deltas:
        consumers snapshot the fingerprints their result depended on and
        later check them against :meth:`component_fingerprint_set` — the
        DoD plan cache keys its entries this way to survive unrelated
        seller churn."""
        self._ensure_fresh()
        self._ensure_fingerprints()
        return self._fingerprints

    def component_fingerprint_set(self) -> frozenset[str]:
        """The current fingerprints as a set (for O(1) staleness checks)."""
        self._ensure_fresh()
        self._ensure_fingerprints()
        return self._fingerprint_set

    def component_fingerprint_of(self, dataset: str) -> str | None:
        """Fingerprint of ``dataset``'s component, or None when unknown."""
        cid = self.component_of(dataset)
        if cid is None:
            return None
        self._ensure_fingerprints()
        return self._fingerprints[cid]

    def changed_components(
        self, fingerprints: Iterable[str]
    ) -> frozenset[str]:
        """Of the given (previously observed) fingerprints, the ones whose
        component has since changed — i.e. no current component carries
        that digest any more."""
        return frozenset(fingerprints) - self.component_fingerprint_set()

    def reachable(self, datasets) -> bool:
        """True when every named dataset lies in one connected component —
        i.e. a join tree spanning all of them can exist.  The DoD planner
        uses this to discard assignments before scoring them."""
        ids = set()
        for ds in datasets:
            cid = self.component_of(ds)
            if cid is None:
                return False
            ids.add(cid)
            if len(ids) > 1:
                return False
        return True

    # -- durable-store serialization hooks --------------------------------
    def registration_order(self, name: str) -> int:
        """The dataset's registration-order rank (fixes the canonical
        orientation of its candidates; persisted so replay re-registers in
        the original order)."""
        try:
            return self._order[name]
        except KeyError:
            raise DiscoveryError(
                f"dataset {name!r} is not indexed"
            ) from None

    def dataset_candidates(self, name: str) -> list[JoinCandidate]:
        """All stored candidates involving ``name`` in their *canonical*
        (registration-order) orientation — the exact dict payload, so a
        store can persist and later :meth:`restore_state` them verbatim."""
        self._ensure_fresh()
        return [
            self._candidates[k] for k in sorted(self._pairs_of.get(name, ()))
        ]

    def restore_state(
        self,
        *,
        profiles: list[TableProfile],
        candidates: Iterable[JoinCandidate],
        graph_version: int,
    ) -> None:
        """Adopt ``profiles`` and ``candidates`` wholesale and derive the
        rest: cold-start replay passes the persisted state, :meth:`refresh`
        freshly scored candidates.

        ``profiles`` must arrive in original registration order (it fixes
        candidate orientation) and ``candidates`` are installed verbatim —
        no re-scoring.  LSH buckets are rebuilt from the signatures (band
        keys are a pure function of a signature, so the buckets are
        bit-identical to the live ones).  The graph's edges are a pure
        function of the candidates: nodes in registration order, then each
        candidate pair's predicates, pairs in sorted order.  The graph
        version continues from ``graph_version``, preserving the platform's
        ``as_of`` monotonicity across restarts."""
        self._profiles = {p.dataset: p for p in profiles}
        self._order = {p.dataset: i for i, p in enumerate(profiles)}
        self._next_order = len(self._order)
        self._rebuild_buckets()
        self._candidates = {}
        self._pairs_of = {p.dataset: set() for p in profiles}
        for cand in candidates:
            self._store_candidate(cand)
        self._sorted = None
        self._graph = nx.MultiGraph()
        for p in profiles:
            self._graph.add_node(p.dataset, n_rows=p.n_rows)
        for pair in sorted({
            (c.left_dataset, c.right_dataset)
            for c in self._candidates.values()
        }):
            self._add_pair_edges(*pair)
        self._graph_version = int(graph_version)
        self._components_version = -1
        self._fingerprints_version = -1
        self._stale = False


def _dtypes_compatible(a: str, b: str) -> bool:
    numeric = {"int", "float"}
    if a in numeric and b in numeric:
        return True
    return a == b or "any" in (a, b)


#: a column whose values are ≥95% contained in the other side's is treated
#: as the referencing (FK) side of an inclusion dependency
_CONTAINMENT_THRESHOLD = 0.95
#: minimum containment gap before direction is called (symmetry guard)
_CONTAINMENT_GAP = 0.05


def _infer_pk_side(
    a: ColumnProfile, b: ColumnProfile, jaccard: float
) -> str | None:
    """Inclusion-dependency direction from containment asymmetry.

    From estimated Jaccard ``j`` and the sides' distinct counts ``da, db``,
    the intersection size is ``j/(1+j) * (da+db)`` and per-side containments
    follow.  When one side is essentially contained in the other (>= 0.95),
    the gap is material, and the containing column is key-like, the
    containing side is the referenced (PK) dataset — the PK→FK orientation
    the DoD engine can exploit.  Purely profile-derived, so incremental and
    full-rebuild maintenance agree.
    """
    da, db = a.categorical.distinct, b.categorical.distinct
    if jaccard <= 0.0 or da == 0 or db == 0:
        return None
    inter = jaccard / (1.0 + jaccard) * (da + db)
    cont_a = min(1.0, inter / da)  # fraction of a's values appearing in b
    cont_b = min(1.0, inter / db)
    if (
        cont_a >= _CONTAINMENT_THRESHOLD
        and cont_a - cont_b >= _CONTAINMENT_GAP
        and b.looks_like_key
    ):
        return b.dataset
    if (
        cont_b >= _CONTAINMENT_THRESHOLD
        and cont_b - cont_a >= _CONTAINMENT_GAP
        and a.looks_like_key
    ):
        return a.dataset
    return None
