"""Data discovery queries: keyword and schema (query-by-example) search.

The arbiter "receives datasets from sellers, some of whom may be
organizations with thousands of datasets.  The goal of data discovery is to
identify a few datasets that are relevant to a WTP-function among thousands
of diverse heterogeneous datasets" (Section 5).  The buyer's WTP-function
names desired attributes; :class:`DiscoveryEngine` ranks datasets by how
well their columns cover that request.
"""

from __future__ import annotations

from dataclasses import dataclass

from .index import IndexBuilder
from .metadata import MetadataEngine
from .profiler import ColumnProfile, name_similarity


@dataclass(frozen=True)
class AttributeMatch:
    """One requested attribute resolved to a concrete column."""

    requested: str
    dataset: str
    column: str
    score: float


@dataclass(frozen=True)
class DatasetHit:
    dataset: str
    score: float
    matches: tuple[AttributeMatch, ...]


#: attribute lookups the match memo holds; a new entry clears a full memo
_MATCH_CACHE_SIZE = 1024


class DiscoveryEngine:
    """Keyword + schema search over the registered corpus.

    Attribute-resolution results are memoized, so the DoD engine's
    repeated lookups don't re-scan every profile.  A match reads only
    column names and semantic tags, so the memo outlives every delta that
    keeps them (:attr:`MetadataDelta.keeps_columns`, a same-schema
    update) and is cleared by any other.  At most ``_MATCH_CACHE_SIZE``
    lookups are held.
    """

    def __init__(
        self, engine: MetadataEngine, index: IndexBuilder,
        subscribe: bool = True,
    ):
        self.engine = engine
        self.index = index
        self._match_cache: dict[tuple[str, float], list[AttributeMatch]] = {}
        self._subscription = (
            engine.subscribe(self._on_delta) if subscribe else None
        )

    def _on_delta(self, delta) -> None:
        if not delta.keeps_columns:
            self._match_cache.clear()

    def detach(self) -> None:
        """Unsubscribe from the metadata engine (idempotent).

        The memo cache is dropped with the subscription: without delta
        invalidation it could serve stale matches, so post-detach lookups
        always recompute against the live corpus.
        """
        if self._subscription is not None:
            self.engine.unsubscribe(self._subscription)
            self._subscription = None
        self._match_cache.clear()

    # -- attribute resolution ---------------------------------------------
    def match_attribute(
        self, requested: str, min_score: float = 0.55
    ) -> list[AttributeMatch]:
        """All columns matching one requested attribute name/semantic."""
        cache_key = (requested, min_score)
        cached = self._match_cache.get(cache_key)
        if cached is not None:
            return list(cached)
        out = []
        for profile in self.engine.profiles():
            for col in profile.columns:
                score = self._attribute_score(requested, col)
                if score >= min_score:
                    out.append(
                        AttributeMatch(requested, col.dataset, col.column, score)
                    )
        out.sort(key=lambda m: (-m.score, m.dataset, m.column))
        if self._subscription is not None:
            # readers share the memo (deltas are applied exclusively): a
            # racing insert can overshoot the bound by one entry per
            # reader, never store a stale match
            if len(self._match_cache) >= _MATCH_CACHE_SIZE:
                self._match_cache.clear()
            self._match_cache[cache_key] = out
        return list(out)

    @staticmethod
    def _attribute_score(requested: str, col: ColumnProfile) -> float:
        if col.semantic is not None and requested.lower() == col.semantic.lower():
            return 1.0
        return name_similarity(requested, col.column)

    # -- schema search (query-by-example) -----------------------------------
    def search_schema(
        self, attributes: list[str], min_score: float = 0.55
    ) -> list[DatasetHit]:
        """Rank datasets by coverage of the requested attribute list."""
        hits: dict[str, list[AttributeMatch]] = {}
        for attr in attributes:
            for m in self.match_attribute(attr, min_score=min_score):
                hits.setdefault(m.dataset, []).append(m)
        out = []
        for dataset, matches in hits.items():
            best: dict[str, AttributeMatch] = {}
            for m in matches:
                if m.requested not in best or m.score > best[m.requested].score:
                    best[m.requested] = m
            coverage = sum(m.score for m in best.values()) / len(attributes)
            out.append(
                DatasetHit(dataset, coverage, tuple(
                    sorted(best.values(), key=lambda m: m.requested)
                ))
            )
        out.sort(key=lambda h: (-h.score, h.dataset))
        return out

    # -- keyword search ------------------------------------------------------
    def search_keyword(self, keyword: str, limit: int = 10) -> list[DatasetHit]:
        """Match a keyword against column names and frequent values."""
        needle = keyword.lower()
        out = []
        for profile in self.engine.profiles():
            score = 0.0
            matches: list[AttributeMatch] = []
            for col in profile.columns:
                s = name_similarity(needle, col.column)
                if col.semantic and needle == col.semantic.lower():
                    s = 1.0
                for value, _count in col.categorical.top:
                    if needle in str(value).lower():
                        s = max(s, 0.9)
                if s >= 0.55:
                    matches.append(
                        AttributeMatch(keyword, col.dataset, col.column, s)
                    )
                    score = max(score, s)
            if matches:
                out.append(DatasetHit(profile.dataset, score, tuple(matches)))
        out.sort(key=lambda h: (-h.score, h.dataset))
        return out[:limit]

    # -- attribute coverage planning (feeds the DoD engine) ------------------
    def cover_attributes(
        self, attributes: list[str], min_score: float = 0.55
    ) -> dict[str, AttributeMatch | None]:
        """Best match per requested attribute (None when nothing matches)."""
        out: dict[str, AttributeMatch | None] = {}
        for attr in attributes:
            matches = self.match_attribute(attr, min_score=min_score)
            out[attr] = matches[0] if matches else None
        return out
