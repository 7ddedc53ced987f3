"""The Mashup Builder: discovery + integration + fusion, orchestrated.

This is the top box of Fig. 2 / the whole of Fig. 3: the arbiter hands it
datasets from sellers and a request derived from a buyer's WTP-function; it
returns ranked, materialized mashups with transparent plans, and can fuse
alternative mashups into a contrast view when the buyer asks for one.

It also reports what it *could not* do — the missing attributes that drive
the negotiation rounds of Section 4.1 and the opportunistic-seller economy
of Section 7.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..discovery import DiscoveryEngine, IndexBuilder, MetadataEngine
from ..fusion import auto_signals, fuse
from ..integration import DoDEngine, MashupRequest, TransformHint
from ..relation import Relation
from .plan import Mashup


@dataclass
class GapReport:
    """Attributes the corpus cannot currently supply, per request."""

    attributes: tuple[str, ...]
    #: how often each attribute was requested but unserved (demand signal)
    demand: dict[str, int] = field(default_factory=dict)


class MashupBuilder:
    """Facade over metadata engine, index builder, discovery and DoD."""

    def __init__(
        self, num_perm: int = 64, min_overlap: float = 0.5,
        plan_cache: bool = True, plan_cache_size: int = 128,
    ):
        self.metadata = MetadataEngine(num_perm=num_perm)
        self.index = IndexBuilder(self.metadata, min_overlap=min_overlap)
        self.discovery = DiscoveryEngine(self.metadata, self.index)
        self.dod = DoDEngine(
            self.metadata, self.index, self.discovery,
            plan_cache=plan_cache, plan_cache_size=plan_cache_size,
        )
        self._gap_demand: dict[str, int] = {}
        self._hints: list[TransformHint] = []

    # -- ingestion ---------------------------------------------------------
    def add_dataset(
        self, relation: Relation, owner: str = "unknown",
        credentials: str = "public",
    ) -> None:
        self.metadata.register(relation, owner=owner, credentials=credentials)

    def remove_dataset(self, name: str) -> None:
        """Withdraw a dataset; discovery indexes prune it in place."""
        self.metadata.remove(name)

    def close(self) -> None:
        """Detach index/search/plan-cache listeners from the metadata
        engine so a discarded builder does not leak into long-running
        simulations."""
        self.index.detach()
        self.discovery.detach()
        self.dod.detach()

    @property
    def datasets(self) -> list[str]:
        return self.metadata.datasets

    # -- negotiation support --------------------------------------------------
    def add_hint(self, hint: TransformHint) -> None:
        """Record mapping info volunteered by a seller (negotiation round)."""
        self._hints.append(hint)

    def gap_report(self) -> GapReport:
        """Demand signal: attributes requested but never supplied."""
        attrs = tuple(sorted(self._gap_demand))
        return GapReport(attributes=attrs, demand=dict(self._gap_demand))

    # -- building ----------------------------------------------------------------
    def build(self, request: MashupRequest) -> list[Mashup]:
        """Produce ranked mashups; standing hints are merged in."""
        merged = MashupRequest(
            attributes=request.attributes,
            key=request.key,
            examples=request.examples,
            hints=list(request.hints) + self._hints,
            max_results=request.max_results,
            min_match_score=request.min_match_score,
        )
        mashups = self.dod.build_mashups(merged)
        for m in mashups[:1]:
            for attr in m.missing:
                self._gap_demand[attr] = self._gap_demand.get(attr, 0) + 1
        if not mashups:
            for attr in request.attributes:
                self._gap_demand[attr] = self._gap_demand.get(attr, 0) + 1
        return mashups

    def build_fused(
        self, request: MashupRequest, key: str
    ) -> Relation | None:
        """Fuse all alternative mashups into one contrast relation.

        For buyers who "want to have access to all available signals to make
        up their own minds" (Section 5.3): every alternative mashup becomes
        a source; identically named output attributes become fused signals.
        """
        mashups = self.build(request)
        if not mashups:
            return None
        if len(mashups) == 1:
            return mashups[0].relation
        alternatives = [
            m.relation.renamed(f"alt_{i}")
            for i, m in enumerate(mashups)
        ]
        signals = auto_signals(alternatives, key)
        return fuse(alternatives, key, signals)
