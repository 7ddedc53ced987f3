"""Typed, frozen result objects for the :class:`~repro.platform.DataMarket`
façade.

Every read result is stamped with ``as_of`` — the relationship graph
version (:attr:`repro.discovery.IndexBuilder.graph_version`) it was computed
against.  The version is bumped by every metadata delta, so two results with
equal ``as_of`` were derived from identical discovery state; monotonically
non-decreasing ``as_of`` values across a caller's reads are the first step
toward snapshot-isolated readers.  Mutation results carry the version that
became current *after* the mutation committed.

Plan and round results hold live expression trees and ledger objects, which
cannot cross a network; :func:`plan_view` and :func:`round_view` turn them
into the frozen views (:class:`GatewayPlanResult`, :class:`RoundSummary`)
that the HTTP gateway serves and :class:`~repro.platform.MarketClient`
returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..discovery.search import DatasetHit
from ..errors import MarketError
from ..integration.plan import Mashup, MashupPlan
from ..market.arbiter import Delivery, ExPostDelivery, Rejection
from ..relation import Relation, RelationExpr


@dataclass(frozen=True)
class RegisterResult:
    """Outcome of ``register_dataset`` / ``update_dataset``."""

    dataset: str
    seller: str
    #: snapshot version in the metadata engine (1 for a first registration;
    #: unchanged when an update carried identical content)
    version: int
    rows: int
    reserve_price: float
    #: True for a first registration, False for an update of a live name
    created: bool
    as_of: int


@dataclass(frozen=True)
class RetireResult:
    """Outcome of ``retire_dataset``: the name is free again."""

    dataset: str
    seller: str
    as_of: int


@dataclass(frozen=True)
class SearchResult:
    """Ranked dataset hits for a requested attribute set."""

    attributes: tuple[str, ...]
    hits: tuple[DatasetHit, ...]
    as_of: int

    @property
    def datasets(self) -> tuple[str, ...]:
        """Hit dataset names, best first."""
        return tuple(h.dataset for h in self.hits)

    @property
    def best(self) -> DatasetHit | None:
        return self.hits[0] if self.hits else None

    def __len__(self) -> int:
        return len(self.hits)


@dataclass(frozen=True)
class PlanResult:
    """Ranked mashups for a requested attribute set.

    Each mashup carries an **unevaluated** expression tree; nothing has
    touched the rows yet.  :meth:`collect` (or
    :meth:`DataMarket.materialize <repro.platform.DataMarket.materialize>`)
    runs the trees on an engine; the per-mashup result is memoized, so
    repeated collection — and ``mashup.relation`` access — is free.
    """

    attributes: tuple[str, ...]
    key: str | None
    mashups: tuple[Mashup, ...]
    #: True when the whole request was served from the graph-version plan
    #: cache (identical output to an uncached run at the same ``as_of``)
    cached: bool
    as_of: int

    @property
    def best(self) -> Mashup | None:
        return self.mashups[0] if self.mashups else None

    @property
    def plans(self) -> tuple[MashupPlan, ...]:
        return tuple(m.plan for m in self.mashups)

    @property
    def trees(self) -> tuple[RelationExpr, ...]:
        """The unevaluated result trees, best mashup first."""
        return tuple(m.tree for m in self.mashups)

    def collect(self) -> tuple[Relation, ...]:
        """Materialize every mashup.  Results are memoized on the mashups,
        shared with any plan-cache copies of the same trees."""
        return tuple(m.collect() for m in self.mashups)

    def __len__(self) -> int:
        return len(self.mashups)


@dataclass(frozen=True)
class WTPReceipt:
    """Acknowledgement that a WTP function is queued for the next round."""

    buyer: str
    attributes: tuple[str, ...]
    elicitation: str
    #: WTPs pending for the next round, this one included
    queued: int
    as_of: int


@dataclass(frozen=True)
class ParticipantResult:
    """Outcome of ``register_participant``: a funded ledger account."""

    participant: str
    funding: float
    as_of: int


@dataclass(frozen=True)
class InfoRequestView:
    """One negotiation request (Section 4.1), as seen through the façade."""

    request_id: int
    attribute: str
    description: str
    bounty: float
    #: ``"open"`` / ``"fulfilled"`` / ``"withdrawn"``
    status: str
    fulfilled_by: str | None
    as_of: int

    @property
    def open(self) -> bool:
        return self.status == "open"


@dataclass(frozen=True)
class NegotiationReport:
    """Open information requests published from the demand gap report."""

    requests: tuple[InfoRequestView, ...]
    as_of: int

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(r.attribute for r in self.requests)

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class DisputeResult:
    """One dispute (Section 4.4) and — once resolved — its adjudication."""

    dispute_id: int
    complainant: str
    #: ``"not_delivered"`` / ``"overcharged"`` / ``"unpaid_share"``
    kind: str
    transaction_id: int
    claimed_amount: float
    #: ``"open"`` / ``"upheld"`` / ``"dismissed"``
    status: str
    resolution: str
    refund: float
    as_of: int

    @property
    def upheld(self) -> bool:
        return self.status == "upheld"


@dataclass(frozen=True)
class InsuranceQuote:
    """An underwritten data-insurance policy (Section 7.1)."""

    policy_id: int
    dataset: str
    insured: str
    liability: float
    breach_probability: float
    loading: float
    #: per-period price: ``breach_probability · liability · (1 + loading)``
    premium: float
    active: bool
    as_of: int


@dataclass(frozen=True)
class InsuranceSettlement:
    """A ledger movement on a policy: a premium in or a claim payout out."""

    policy_id: int
    insured: str
    #: ``"premium"`` (insured → insurer) or ``"claim"`` (insurer → insured)
    kind: str
    amount: float
    #: insurer account balance after the movement
    solvency: float
    as_of: int


@dataclass(frozen=True)
class TrustReport:
    """State of a data trust (Section 4.5) after a membership change."""

    trust: str
    members: tuple[str, ...]
    #: total pooled rows across all contributions
    rows: int
    as_of: int


@dataclass(frozen=True)
class TrustDistribution:
    """A trust revenue split: provenance-weighted member payouts."""

    trust: str
    amount: float
    #: (member, payout) pairs, sorted by member name
    payouts: tuple[tuple[str, float], ...]
    as_of: int

    def payout_of(self, member: str) -> float:
        return dict(self.payouts).get(member, 0.0)

    @property
    def distributed(self) -> float:
        return sum(v for _m, v in self.payouts)


@dataclass(frozen=True)
class RoundReport:
    """One cleared market round, as seen through the façade."""

    round_index: int
    deliveries: tuple[Delivery, ...]
    rejections: tuple[Rejection, ...]
    expost_deliveries: tuple[ExPostDelivery, ...]
    as_of: int

    @property
    def revenue(self) -> float:
        return sum(d.price_paid for d in self.deliveries)

    @property
    def transactions(self) -> int:
        return len(self.deliveries)


# ---------------------------------------------------------------------------
# views served over HTTP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MashupView:
    """One planned mashup as served over HTTP: the datasets the plan
    reads, the attribute matches, and (when collected) the materialized
    result relation."""

    datasets: tuple[str, ...]
    #: requested attribute -> (dataset, column, score)
    matched: tuple[tuple[str, tuple[str, str, float]], ...]
    missing: tuple[str, ...]
    relation: Relation | None

    @property
    def rows(self) -> tuple:
        if self.relation is None:
            raise MarketError(
                "this plan was requested with collect=False; "
                "re-plan with collect=True for rows"
            )
        return self.relation.rows


@dataclass(frozen=True)
class GatewayPlanResult:
    """Ranked mashups for an attribute set, as served over HTTP."""

    attributes: tuple[str, ...]
    key: str | None
    mashups: tuple[MashupView, ...]
    cached: bool
    as_of: int

    @property
    def best(self) -> MashupView | None:
        return self.mashups[0] if self.mashups else None

    def __len__(self) -> int:
        return len(self.mashups)


@dataclass(frozen=True)
class DeliveryView:
    """One completed transaction from a cleared round."""

    transaction_id: int
    buyer: str
    datasets: tuple[str, ...]
    satisfaction: float
    bid: float
    price_paid: float
    arbiter_fee: float
    #: (dataset, share) pairs, sorted by dataset
    seller_shares: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class RoundSummary:
    """One cleared market round, as served over HTTP."""

    round_index: int
    deliveries: tuple[DeliveryView, ...]
    #: (buyer, reason) pairs
    rejections: tuple[tuple[str, str], ...]
    #: (transaction_id, buyer, datasets) triples awaiting ex-post reports
    expost_deliveries: tuple[tuple[int, str, tuple[str, ...]], ...]
    as_of: int

    @property
    def revenue(self) -> float:
        return sum(d.price_paid for d in self.deliveries)

    @property
    def transactions(self) -> int:
        return len(self.deliveries)


@dataclass(frozen=True)
class PinnedResult:
    """A search and/or plan answered against one pinned snapshot."""

    as_of: int
    search: SearchResult | None
    plan: GatewayPlanResult | None


def plan_view(result: PlanResult, collect: bool) -> GatewayPlanResult:
    """``result`` with its trees collected (or not, ``collect=False``).
    Collection needs no lock: the trees are immutable."""
    return GatewayPlanResult(
        attributes=result.attributes,
        key=result.key,
        mashups=tuple(
            MashupView(
                datasets=tuple(m.plan.sources()),
                matched=tuple(sorted(m.matched.items())),
                missing=tuple(m.missing),
                relation=m.collect() if collect else None,
            )
            for m in result.mashups
        ),
        cached=result.cached,
        as_of=result.as_of,
    )


def round_view(report: RoundReport) -> RoundSummary:
    """``report`` with its deliveries reduced to names and amounts."""
    return RoundSummary(
        round_index=report.round_index,
        deliveries=tuple(
            DeliveryView(
                transaction_id=d.transaction_id,
                buyer=d.buyer,
                datasets=tuple(d.mashup.plan.sources()),
                satisfaction=d.satisfaction,
                bid=d.bid,
                price_paid=d.price_paid,
                arbiter_fee=d.split.arbiter_fee,
                seller_shares=tuple(sorted(d.split.dataset_shares.items())),
            )
            for d in report.deliveries
        ),
        rejections=tuple((r.buyer, r.reason) for r in report.rejections),
        expost_deliveries=tuple(
            (d.transaction_id, d.buyer, tuple(d.mashup.plan.sources()))
            for d in report.expost_deliveries
        ),
        as_of=report.as_of,
    )
