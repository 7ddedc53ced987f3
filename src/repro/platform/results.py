"""Typed, frozen result objects for the :class:`~repro.platform.DataMarket`
façade.

Every read result is stamped with ``as_of`` — the relationship graph
version (:attr:`repro.discovery.IndexBuilder.graph_version`) it was computed
against.  The version is bumped by every metadata delta, so two results with
equal ``as_of`` were derived from identical discovery state; monotonically
non-decreasing ``as_of`` values across a caller's reads are the first step
toward snapshot-isolated readers.  Mutation results carry the version that
became current *after* the mutation committed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..discovery.search import DatasetHit
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
