"""The unified platform façade: one object, one API, the whole DMMS.

The paper's market platform (Fig. 1–2) is *one* system mediating sellers,
buyers and the arbiter.  :class:`DataMarket` owns and wires the entire
stack — metadata engine, index builder, discovery, DoD planner, mashup
builder, arbiter — and exposes a small set of typed operations:

======================  =====================================================
``register_dataset``    seller shares a new dataset  → :class:`RegisterResult`
``update_dataset``      seller refreshes a live one  → :class:`RegisterResult`
``retire_dataset``      seller withdraws             → :class:`RetireResult`
``search``              rank datasets by attributes  → :class:`SearchResult`
``plan``                build ranked mashups         → :class:`PlanResult`
``submit_wtp``          buyer queues an offer        → :class:`WTPReceipt`
``run_round``           clear the market             → :class:`RoundReport`
======================  =====================================================

Every mutation flows through this one choke point, which is what makes the
component-scoped **plan cache** sound: ``plan`` requests are memoized with
the join-graph component fingerprints they depended on, a delta evicts
exactly the entries whose components it touched (unrelated seller churn
leaves the rest servable), and every read result is stamped with the graph
version it was computed against (``as_of``).  Errors on this surface are
structured
:class:`~repro.errors.MarketError` subclasses, never bare ``ValueError``.

Every column is profiled under one sketch (one-permutation MinHash in
rounds, see :mod:`repro.sketches.minhash`), so all signatures a market
holds are mutually comparable.  A durable store written under another
schema version is refused at open with a typed ``StoreError`` (see
:data:`repro.platform.store.SCHEMA_VERSION`); re-registering the corpus is
the migration.

The engine classes remain importable (they are the internal layer); the
façade is the supported wiring::

    from repro import DataMarket, external_market

    market = DataMarket(external_market())
    market.register_dataset(my_relation, seller="acme", reserve_price=5.0)
    market.register_participant("b1", funding=200.0)
    market.submit_wtp(my_wtp)
    report = market.run_round()
"""

from __future__ import annotations

from typing import Iterable

from ..errors import (
    DatasetNotFoundError,
    DuplicateDatasetError,
    InvalidRequestError,
    UnknownParticipantError,
)
from ..integration import TransformHint
from ..integration.dod import MashupRequest, PlanCacheStats, PlannerStats
from ..market.arbiter import Arbiter, Delivery
from ..market.design import MarketDesign, external_market
from ..market.disputes import DisputeDesk, DisputeKind
from ..market.insurance import InsuranceDesk
from ..market.licensing import ContextualIntegrityPolicy, License
from ..market.negotiation import InfoRequest
from ..market.trusts import DataTrust
from ..mashup import MashupBuilder
from ..relation import Relation, Schema
from ..relation.codec import relation_to_payload
from ..wtp import WTPFunction
from .store import MarketStore
from .results import (
    DisputeResult,
    InfoRequestView,
    InsuranceQuote,
    InsuranceSettlement,
    NegotiationReport,
    ParticipantResult,
    PlanResult,
    RegisterResult,
    RetireResult,
    RoundReport,
    SearchResult,
    TrustDistribution,
    TrustReport,
    WTPReceipt,
)


def _normalized_attributes(attributes: Iterable[str]) -> tuple[str, ...]:
    attrs = tuple(attributes)
    if not attrs:
        raise InvalidRequestError("at least one attribute is required")
    for a in attrs:
        if not isinstance(a, str) or not a:
            raise InvalidRequestError(
                f"attributes must be non-empty strings, got {a!r}"
            )
    return attrs


def _check_utf8(relation: Relation, seller: str) -> None:
    """Refuse a name with no UTF-8 form (a lone surrogate, U+D800 to
    U+DFFF): the store and the content digest encode every name and tag,
    so such a write must fail before any engine changes."""
    fields = [("dataset name", relation.name), ("seller", seller)]
    for column in relation.schema:
        fields.append(("column name", column.name))
        if column.semantic is not None:
            fields.append(
                (f"semantic tag of column {column.name!r}", column.semantic)
            )
    for field, text in fields:
        try:
            if isinstance(text, str):
                text.encode()
        except UnicodeEncodeError:
            raise InvalidRequestError(
                f"{field} {text!r} holds a lone surrogate "
                f"(U+D800 to U+DFFF), which has no UTF-8 form"
            ) from None


class DataMarket:
    """Facade over the full data-market stack, per deployed design.

    Constructor options forward to the internal layer: ``num_perm`` /
    ``min_overlap`` shape the discovery indexes, and ``plan_cache`` /
    ``plan_cache_size`` control the component-scoped plan cache (on by
    default, LRU-bounded): cached plans survive deltas in unrelated
    join-graph components and are evicted exactly when a delta touched a
    component they depend on.  ``store`` (a path or a :class:`MarketStore`) makes every dataset delta
    durable and cold-starts the market by replay.
    """

    def __init__(
        self,
        design: MarketDesign | None = None,
        *,
        num_perm: int = 64,
        min_overlap: float = 0.5,
        plan_cache: bool = True,
        plan_cache_size: int = 128,
        store: MarketStore | str | None = None,
    ):
        self.design = design if design is not None else external_market()
        self.arbiter = Arbiter(
            self.design,
            builder=MashupBuilder(
                num_perm=num_perm,
                min_overlap=min_overlap,
                plan_cache=plan_cache,
                plan_cache_size=plan_cache_size,
            ),
        )
        self._rounds = 0
        self._dispute_desk: DisputeDesk | None = None
        self._insurance_desk: InsuranceDesk | None = None
        self._trusts: dict[str, DataTrust] = {}
        #: optional durable store — a path (or a MarketStore) makes every
        #: dataset delta crash-safe and cold-starts this market by replay
        self._store: MarketStore | None = None
        if store is not None:
            self._store = (
                store if isinstance(store, MarketStore)
                else MarketStore(store)
            )
            self._store.replay_into(self)

    # -- internal layer, exposed read-only for observability ---------------
    @property
    def builder(self) -> MashupBuilder:
        return self.arbiter.builder

    @property
    def store(self) -> MarketStore | None:
        """The durable store backing this market (None when ephemeral)."""
        return self._store

    @property
    def metadata(self):
        return self.arbiter.builder.metadata

    @property
    def index(self):
        return self.arbiter.builder.index

    @property
    def discovery(self):
        return self.arbiter.builder.discovery

    @property
    def planner(self):
        return self.arbiter.builder.dod

    @property
    def ledger(self):
        return self.arbiter.ledger

    @property
    def licenses(self):
        return self.arbiter.licenses

    @property
    def audit(self):
        return self.arbiter.audit

    @property
    def lineage(self):
        return self.arbiter.lineage

    @property
    def negotiation(self):
        return self.arbiter.negotiation

    @property
    def disputes(self) -> DisputeDesk:
        """The dispute desk, adjudicating against this market's own
        audit log, lineage store and ledger (built on first use)."""
        if self._dispute_desk is None:
            self._dispute_desk = DisputeDesk(
                self.ledger, self.audit, self.lineage
            )
        return self._dispute_desk

    @property
    def insurance(self) -> InsuranceDesk:
        """The data-insurance desk, settling through this market's ledger
        (built on first use)."""
        if self._insurance_desk is None:
            self._insurance_desk = InsuranceDesk(self.ledger)
        return self._insurance_desk

    @property
    def trusts(self) -> tuple[str, ...]:
        """Names of the data trusts hosted on this platform."""
        return tuple(sorted(self._trusts))

    @property
    def recommendations(self):
        return self.arbiter.recommendations

    @property
    def datasets(self) -> list[str]:
        return self.arbiter.builder.datasets

    @property
    def graph_version(self) -> int:
        """Current relationship-graph version (``as_of`` of fresh reads)."""
        return self.arbiter.builder.index.graph_version

    @property
    def planner_stats(self) -> PlannerStats:
        """Work counters of the most recent ``plan`` / round build."""
        return self.arbiter.builder.dod.last_stats

    @property
    def plan_cache_stats(self) -> PlanCacheStats:
        """Cumulative plan-cache hit/miss/invalidation counters."""
        return self.arbiter.builder.dod.cache_stats

    # -- participants ------------------------------------------------------
    def register_participant(
        self, name: str, funding: float = 0.0
    ) -> ParticipantResult:
        """Open a ledger account for a buyer or seller."""
        self.arbiter.register_participant(name, funding=funding)
        return ParticipantResult(
            participant=name, funding=funding, as_of=self.graph_version
        )

    def attach_buyer_platform(self, platform) -> None:
        """Deliveries will be pushed to ``platform.receive``."""
        self.arbiter.attach_buyer_platform(platform)

    # -- dataset lifecycle -------------------------------------------------
    def register_dataset(
        self,
        relation: Relation,
        seller: str,
        *,
        reserve_price: float = 0.0,
        license: License | None = None,
        policy: ContextualIntegrityPolicy | None = None,
    ) -> RegisterResult:
        """Share a *new* dataset (a live name is a :class:`DuplicateDatasetError`;
        use :meth:`update_dataset` to refresh one)."""
        if relation.name in self.arbiter.licenses:
            raise DuplicateDatasetError(
                f"dataset {relation.name!r} is already live; "
                "use update_dataset to refresh it"
            )
        return self._accept(
            relation, seller, reserve_price, license, policy, created=True
        )

    def update_dataset(
        self,
        relation: Relation,
        seller: str,
        *,
        reserve_price: float = 0.0,
        license: License | None = None,
        policy: ContextualIntegrityPolicy | None = None,
    ) -> RegisterResult:
        """Refresh a live dataset: new snapshot version, refreshed reserve,
        granted licensees preserved, and an omitted ``license``/``policy``
        keeping the current one.  Updating a name the platform does not
        hold is a :class:`DatasetNotFoundError`; silent license downgrades
        raise :class:`~repro.errors.LicenseDowngradeError`."""
        if relation.name not in self.arbiter.licenses:
            raise DatasetNotFoundError(
                f"dataset {relation.name!r} is not registered; "
                "use register_dataset first"
            )
        return self._accept(
            relation, seller, reserve_price, license, policy, created=False
        )

    def _accept(
        self, relation, seller, reserve_price, license, policy, created
    ) -> RegisterResult:
        # names and tags are checked, and the store's payload and the
        # content digest (memoized for the registration) built, before
        # any engine changes: what either cannot take is refused with the
        # market untouched
        _check_utf8(relation, seller)
        payload = (
            relation_to_payload(relation) if self._store is not None else None
        )
        relation.content_hash()
        self.arbiter.accept_dataset(
            relation,
            seller=seller,
            reserve_price=reserve_price,
            license=license,
            policy=policy,
        )
        snapshot = self.metadata.snapshot(relation.name)
        if self._store is not None:
            held = self.metadata.relation(relation.name)
            if held is not relation:
                # unchanged content keeps the rows already held (and
                # stored), so the store goes on matching memory
                payload = relation_to_payload(held)
            self._store.persist_dataset(self, relation.name, payload)
        return RegisterResult(
            dataset=relation.name,
            seller=seller,
            version=snapshot.version,
            rows=len(relation),
            reserve_price=reserve_price,
            created=created,
            as_of=self.graph_version,
        )

    def retire_dataset(self, dataset: str) -> RetireResult:
        """Withdraw a dataset; discovery indexes prune it in place."""
        if dataset not in self.arbiter.licenses:
            raise DatasetNotFoundError(
                f"dataset {dataset!r} is not registered"
            )
        seller = self.arbiter.licenses.owner_of(dataset)
        self.arbiter.retire_dataset(dataset)
        if self._store is not None:
            self._store.persist_retire(self, dataset)
        return RetireResult(
            dataset=dataset, seller=seller, as_of=self.graph_version
        )

    # -- reads -------------------------------------------------------------
    def search(
        self, attributes: Iterable[str], *, min_score: float = 0.55
    ) -> SearchResult:
        """Rank registered datasets by coverage of the attribute list."""
        attrs = _normalized_attributes(attributes)
        hits = self.discovery.search_schema(list(attrs), min_score=min_score)
        return SearchResult(
            attributes=attrs, hits=tuple(hits), as_of=self.graph_version
        )

    def plan(
        self,
        attributes: Iterable[str],
        *,
        key: str | None = None,
        examples: Relation | None = None,
        max_results: int = 5,
        min_match_score: float = 0.55,
    ) -> PlanResult:
        """Build ranked, materialized mashups for an attribute set.

        Repeated identical requests are served from the component-scoped
        plan cache (``result.cached``) for as long as no delta touched a
        join-graph component the result depends on; relevant deltas evict
        the entry automatically.
        """
        attrs = _normalized_attributes(attributes)
        if max_results < 1:
            raise InvalidRequestError("max_results must be >= 1")
        request = MashupRequest(
            attributes=list(attrs),
            key=key,
            examples=examples,
            max_results=max_results,
            min_match_score=min_match_score,
        )
        mashups = self.arbiter.builder.build(request)
        return PlanResult(
            attributes=attrs,
            key=key,
            mashups=tuple(mashups),
            cached=self.planner_stats.cache_hit,
            as_of=self.graph_version,
        )

    def materialize(self, result: PlanResult) -> tuple[Relation, ...]:
        """Run a :class:`PlanResult`'s unevaluated trees and return the
        relations, best mashup first.  Results are memoized on the
        mashups."""
        return result.collect()

    # -- negotiation (Section 4.1) -----------------------------------------
    def _request_view(self, request: InfoRequest) -> InfoRequestView:
        return InfoRequestView(
            request_id=request.request_id,
            attribute=request.attribute,
            description=request.description,
            bounty=request.bounty,
            status=request.status.value,
            fulfilled_by=request.fulfilled_by,
            as_of=self.graph_version,
        )

    def publish_gaps(self) -> NegotiationReport:
        """Turn the builder's demand gap report into open info requests
        with demand-proportional bounties."""
        demand = self.arbiter.builder.gap_report().demand
        requests = self.negotiation.publish_gaps(demand)
        return NegotiationReport(
            requests=tuple(self._request_view(r) for r in requests),
            as_of=self.graph_version,
        )

    def open_info_requests(self) -> NegotiationReport:
        """All currently open information requests."""
        return NegotiationReport(
            requests=tuple(
                self._request_view(r)
                for r in self.negotiation.open_requests()
            ),
            as_of=self.graph_version,
        )

    def respond_with_hint(
        self, request_id: int, seller: str, hint: TransformHint
    ) -> InfoRequestView:
        """A seller explains how an existing column maps to the requested
        attribute; the hint joins the planner's standing hints (and its
        content is part of the plan-cache key) immediately."""
        request = self.negotiation.respond_with_hint(request_id, seller, hint)
        self.arbiter.builder.add_hint(hint)
        return self._request_view(request)

    def respond_with_dataset(
        self,
        request_id: int,
        seller: str,
        relation: Relation,
        *,
        reserve_price: float = 0.0,
        license: License | None = None,
        policy: ContextualIntegrityPolicy | None = None,
    ) -> InfoRequestView:
        """An opportunistic seller supplies a new dataset carrying the
        requested attribute: the request closes and the dataset is
        registered (or refreshed) in one step."""
        request = self.negotiation.respond_with_dataset(
            request_id, seller, relation
        )
        if relation.name in self.arbiter.licenses:
            self.update_dataset(
                relation, seller, reserve_price=reserve_price,
                license=license, policy=policy,
            )
        else:
            self.register_dataset(
                relation, seller, reserve_price=reserve_price,
                license=license, policy=policy,
            )
        return self._request_view(request)

    # -- disputes (Section 4.4) --------------------------------------------
    def _dispute_view(self, dispute) -> DisputeResult:
        return DisputeResult(
            dispute_id=dispute.dispute_id,
            complainant=dispute.complainant,
            kind=dispute.kind.value,
            transaction_id=dispute.transaction_id,
            claimed_amount=dispute.claimed_amount,
            status=dispute.status.value,
            resolution=dispute.resolution,
            refund=dispute.refund,
            as_of=self.graph_version,
        )

    def file_dispute(
        self,
        complainant: str,
        kind: str | DisputeKind,
        transaction_id: int,
        claimed_amount: float,
    ) -> DisputeResult:
        """File a dispute (``"not_delivered"`` / ``"overcharged"`` /
        ``"unpaid_share"``) to be adjudicated against the market's own
        audit and lineage records."""
        if not isinstance(kind, DisputeKind):
            try:
                kind = DisputeKind(kind)
            except ValueError:
                valid = ", ".join(k.value for k in DisputeKind)
                raise InvalidRequestError(
                    f"unknown dispute kind {kind!r}; expected one of {valid}"
                ) from None
        dispute = self.disputes.file(
            complainant, kind, transaction_id, claimed_amount
        )
        return self._dispute_view(dispute)

    def resolve_dispute(self, dispute_id: int) -> DisputeResult:
        """Adjudicate a filed dispute from the audit/lineage evidence;
        an upheld claim refunds through the ledger."""
        return self._dispute_view(self.disputes.resolve(dispute_id))

    def open_disputes(self) -> tuple[DisputeResult, ...]:
        return tuple(
            self._dispute_view(d) for d in self.disputes.open_disputes()
        )

    # -- insurance (Section 7.1) -------------------------------------------
    def underwrite_insurance(
        self,
        dataset: str,
        insured: str,
        *,
        liability: float,
        breach_probability: float,
        loading: float = 0.25,
    ) -> InsuranceQuote:
        """Underwrite a policy on a *registered* dataset for a *known*
        participant; premiums and payouts settle through the ledger."""
        if dataset not in self.arbiter.licenses:
            raise DatasetNotFoundError(
                f"cannot insure unregistered dataset {dataset!r}"
            )
        if insured not in self.ledger:
            raise UnknownParticipantError(
                f"insured party {insured!r} is not registered"
            )
        policy = self.insurance.underwrite(
            dataset, insured, liability, breach_probability, loading
        )
        return InsuranceQuote(
            policy_id=policy.policy_id,
            dataset=policy.dataset,
            insured=policy.insured,
            liability=policy.liability,
            breach_probability=policy.breach_probability,
            loading=policy.loading,
            premium=policy.premium,
            active=policy.active,
            as_of=self.graph_version,
        )

    def collect_premium(self, policy_id: int) -> InsuranceSettlement:
        amount = self.insurance.collect_premium(policy_id)
        return InsuranceSettlement(
            policy_id=policy_id,
            insured=self.insurance.policy(policy_id).insured,
            kind="premium",
            amount=amount,
            solvency=self.insurance.solvency(),
            as_of=self.graph_version,
        )

    def file_insurance_claim(self, policy_id: int) -> InsuranceSettlement:
        """A breach occurred: pay out the liability, retire the policy."""
        amount = self.insurance.file_claim(policy_id)
        return InsuranceSettlement(
            policy_id=policy_id,
            insured=self.insurance.policy(policy_id).insured,
            kind="claim",
            amount=amount,
            solvency=self.insurance.solvency(),
            as_of=self.graph_version,
        )

    # -- data trusts (Section 4.5) -----------------------------------------
    def _trust(self, name: str) -> DataTrust:
        try:
            return self._trusts[name]
        except KeyError:
            raise DatasetNotFoundError(
                f"no data trust named {name!r} on this platform"
            ) from None

    def _trust_report(self, trust: DataTrust) -> TrustReport:
        return TrustReport(
            trust=trust.name,
            members=tuple(trust.members),
            rows=trust.total_rows,
            as_of=self.graph_version,
        )

    def create_trust(self, name: str, schema: Schema | list) -> TrustReport:
        """Open a member coalition pooling personal data under ``name``
        (which is also the dataset name it will sell under)."""
        if name in self._trusts:
            raise DuplicateDatasetError(
                f"a data trust named {name!r} already exists"
            )
        if name in self.arbiter.licenses:
            raise DuplicateDatasetError(
                f"dataset name {name!r} is already live on the market"
            )
        trust = DataTrust(name, schema)
        self._trusts[name] = trust
        return self._trust_report(trust)

    def contribute_to_trust(
        self, trust: str, member: str, relation: Relation
    ) -> TrustReport:
        """Pool one member's rows into the trust."""
        t = self._trust(trust)
        t.contribute(member, relation)
        return self._trust_report(t)

    def offer_trust_dataset(
        self,
        trust: str,
        *,
        reserve_price: float = 0.0,
        license: License | None = None,
        policy: ContextualIntegrityPolicy | None = None,
    ) -> RegisterResult:
        """Put the trust's pooled dataset on the market (the trust itself
        is the seller of record)."""
        t = self._trust(trust)
        pooled = t.pooled_dataset()
        if pooled.name in self.arbiter.licenses:
            return self.update_dataset(
                pooled, t.name, reserve_price=reserve_price,
                license=license, policy=policy,
            )
        return self.register_dataset(
            pooled, t.name, reserve_price=reserve_price,
            license=license, policy=policy,
        )

    def distribute_trust_revenue(
        self, trust: str, sold_mashup: Relation, amount: float
    ) -> TrustDistribution:
        """Split revenue earned by a sold mashup over trust members in
        proportion to the provenance shares of the rows they contributed,
        and move the money from the trust's account to the members'."""
        t = self._trust(trust)
        payouts = t.distribute(sold_mashup, amount)
        self.ledger.ensure_account(t.name)
        for member, value in sorted(payouts.items()):
            if value <= 0:
                continue
            self.ledger.ensure_account(member)
            self.ledger.transfer(
                t.name, member, value,
                memo=f"trust {t.name} revenue share",
            )
        return TrustDistribution(
            trust=t.name,
            amount=amount,
            payouts=tuple(sorted(payouts.items())),
            as_of=self.graph_version,
        )

    # -- trading -----------------------------------------------------------
    def submit_wtp(self, wtp: WTPFunction) -> WTPReceipt:
        """Queue a buyer's WTP function for the next round."""
        self.arbiter.submit_wtp(wtp)
        return WTPReceipt(
            buyer=wtp.buyer,
            attributes=tuple(wtp.attributes),
            elicitation=wtp.elicitation,
            queued=self.arbiter.pending_wtps,
            as_of=self.graph_version,
        )

    def run_round(self, context: str = "*") -> RoundReport:
        """Clear all queued WTPs through the arbiter's full pipeline."""
        result = self.arbiter.run_round(context=context)
        self._rounds += 1
        return RoundReport(
            round_index=self._rounds,
            deliveries=tuple(result.deliveries),
            rejections=tuple(result.rejections),
            expost_deliveries=tuple(result.expost_deliveries),
            as_of=self.graph_version,
        )

    # -- ex-post settlement (passthrough; see Arbiter docs) ----------------
    def receive_expost_report(
        self, buyer: str, transaction_id: int, reported_value: float
    ) -> None:
        self.arbiter.receive_expost_report(
            buyer, transaction_id, reported_value
        )

    def settle_expost(self, rng, true_values=None) -> list[Delivery]:
        return self.arbiter.settle_expost(rng, true_values)

    # -- simulator hook ----------------------------------------------------
    @staticmethod
    def simulate(*args, **kwargs):
        """Run :func:`repro.simulator.simulate_market_deployment` (which
        deploys the design on a façade exactly like this one)."""
        from ..simulator import simulate_market_deployment

        return simulate_market_deployment(*args, **kwargs)
