"""The Arbiter Management Platform — Fig. 2's pipeline, end to end.

One call to :meth:`Arbiter.run_round` executes the architecture left to
right:

1. **Mashup Builder** — every queued WTP becomes a
   :class:`~repro.integration.dod.MashupRequest`; candidate mashups come
   back ranked ([m1..mn] in the figure);
2. **WTP Evaluator** — each candidate is filtered by the buyer's intrinsic
   constraints, then all surviving candidates are scored by the task
   package in one *batched* call per buyer
   (:meth:`~repro.wtp.wtp.WTPFunction.evaluate_batch`) to measure the
   degree of satisfaction and the resulting wtp price ([mi: wtpi]);
3. **Pricing Engine** — buyers bidding on the same good (identical mashup
   content) are cleared by the market design's mechanism, which fixes
   winners and payments;
4. **Transaction Support** — licensing and reserve-price checks, then the
   ledger moves the incentive and the buyer receives the mashup;
5. **Revenue Allocation Engine** — every winner's payment in a cleared
   group is split in one batched settlement call
   (:meth:`~repro.market.revenue.RevenueAllocationEngine.split_batch`)
   between arbiter commission and contributing datasets (provenance /
   Shapley / uniform per the design) — Shapley games run through the
   vectorized estimators of :mod:`repro.valuation` — and the lineage +
   audit log record everything.

Ex-post buyers (Section 3.2.2.2) skip steps 2–3: they receive the best
*coverage* mashup immediately and settle later through
:meth:`receive_expost_report` / :meth:`settle_expost`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import (
    DatasetNotFoundError,
    DatasetOwnershipError,
    DiscoveryError,
    DuplicateParticipantError,
    InvalidRequestError,
    LicensingError,
    MarketError,
    UnknownParticipantError,
)
from ..integration import Mashup, MashupRequest
from ..mashup import MashupBuilder
from ..mechanisms import Bid, ExPostReport
from ..wtp import WTPFunction
from .accountability import AuditLog, LineageStore
from .buyer import DeliveredMashup
from .design import MarketDesign
from .licensing import (
    ContextualIntegrityPolicy,
    License,
    LicenseKind,
    LicenseRegistry,
)
from .negotiation import NegotiationManager
from .revenue import RevenueAllocationEngine, RevenueSplit
from .services import RecommendationService
from .transaction import Ledger

ARBITER_ACCOUNT = "arbiter"


class PendingSettlement(NamedTuple):
    """A cleared winner awaiting revenue settlement and commit."""

    wtp: WTPFunction
    mashup: Mashup
    satisfaction: float
    bid_price: float
    taxed: float
    #: settlement deferred to commit time: an earlier winner of the same
    #: group contends for this sale's exclusivity/transfer slots
    contended: bool


@dataclass
class Delivery:
    """A completed upfront transaction."""

    transaction_id: int
    buyer: str
    mashup: Mashup
    satisfaction: float
    bid: float
    price_paid: float
    split: RevenueSplit


@dataclass
class Rejection:
    buyer: str
    reason: str


@dataclass
class ExPostDelivery:
    """Data handed out before payment; awaiting the buyer's value report."""

    transaction_id: int
    buyer: str
    mashup: Mashup
    reported_value: float | None = None
    settled: bool = False


@dataclass
class RoundResult:
    deliveries: list[Delivery] = field(default_factory=list)
    rejections: list[Rejection] = field(default_factory=list)
    expost_deliveries: list[ExPostDelivery] = field(default_factory=list)

    @property
    def revenue(self) -> float:
        return sum(d.price_paid for d in self.deliveries)

    @property
    def transactions(self) -> int:
        return len(self.deliveries)


class Arbiter:
    """The arbiter platform: one instance per deployed market design."""

    def __init__(self, design: MarketDesign, builder: MashupBuilder | None = None):
        design.validate()
        self.design = design
        self.builder = builder or MashupBuilder()
        self.ledger = Ledger(unit=design.incentive)
        self.ledger.ensure_account(ARBITER_ACCOUNT)
        self.audit = AuditLog()
        self.lineage = LineageStore()
        self.licenses = LicenseRegistry()
        self.negotiation = NegotiationManager()
        self.recommendations = RecommendationService()
        self.revenue_engine = RevenueAllocationEngine(
            design.revenue_sharing, design.arbiter_commission
        )
        self._pending_wtps: list[WTPFunction] = []
        self._reserves: dict[str, float] = {}
        self._expost: dict[int, ExPostDelivery] = {}
        self._tx_counter = 0
        self._buyer_platforms: dict[str, object] = {}
        self.audit.append("market_created", {"design": design.summary()})

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_participant(self, name: str, funding: float = 0.0) -> None:
        """Open a ledger account (+ grant + optional funding)."""
        if name in self.ledger:
            raise DuplicateParticipantError(
                f"participant {name!r} already registered"
            )
        if funding < 0:
            raise InvalidRequestError("funding must be non-negative")
        self.ledger.open_account(name)
        grant = self.design.participation_grant
        if grant > 0:
            self.ledger.mint(name, grant, memo="participation grant")
        if funding > 0:
            self.ledger.mint(name, funding, memo="external funding")
        self.audit.append(
            "participant_registered", {"name": name, "funding": funding}
        )

    def attach_buyer_platform(self, platform) -> None:
        """Deliveries will be pushed to the platform's ``receive``."""
        self._buyer_platforms[platform.buyer_id] = platform

    def accept_dataset(
        self,
        relation,
        seller: str,
        reserve_price: float = 0.0,
        license: License | None = None,
        policy: ContextualIntegrityPolicy | None = None,
    ) -> None:
        """Fig. 2's seller→arbiter dataset flow.

        Re-accepting a name the same seller already holds is an *update*
        (new version + refreshed reserve, with granted licensees preserved,
        an omitted ``license``/``policy`` keeping the current one, and
        silent license downgrades rejected); a name held by a different
        seller, or an update stripping licensees' rights, is rejected
        before any state moves.
        """
        if seller not in self.ledger:
            self.register_participant(seller)
        if reserve_price < 0:
            raise InvalidRequestError("reserve price must be non-negative")
        if relation.name in self.licenses:
            if self.licenses.owner_of(relation.name) != seller:
                raise DatasetOwnershipError(
                    f"dataset {relation.name!r} is already registered to "
                    f"{self.licenses.owner_of(relation.name)!r}"
                )
            # license continuity: granted licensees survive the update (an
            # EXCLUSIVE dataset must not regain free slots), and a
            # rights-stripping downgrade aborts before discovery state moves
            self.licenses.update(
                relation.name, owner=seller, license=license, policy=policy
            )
            self.builder.add_dataset(relation, owner=seller)
        else:
            self.builder.add_dataset(relation, owner=seller)
            self.licenses.register(
                relation.name, owner=seller, license=license, policy=policy
            )
        self._reserves[relation.name] = reserve_price
        self.audit.append(
            "dataset_accepted",
            {
                "dataset": relation.name,
                "seller": seller,
                "rows": len(relation),
                "reserve": reserve_price,
            },
        )

    def adopt_dataset(
        self,
        name: str,
        seller: str,
        reserve_price: float,
        license: License | None,
        policy: ContextualIntegrityPolicy | None,
    ) -> None:
        """Durable-store replay: restore market-side registration state for
        a dataset whose discovery state is being replayed separately.

        Unlike :meth:`accept_dataset` this never touches the builder — the
        store re-installs profiles/candidates/edges wholesale — it only
        re-opens the seller's account (if needed), re-registers the license
        and reserve, and records the replay in the audit log."""
        if seller not in self.ledger:
            self.register_participant(seller)
        self.licenses.register(name, owner=seller, license=license, policy=policy)
        self._reserves[name] = reserve_price
        self.audit.append(
            "dataset_replayed",
            {"dataset": name, "seller": seller, "reserve": reserve_price},
        )

    def retire_dataset(self, dataset: str) -> None:
        """Seller withdrawal: prune the dataset from discovery in place.

        Already-granted licenses and lineage records stay on the books —
        past sales remain auditable — but no future mashup may source it.
        """
        try:
            self.builder.remove_dataset(dataset)
        except DiscoveryError as exc:
            raise DatasetNotFoundError(str(exc)) from None
        if dataset in self.licenses:
            self.licenses.deregister(dataset)
        self._reserves.pop(dataset, None)
        self.audit.append("dataset_retired", {"dataset": dataset})

    def submit_wtp(self, wtp: WTPFunction) -> None:
        if wtp.buyer not in self.ledger:
            raise UnknownParticipantError(
                f"buyer {wtp.buyer!r} is not registered; "
                "call register_participant first"
            )
        if wtp.elicitation == "ex_post" and self.design.elicitation == "upfront":
            raise MarketError(
                "this market design does not support ex-post elicitation"
            )
        if wtp.elicitation == "upfront" and self.design.elicitation == "ex_post":
            raise MarketError(
                "this market design only supports ex-post elicitation"
            )
        self._pending_wtps.append(wtp)
        self.audit.append(
            "wtp_submitted",
            {"buyer": wtp.buyer, "attributes": wtp.attributes,
             "elicitation": wtp.elicitation},
        )

    @property
    def pending_wtps(self) -> int:
        """WTP functions queued for the next round."""
        return len(self._pending_wtps)

    def reserve_price_of(self, dataset: str) -> float:
        """The live reserve price of a registered dataset (0.0 default)."""
        return self._reserves.get(dataset, 0.0)

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------
    def run_round(self, context: str = "*") -> RoundResult:
        result = RoundResult()
        wtps, self._pending_wtps = self._pending_wtps, []

        offers: list[tuple[WTPFunction, Mashup, float, float]] = []
        for wtp in wtps:
            if wtp.elicitation == "ex_post":
                self._deliver_expost(wtp, result)
                continue
            offer = self._best_offer(wtp, result)
            if offer is not None:
                offers.append(offer)

        # Pricing Engine: group offers by identical good, clear per group
        groups: dict[str, list[tuple[WTPFunction, Mashup, float, float]]] = {}
        for offer in offers:
            relation = offer[1].relation
            groups.setdefault(relation.content_hash(), []).append(offer)
            # the digest's ranks and packed rows serve profiling only
            relation.columnar.release()

        for group in groups.values():
            self._clear_group(group, result, context)

        # Negotiation Rounds: publish unmet demand to sellers
        gaps = self.builder.gap_report()
        if gaps.demand:
            self.negotiation.publish_gaps(gaps.demand)
        return result

    # -- step 1+2: mashup builder + WTP evaluator ------------------------------
    def _best_offer(self, wtp: WTPFunction, result: RoundResult):
        request = MashupRequest(
            attributes=wtp.attributes, key=wtp.key, examples=wtp.examples
        )
        mashups = self.builder.build(request)
        if not mashups:
            result.rejections.append(
                Rejection(wtp.buyer, "no mashup could be assembled")
            )
            return None
        candidates = [
            mashup for mashup in mashups
            if wtp.intrinsic.satisfied_by(
                mashup.relation, mashup.sources(), self.builder.metadata
            )
        ]
        # The WTP evaluator runs *buyer-supplied code* on arbiter hardware
        # (Section 3.2.2.1): every candidate of this buyer is scored in a
        # single batched call, and any crash — of one candidate or of the
        # whole batch — is contained and recorded, never propagated into
        # the market round.
        try:
            outcomes = wtp.evaluate_batch([m.relation for m in candidates])
        except Exception as exc:  # noqa: BLE001 - sandbox boundary
            self.audit.append(
                "wtp_evaluation_crashed",
                {"buyer": wtp.buyer, "error": repr(exc)},
            )
            outcomes = []
            candidates = []
        best = None
        for mashup, outcome in zip(candidates, outcomes):
            if outcome.error is not None:
                self.audit.append(
                    "wtp_evaluation_crashed",
                    {"buyer": wtp.buyer, "error": repr(outcome.error)},
                )
                continue
            if not outcome.evaluated:
                continue
            satisfaction, price = outcome.satisfaction, outcome.price
            if not _sane_evaluation(satisfaction, price):
                self.audit.append(
                    "wtp_evaluation_rejected",
                    {"buyer": wtp.buyer, "satisfaction": repr(satisfaction),
                     "price": repr(price)},
                )
                continue
            if best is None or price > best[3] or (
                price == best[3] and satisfaction > best[2]
            ):
                best = (wtp, mashup, satisfaction, price)
        if best is None:
            result.rejections.append(
                Rejection(wtp.buyer, "no candidate mashup passed evaluation")
            )
            return None
        if best[3] <= 0:
            result.rejections.append(
                Rejection(
                    wtp.buyer,
                    f"satisfaction {best[2]:.3f} below the buyer's paying "
                    f"threshold",
                )
            )
            return None
        return best

    # -- step 3..5: pricing, transaction, revenue allocation ---------------------
    def _clear_group(self, group, result: RoundResult, context: str) -> None:
        bids = [Bid(wtp.buyer, price) for wtp, _m, _s, price in group]
        outcome = self.design.mechanism.run(bids)
        by_buyer = {wtp.buyer: (wtp, m, s, p) for wtp, m, s, p in group}
        for bid in bids:
            if not outcome.won(bid.bidder):
                result.rejections.append(
                    Rejection(bid.bidder, "outbid in the clearing mechanism")
                )
        # Revenue Allocation Engine: this group's settlements are computed
        # in one batched call (per round context) — exclusivity taxes
        # first, then the winners' Shapley/provenance splits through
        # RevenueAllocationEngine.split_batch — before any ledger movement.
        # Licensing is gated FIRST: a Shapley settlement re-runs
        # buyer-supplied task code on partial mashups, so a sale the
        # license registry forbids must never reach that work.  A winner
        # contending with *earlier winners of this group* for exclusivity
        # slots (``tentative``) is not rejected here — whether a slot
        # remains depends on whether those winners actually commit — but
        # its settlement is deferred to commit time, after the outcome of
        # the earlier transactions is known.
        winners = []
        tentative: dict[str, set[str]] = {}
        for buyer in outcome.winners:
            wtp, mashup, satisfaction, bid_price = by_buyer[buyer]
            payment = outcome.payment_of(buyer)
            sources = mashup.plan.sources()
            if not self._licenses_permit(sources, wtp.buyer, context, result):
                continue
            # kinds whose check_sale outcome depends on prior sales: an
            # earlier winner of this group committing can invalidate this
            # sale, so its settlement must wait for that outcome
            contended = any(
                self.licenses.license_of(d).kind
                in (LicenseKind.EXCLUSIVE, LicenseKind.TRANSFER)
                and (tentative.get(d, set()) - {wtp.buyer})
                for d in sources
            )
            for dataset in sources:
                tentative.setdefault(dataset, set()).add(wtp.buyer)
            # exclusivity tax (Section 4.4)
            taxed = payment
            for dataset in sources:
                license = self.licenses.license_of(dataset)
                taxed = license.price_with_tax(taxed) if taxed else taxed
            winners.append(
                PendingSettlement(
                    wtp, mashup, satisfaction, bid_price, taxed, contended
                )
            )
        eager = [w for w in winners if not w.contended]
        eager_splits = dict(
            zip(
                map(id, eager),
                self.revenue_engine.split_batch(
                    [(w.mashup, w.taxed) for w in eager],
                    wtps=[w.wtp for w in eager],
                    resolver=self.builder.metadata.relation,
                    on_error=lambda i, exc: self._settlement_crashed(
                        eager[i].wtp, exc, result
                    ),
                ),
            )
        )
        for w in winners:
            if w.contended:
                # settle lazily: earlier winners have now committed (or
                # failed), so the registry reflects who holds the slots
                if not self._licenses_permit(
                    w.mashup.plan.sources(), w.wtp.buyer, context, result
                ):
                    continue
                try:
                    split = self.revenue_engine.split(
                        w.mashup, w.taxed, wtp=w.wtp,
                        resolver=self.builder.metadata.relation,
                    )
                except Exception as exc:  # noqa: BLE001 - sandbox boundary
                    self._settlement_crashed(w.wtp, exc, result)
                    continue
            else:
                split = eager_splits[id(w)]
                if split is None:  # settlement crashed; already recorded
                    continue
            self._execute_transaction(
                w.wtp, w.mashup, w.satisfaction, w.bid_price, w.taxed,
                split, result, context,
            )

    def _licenses_permit(
        self, sources, buyer: str, context: str, result: RoundResult
    ) -> bool:
        """check_sale over all sources; on violation: reject + audit."""
        try:
            for dataset in sources:
                self.licenses.check_sale(dataset, buyer, context)
        except LicensingError as exc:
            result.rejections.append(Rejection(buyer, str(exc)))
            self.audit.append(
                "sale_blocked", {"buyer": buyer, "reason": str(exc)}
            )
            return False
        return True

    def _settlement_crashed(
        self, wtp: WTPFunction, exc: Exception, result: RoundResult
    ) -> None:
        """Contain a revenue-settlement crash (Shapley re-runs buyer task
        code on partial mashups) to the one winner it belongs to."""
        result.rejections.append(
            Rejection(wtp.buyer, "revenue settlement failed for this sale")
        )
        self.audit.append(
            "settlement_crashed",
            {"buyer": wtp.buyer, "error": repr(exc)},
        )

    def _execute_transaction(
        self,
        wtp: WTPFunction,
        mashup: Mashup,
        satisfaction: float,
        bid_price: float,
        taxed: float,
        split: RevenueSplit,
        result: RoundResult,
        context: str,
    ) -> None:
        sources = mashup.plan.sources()
        # licensing + contextual integrity, re-checked sequentially at
        # commit time: the group-level gate ran against round-start state,
        # but an exclusive sale committed earlier in this loop must still
        # block later buyers of the same round
        if not self._licenses_permit(sources, wtp.buyer, context, result):
            return
        # reserve prices: every dataset's share must clear its reserve
        for dataset in sources:
            reserve = self._reserves.get(dataset, 0.0)
            if split.dataset_shares.get(dataset, 0.0) < reserve - 1e-9:
                result.rejections.append(
                    Rejection(
                        wtp.buyer,
                        f"dataset {dataset!r} reserve {reserve:.2f} not met "
                        f"(share {split.dataset_shares.get(dataset, 0.0):.2f})",
                    )
                )
                self.audit.append(
                    "sale_blocked",
                    {"buyer": wtp.buyer, "dataset": dataset,
                     "reason": "reserve not met"},
                )
                return
        # move the incentive
        try:
            if taxed > 0:
                self.ledger.transfer(
                    wtp.buyer, ARBITER_ACCOUNT, taxed, memo="purchase"
                )
        except MarketError as exc:
            result.rejections.append(Rejection(wtp.buyer, str(exc)))
            return
        for dataset, share in split.dataset_shares.items():
            if share > 0:
                self.ledger.transfer(
                    ARBITER_ACCOUNT,
                    self.licenses.owner_of(dataset),
                    share,
                    memo=f"revenue share for {dataset}",
                )
        if self.design.seller_reward > 0 and sources:
            per_dataset = self.design.seller_reward / len(sources)
            for dataset in sources:
                self.ledger.mint(
                    self.licenses.owner_of(dataset),
                    per_dataset,
                    memo=f"seller reward for {dataset}",
                )
        # finalize
        tx_id = self._next_tx()
        for dataset in sources:
            self.licenses.record_sale(dataset, wtp.buyer)
        self.lineage.record_sale(
            tx_id, wtp.buyer, taxed, split.dataset_shares, sources
        )
        self.recommendations.record_purchase(wtp.buyer, sources)
        self.audit.append(
            "transaction",
            {
                "tx": tx_id,
                "buyer": wtp.buyer,
                "sources": sources,
                "satisfaction": round(satisfaction, 6),
                "bid": round(bid_price, 6),
                "paid": round(taxed, 6),
            },
        )
        delivery = Delivery(
            transaction_id=tx_id,
            buyer=wtp.buyer,
            mashup=mashup,
            satisfaction=satisfaction,
            bid=bid_price,
            price_paid=taxed,
            split=split,
        )
        result.deliveries.append(delivery)
        platform = self._buyer_platforms.get(wtp.buyer)
        if platform is not None:
            platform.receive(
                DeliveredMashup(
                    transaction_id=tx_id,
                    relation=mashup.relation,
                    price_paid=taxed,
                    plan_description=mashup.plan.describe(),
                )
            )

    # -- ex-post flow --------------------------------------------------------------
    def _deliver_expost(self, wtp: WTPFunction, result: RoundResult) -> None:
        if self.design.expost is None:
            result.rejections.append(
                Rejection(wtp.buyer, "market has no ex-post mechanism")
            )
            return
        request = MashupRequest(
            attributes=wtp.attributes, key=wtp.key, examples=wtp.examples
        )
        mashups = self.builder.build(request)
        if not mashups:
            result.rejections.append(
                Rejection(wtp.buyer, "no mashup could be assembled")
            )
            return
        mashup = max(mashups, key=lambda m: m.coverage)
        tx_id = self._next_tx()
        delivery = ExPostDelivery(tx_id, wtp.buyer, mashup)
        self._expost[tx_id] = delivery
        result.expost_deliveries.append(delivery)
        self.audit.append(
            "expost_delivered",
            {"tx": tx_id, "buyer": wtp.buyer, "sources": mashup.plan.sources()},
        )
        platform = self._buyer_platforms.get(wtp.buyer)
        if platform is not None:
            platform.receive(
                DeliveredMashup(
                    transaction_id=tx_id,
                    relation=mashup.relation,
                    price_paid=0.0,
                    plan_description=mashup.plan.describe(),
                )
            )

    def receive_expost_report(
        self, buyer: str, transaction_id: int, reported_value: float
    ) -> None:
        delivery = self._expost.get(transaction_id)
        if delivery is None or delivery.buyer != buyer:
            raise MarketError(
                f"no ex-post delivery {transaction_id} for buyer {buyer!r}"
            )
        if delivery.settled:
            raise MarketError(f"delivery {transaction_id} already settled")
        if reported_value < 0:
            raise MarketError("reported value must be non-negative")
        delivery.reported_value = reported_value
        self.audit.append(
            "expost_reported",
            {"tx": transaction_id, "buyer": buyer, "reported": reported_value},
        )

    def settle_expost(
        self,
        rng: np.random.Generator,
        true_values: dict[int, float] | None = None,
    ) -> list[Delivery]:
        """Charge all reported ex-post deliveries through the mechanism.

        ``true_values`` (tx_id -> v) is the auditor's ground truth; in a
        simulation the engine passes the buyers' actual realized values, in
        production it would come from usage metering.  Missing entries mean
        the audit trusts the report.
        """
        mechanism = self.design.expost
        if mechanism is None:
            raise MarketError("market has no ex-post mechanism")
        settled: list[Delivery] = []
        for tx_id, delivery in sorted(self._expost.items()):
            if delivery.settled or delivery.reported_value is None:
                continue
            true_value = (true_values or {}).get(
                tx_id, delivery.reported_value
            )
            charge = mechanism.charge(
                ExPostReport(delivery.buyer, delivery.reported_value, true_value),
                rng,
            )
            amount = charge.total
            if amount > 0:
                self.ledger.transfer(
                    delivery.buyer, ARBITER_ACCOUNT, amount,
                    memo=f"ex-post settlement tx={tx_id}",
                )
            # ex-post settlements have no WTP to re-evaluate, so shapley
            # markets fall back to provenance sharing here
            engine = self.revenue_engine
            if engine.method == "shapley":
                engine = RevenueAllocationEngine(
                    "provenance", self.design.arbiter_commission
                )
            split = engine.split(delivery.mashup, amount)
            for dataset, share in split.dataset_shares.items():
                if share > 0:
                    self.ledger.transfer(
                        ARBITER_ACCOUNT,
                        self.licenses.owner_of(dataset),
                        share,
                        memo=f"ex-post revenue share for {dataset}",
                    )
            sources = delivery.mashup.plan.sources()
            self.lineage.record_sale(
                tx_id, delivery.buyer, amount, split.dataset_shares, sources
            )
            self.audit.append(
                "expost_settled",
                {"tx": tx_id, "buyer": delivery.buyer,
                 "paid": round(amount, 6), "audited": charge.audited},
            )
            delivery.settled = True
            settled.append(
                Delivery(
                    transaction_id=tx_id,
                    buyer=delivery.buyer,
                    mashup=delivery.mashup,
                    satisfaction=float("nan"),
                    bid=delivery.reported_value,
                    price_paid=amount,
                    split=split,
                )
            )
        return settled

    # ------------------------------------------------------------------
    def _next_tx(self) -> int:
        self._tx_counter += 1
        return self._tx_counter


def _sane_evaluation(satisfaction: object, price: object) -> bool:
    """Reject task outputs the market cannot act on (NaN, out of range,
    non-numeric) — malicious or buggy task packages must not distort the
    clearing mechanism."""
    import math

    if not isinstance(satisfaction, (int, float)) or isinstance(
        satisfaction, bool
    ):
        return False
    if not isinstance(price, (int, float)) or isinstance(price, bool):
        return False
    if not (math.isfinite(satisfaction) and math.isfinite(price)):
        return False
    return 0.0 <= satisfaction <= 1.0 and price >= 0.0
