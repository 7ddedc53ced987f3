"""Typed HTTP client for the market gateway.

:class:`MarketClient` mirrors the :class:`~repro.platform.DataMarket`
façade over a real socket: the same operations, the same frozen result
dataclasses (``RegisterResult``/``RetireResult``/``SearchResult``/
``WTPReceipt`` are rebuilt bit-for-bit from the wire payload, so a client
result compares equal to the in-process façade's), and the same typed
error taxonomy — a 404 raises :class:`~repro.errors.DatasetNotFoundError`,
a 429 raises :class:`~repro.errors.RateLimitError` with ``retry_after``
filled from the response header, exactly as if the façade had been called
in-process.

Plan and round results cannot carry live expression trees or ledger
objects across the network, so they come back as gateway-specific frozen
views (:class:`MashupView` / :class:`GatewayPlanResult` /
:class:`RoundSummary`) holding the *materialized* relations the server
collected from the lazy trees.

Only the stdlib is used (``http.client``); a connection is opened per
request, which keeps the client trivially thread-safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from http.client import HTTPConnection
from urllib.parse import quote, urlencode, urlsplit

from .. import errors as _errors
from ..discovery.search import AttributeMatch, DatasetHit
from ..errors import MarketError, RateLimitError
from ..relation import Column, Relation, Schema
from ..wtp import WTPFunction
from .http import relation_to_payload, wtp_to_spec
from .results import RegisterResult, RetireResult, SearchResult, WTPReceipt
from .service import ServiceError
from .store import StoreError

#: error type name -> exception class, for rebuilding typed errors from
#: structured error bodies (names outside the taxonomy raise MarketError)
_ERRORS_BY_NAME: dict[str, type] = {
    name: obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, MarketError)
}
_ERRORS_BY_NAME["ServiceError"] = ServiceError
_ERRORS_BY_NAME["StoreError"] = StoreError


class GatewayResponseError(MarketError):
    """The gateway answered with something that is not gateway JSON."""


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


def relation_from_wire(obj: dict) -> Relation:
    """Rebuild a relation from the gateway's payload form."""
    return Relation(
        obj["name"],
        Schema([Column(*parts) for parts in obj["columns"]]),
        [tuple(row) for row in obj["rows"]],
    )


class MarketClient:
    """Drive a :class:`~repro.platform.http.MarketGateway` over HTTP.

    ``base_url`` is the gateway root (e.g. ``http://127.0.0.1:8080``);
    ``token`` authenticates mutating calls — the gateway resolves it to
    the seller/buyer the client acts as."""

    def __init__(
        self,
        base_url: str,
        *,
        token: str | None = None,
        timeout: float = 30.0,
    ):
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", ""):
            raise MarketError(
                f"MarketClient speaks plain http, got {parts.scheme!r}"
            )
        netloc = parts.netloc or parts.path
        host, _, port = netloc.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port) if port else 80
        self.token = token
        self.timeout = timeout

    # -- transport ---------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        query: dict | None = None,
    ) -> dict:
        if query:
            pairs = {k: v for k, v in query.items() if v is not None}
            if pairs:
                path = f"{path}?{urlencode(pairs)}"
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        payload = json.dumps(body).encode("utf-8") if body is not None else b""
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
            retry_after = response.getheader("Retry-After")
        finally:
            conn.close()
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise GatewayResponseError(
                f"non-JSON response (status {status}) from "
                f"{method} {path}: {raw[:200]!r}"
            ) from None
        if status >= 400:
            raise self._rebuild_error(data, status, retry_after)
        return data

    @staticmethod
    def _rebuild_error(data: dict, status: int, retry_after) -> MarketError:
        info = data.get("error") or {}
        name = info.get("type", "MarketError")
        message = info.get("message", f"gateway returned {status}")
        klass = _ERRORS_BY_NAME.get(name, MarketError)
        if klass is RateLimitError:
            try:
                wait = float(retry_after)
            except (TypeError, ValueError):
                wait = 1.0
            return RateLimitError(message, retry_after=wait)
        return klass(message)

    # -- observability -----------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    # -- dataset lifecycle -------------------------------------------------
    def _register_body(self, relation, reserve_price, license, policy):
        body = {
            "relation": relation_to_payload(relation),
            "reserve_price": reserve_price,
        }
        if license is not None:
            body["license"] = {
                "kind": license.kind.value,
                "exclusivity_tax_rate": license.exclusivity_tax_rate,
                "max_licensees": license.max_licensees,
            }
        if policy is not None:
            body["policy"] = sorted(policy.allowed_contexts)
        return body

    @staticmethod
    def _register_result(data: dict) -> RegisterResult:
        return RegisterResult(
            dataset=data["dataset"],
            seller=data["seller"],
            version=data["version"],
            rows=data["rows"],
            reserve_price=data["reserve_price"],
            created=data["created"],
            as_of=data["as_of"],
        )

    def register_dataset(
        self,
        relation: Relation,
        *,
        reserve_price: float = 0.0,
        license=None,
        policy=None,
    ) -> RegisterResult:
        """Share a new dataset as the authenticated seller."""
        data = self._request(
            "POST", "/datasets",
            self._register_body(relation, reserve_price, license, policy),
        )
        return self._register_result(data)

    def update_dataset(
        self,
        relation: Relation,
        *,
        reserve_price: float = 0.0,
        license=None,
        policy=None,
    ) -> RegisterResult:
        """Refresh a live dataset the authenticated seller owns."""
        data = self._request(
            "PUT", f"/datasets/{quote(relation.name, safe='')}",
            self._register_body(relation, reserve_price, license, policy),
        )
        return self._register_result(data)

    def retire_dataset(self, dataset: str) -> RetireResult:
        data = self._request(
            "DELETE", f"/datasets/{quote(dataset, safe='')}"
        )
        return RetireResult(
            dataset=data["dataset"],
            seller=data["seller"],
            as_of=data["as_of"],
        )

    def list_datasets(
        self,
        limit: int = 50,
        cursor: str | None = None,
        sort: str = "registered",
    ) -> tuple[list[dict], str | None]:
        data = self._request(
            "GET", "/datasets",
            query={"limit": limit, "cursor": cursor, "sort": sort},
        )
        return data["datasets"], data["next_cursor"]

    # -- reads -------------------------------------------------------------
    @staticmethod
    def _search_result(data: dict) -> SearchResult:
        return SearchResult(
            attributes=tuple(data["attributes"]),
            hits=tuple(
                DatasetHit(
                    dataset=h["dataset"],
                    score=h["score"],
                    matches=tuple(
                        AttributeMatch(*m) for m in h["matches"]
                    ),
                )
                for h in data["hits"]
            ),
            as_of=data["as_of"],
        )

    def search(
        self, attributes, *, min_score: float = 0.55
    ) -> SearchResult:
        data = self._request("POST", "/search", {
            "attributes": list(attributes),
            "min_score": min_score,
        })
        return self._search_result(data)

    def search_text(self, query: str, limit: int = 10) -> list[dict]:
        data = self._request(
            "GET", "/search", query={"q": query, "limit": limit}
        )
        return data["hits"]

    @staticmethod
    def _plan_result(data: dict) -> GatewayPlanResult:
        return GatewayPlanResult(
            attributes=tuple(data["attributes"]),
            key=data["key"],
            mashups=tuple(
                MashupView(
                    datasets=tuple(m["datasets"]),
                    matched=tuple(
                        (attr, (src[0], src[1], src[2]))
                        for attr, src in sorted(m["matched"].items())
                    ),
                    missing=tuple(m["missing"]),
                    relation=(
                        relation_from_wire(m["relation"])
                        if m["relation"] is not None else None
                    ),
                )
                for m in data["mashups"]
            ),
            cached=data["cached"],
            as_of=data["as_of"],
        )

    def plan(
        self,
        attributes,
        *,
        key: str | None = None,
        max_results: int = 5,
        min_match_score: float = 0.55,
        collect: bool = True,
    ) -> GatewayPlanResult:
        data = self._request("POST", "/plan", {
            "attributes": list(attributes),
            "key": key,
            "max_results": max_results,
            "min_match_score": min_match_score,
            "collect": collect,
        })
        return self._plan_result(data)

    def pinned_query(
        self,
        *,
        search: dict | None = None,
        plan: dict | None = None,
    ) -> PinnedResult:
        """Answer a search and/or plan spec against ONE pinned snapshot:
        both results are guaranteed to carry the same ``as_of`` even while
        writers churn."""
        body: dict = {}
        if search is not None:
            body["search"] = search
        if plan is not None:
            body["plan"] = plan
        data = self._request("POST", "/pinned", body)
        return PinnedResult(
            as_of=data["as_of"],
            search=(
                self._search_result(data["search"])
                if "search" in data else None
            ),
            plan=(
                self._plan_result(data["plan"]) if "plan" in data else None
            ),
        )

    # -- trading -----------------------------------------------------------
    def register_participant(self, name: str, funding: float = 0.0) -> dict:
        return self._request("POST", "/participants", {
            "name": name, "funding": funding,
        })

    def submit_wtp(self, wtp: WTPFunction) -> WTPReceipt:
        """Queue a WTP for the next round.  The task must be one of the
        declarative pure-data kinds (``QueryCompletenessTask`` /
        ``ExplorationTask``); the gateway books it under the
        *authenticated* principal regardless of ``wtp.buyer``."""
        data = self._request("POST", "/wtp", wtp_to_spec(wtp))
        return WTPReceipt(
            buyer=data["buyer"],
            attributes=tuple(data["attributes"]),
            elicitation=data["elicitation"],
            queued=data["queued"],
            as_of=data["as_of"],
        )

    def run_round(self, context: str = "*") -> RoundSummary:
        data = self._request("POST", "/rounds", {"context": context})
        return RoundSummary(
            round_index=data["round_index"],
            deliveries=tuple(
                DeliveryView(
                    transaction_id=d["transaction_id"],
                    buyer=d["buyer"],
                    datasets=tuple(d["datasets"]),
                    satisfaction=d["satisfaction"],
                    bid=d["bid"],
                    price_paid=d["price_paid"],
                    arbiter_fee=d["arbiter_fee"],
                    seller_shares=tuple(
                        sorted(d["seller_shares"].items())
                    ),
                )
                for d in data["deliveries"]
            ),
            rejections=tuple(
                (r["buyer"], r["reason"]) for r in data["rejections"]
            ),
            expost_deliveries=tuple(
                (e["transaction_id"], e["buyer"], tuple(e["datasets"]))
                for e in data["expost_deliveries"]
            ),
            as_of=data["as_of"],
        )
