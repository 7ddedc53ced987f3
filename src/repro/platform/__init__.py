"""The unified data-market platform façade (Fig. 1's single DMMS).

:class:`DataMarket` wires the whole stack behind one typed API; the result
dataclasses stamp every read with the graph version it was computed against.
Plan results carry unevaluated relation trees — ``materialize`` (or
``PlanResult.collect``) runs them on the pipelined columnar engine.
"""

from .market import DataMarket
from .service import MarketService, PinnedView, ServiceError, WriteTicket
from .store import MarketStore, StoreError
from .http import MarketGateway, RateLimiter, STATUS_BY_ERROR, status_for
from .client import MarketClient
from .results import (
    DeliveryView,
    DisputeResult,
    GatewayPlanResult,
    InfoRequestView,
    InsuranceQuote,
    InsuranceSettlement,
    MashupView,
    NegotiationReport,
    ParticipantResult,
    PinnedResult,
    PlanResult,
    RegisterResult,
    RetireResult,
    RoundReport,
    RoundSummary,
    SearchResult,
    TrustDistribution,
    TrustReport,
    WTPReceipt,
)

__all__ = [
    "DataMarket",
    "MarketStore",
    "MarketService",
    "MarketGateway",
    "MarketClient",
    "RateLimiter",
    "STATUS_BY_ERROR",
    "status_for",
    "PinnedView",
    "StoreError",
    "ServiceError",
    "WriteTicket",
    "GatewayPlanResult",
    "MashupView",
    "DeliveryView",
    "RoundSummary",
    "PinnedResult",
    "RegisterResult",
    "RetireResult",
    "SearchResult",
    "PlanResult",
    "WTPReceipt",
    "ParticipantResult",
    "RoundReport",
    "NegotiationReport",
    "InfoRequestView",
    "DisputeResult",
    "InsuranceQuote",
    "InsuranceSettlement",
    "TrustReport",
    "TrustDistribution",
]
