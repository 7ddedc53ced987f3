"""The unified data-market platform façade (Fig. 1's single DMMS).

:class:`DataMarket` wires the whole stack behind one typed API; the result
dataclasses stamp every read with the graph version it was computed against.
Plan results carry unevaluated relation trees — ``materialize`` (or
``PlanResult.collect``) runs them on the pipelined columnar engine.
"""

import importlib

from .market import DataMarket
from .service import MarketService, PinnedView, ServiceError, WriteTicket
from .store import MarketStore, StoreError
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

#: loaded on first access (PEP 562), so ``python -m repro.platform.http``
#: runs the one copy of the module that the package never imported
_LAZY = {
    "MarketGateway": "http",
    "RateLimiter": "http",
    "STATUS_BY_ERROR": "http",
    "status_for": "http",
    "MarketClient": "client",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


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
