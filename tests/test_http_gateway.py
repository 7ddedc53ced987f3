"""HTTP gateway: typed client ↔ server contract tests.

The properties under test:

* **taxonomy totality** — every ``MarketError`` subclass resolves to
  exactly one HTTP status (no subclass silently falls through to 500);
* **wire fidelity** — a :class:`MarketClient` driving a spawned gateway
  completes the full lifecycle (register → search → plan+collect →
  submit_wtp → run_round → retire) with results equal to an in-process
  façade fed the same operations, every response stamped ``as_of``;
* **edge enforcement** — missing/bad credentials are 401, foreign-seller
  mutations are 403, over-budget clients are 429 with ``Retry-After``,
  malformed bodies are 422, and a malformed or oversized
  ``Content-Length`` is refused with a typed JSON error before the body
  is read;
* **snapshot reads** — a pinned search+plan over HTTP answers both
  against one graph version even while writers churn.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

import repro.platform  # noqa: F401  (registers ServiceError/StoreError)
from repro import DataMarket
from repro.errors import (
    AuthenticationError,
    DatasetNotFoundError,
    DatasetOwnershipError,
    DuplicateDatasetError,
    InvalidRequestError,
    MarketError,
    RateLimitError,
)
from repro.platform import (
    MarketClient,
    MarketGateway,
    MarketService,
    STATUS_BY_ERROR,
    status_for,
)
from repro.platform.http import MAX_BODY_BYTES
from repro.relation import Column, Relation
from repro.wtp import PriceCurve, QueryCompletenessTask, WTPFunction

TOKENS = {"tok-acme": "acme", "tok-globex": "globex", "tok-b1": "b1",
          "tok-b2": "b2"}


def rel(name: str, offset: int = 0, n: int = 30) -> Relation:
    return Relation(
        name,
        [Column("entity_id", "int"), Column(f"{name}_val", "float")],
        [(k, float(k + offset)) for k in range(n)],
    )


def wtp_for(buyer: str, attrs=("entity_id", "base_val"), price=10.0):
    return WTPFunction(
        buyer=buyer,
        task=QueryCompletenessTask(
            wanted_keys=tuple(range(30)), attributes=attrs, key="entity_id"
        ),
        curve=PriceCurve.single(0.5, price),
    )


@pytest.fixture
def gateway():
    service = MarketService(DataMarket())
    gw = MarketGateway(service, tokens=dict(TOKENS)).start()
    yield gw
    gw.stop()
    service.close()


@pytest.fixture
def store_gateway(tmp_path):
    service = MarketService(DataMarket(store=str(tmp_path / "market.db")))
    gw = MarketGateway(service, tokens=dict(TOKENS)).start()
    yield gw
    gw.stop()
    service.close()


def client(gw, token=None) -> MarketClient:
    return MarketClient(gw.url, token=token)


# ---------------------------------------------------------------------------
# error taxonomy -> status mapping (property-style)
# ---------------------------------------------------------------------------

def all_market_errors() -> list[type]:
    seen, frontier = [], [MarketError]
    while frontier:
        cls = frontier.pop()
        seen.append(cls)
        frontier.extend(cls.__subclasses__())
    return seen


def test_every_market_error_maps_to_exactly_one_status():
    allowed = {401, 403, 404, 409, 422, 429, 503}
    for cls in all_market_errors():
        status = status_for(cls)
        assert status in allowed, (
            f"{cls.__name__} resolves to {status}; every MarketError "
            f"subclass must map into {sorted(allowed)} (never 500)"
        )
        # exactly one mapping governs: the most-derived mapped ancestor
        mapped = [k for k in cls.__mro__ if k in STATUS_BY_ERROR]
        assert mapped, f"{cls.__name__} has no mapped ancestor"
        assert status == STATUS_BY_ERROR[mapped[0]]


def test_key_statuses_are_semantically_right():
    from repro.errors import (
        AuditError,
        LedgerError,
        LicenseDowngradeError,
        LicensingError,
        MarketDesignError,
        UnknownParticipantError,
    )
    from repro.platform import ServiceError, StoreError

    assert status_for(AuthenticationError) == 401
    assert status_for(DatasetOwnershipError) == 403
    assert status_for(LicensingError) == 403
    assert status_for(DatasetNotFoundError) == 404
    assert status_for(UnknownParticipantError) == 404
    assert status_for(DuplicateDatasetError) == 409
    assert status_for(LedgerError) == 409
    # a downgrade is a conflict with granted rights, not a permission issue
    assert status_for(LicenseDowngradeError) == 409
    assert status_for(InvalidRequestError) == 422
    assert status_for(MarketDesignError) == 422
    assert status_for(RateLimitError) == 429
    assert status_for(ServiceError) == 503
    assert status_for(StoreError) == 503
    # the root is the safety net for future taxonomy growth
    assert status_for(MarketError) == 422


# ---------------------------------------------------------------------------
# full lifecycle over a real socket vs the in-process façade
# ---------------------------------------------------------------------------

def test_full_lifecycle_matches_in_process_facade(gateway):
    acme = client(gateway, "tok-acme")
    b1 = client(gateway, "tok-b1")
    b2 = client(gateway, "tok-b2")
    anon = client(gateway)
    facade = DataMarket()  # same ops, same order, in-process

    # register + update
    http_reg = acme.register_dataset(rel("base"), reserve_price=1.0)
    local_reg = facade.register_dataset(rel("base"), "acme",
                                        reserve_price=1.0)
    assert http_reg == local_reg
    assert acme.register_dataset(rel("dim", offset=100)) == \
        facade.register_dataset(rel("dim", offset=100), "acme")
    assert acme.update_dataset(rel("dim", offset=7), reserve_price=2.0) == \
        facade.update_dataset(rel("dim", offset=7), "acme",
                              reserve_price=2.0)

    # search: identical frozen dataclasses, as_of included
    http_search = anon.search(["base_val", "dim_val"])
    local_search = facade.search(["base_val", "dim_val"])
    assert http_search == local_search
    assert http_search.as_of == facade.graph_version

    # plan + collect: rows travel the socket bit-for-bit
    http_plan = anon.plan(["entity_id", "base_val", "dim_val"],
                          key="entity_id")
    local_plan = facade.plan(["entity_id", "base_val", "dim_val"],
                             key="entity_id")
    local_relations = local_plan.collect()
    assert http_plan.as_of == local_plan.as_of
    assert http_plan.cached == local_plan.cached
    assert len(http_plan.mashups) == len(local_plan.mashups)
    for view, mashup, relation in zip(
        http_plan.mashups, local_plan.mashups, local_relations
    ):
        assert view.datasets == tuple(mashup.plan.sources())
        assert view.matched == tuple(sorted(mashup.matched.items()))
        assert view.missing == mashup.missing
        assert view.relation.schema == relation.schema
        assert view.relation.rows == relation.rows

    # trading: competing buyers, cleared round
    b1.register_participant("b1", funding=100.0)
    b2.register_participant("b2", funding=100.0)
    facade.register_participant("b1", funding=100.0)
    facade.register_participant("b2", funding=100.0)
    assert b1.submit_wtp(wtp_for("b1", price=10.0)) == \
        facade.submit_wtp(wtp_for("b1", price=10.0))
    assert b2.submit_wtp(wtp_for("b2", price=8.0)) == \
        facade.submit_wtp(wtp_for("b2", price=8.0))

    http_round = b1.run_round()
    local_round = facade.run_round()
    assert http_round.round_index == local_round.round_index
    assert http_round.as_of == local_round.as_of
    assert http_round.transactions == len(local_round.deliveries) > 0
    assert http_round.revenue == local_round.revenue
    for view, delivery in zip(http_round.deliveries,
                              local_round.deliveries):
        assert view.buyer == delivery.buyer
        assert view.price_paid == delivery.price_paid
        assert view.satisfaction == delivery.satisfaction
        assert view.datasets == tuple(delivery.mashup.plan.sources())
        assert view.seller_shares == \
            tuple(sorted(delivery.split.dataset_shares.items()))
    assert [r for r in http_round.rejections] == \
        [(r.buyer, r.reason) for r in local_round.rejections]

    # retire
    assert acme.retire_dataset("dim") == facade.retire_dataset("dim")
    # every response observed the same version history
    assert anon.healthz()["graph_version"] == facade.graph_version


def test_every_success_response_carries_as_of(gateway):
    acme = client(gateway, "tok-acme")
    reg = acme.register_dataset(rel("base"))
    assert reg.as_of >= 1
    assert acme.search(["base_val"]).as_of >= reg.as_of
    assert acme.plan(["base_val"]).as_of >= reg.as_of
    page_as_of = acme._request("GET", "/healthz")["graph_version"]
    assert page_as_of >= reg.as_of


# ---------------------------------------------------------------------------
# auth, ownership, rate limiting
# ---------------------------------------------------------------------------

def test_mutation_without_token_is_401(gateway):
    anon = client(gateway)
    with pytest.raises(AuthenticationError):
        anon.register_dataset(rel("base"))
    with pytest.raises(AuthenticationError):
        anon.run_round()


def test_unknown_token_is_401(gateway):
    intruder = client(gateway, "tok-forged")
    with pytest.raises(AuthenticationError):
        intruder.register_dataset(rel("base"))


def test_foreign_seller_update_and_retire_are_403(gateway):
    acme = client(gateway, "tok-acme")
    globex = client(gateway, "tok-globex")
    acme.register_dataset(rel("base"))
    with pytest.raises(DatasetOwnershipError):
        globex.update_dataset(rel("base"))
    with pytest.raises(DatasetOwnershipError):
        globex.retire_dataset("base")
    # the failed attempts moved nothing
    assert acme.search(["base_val"]).datasets == ("base",)


def test_rate_limit_returns_429_with_retry_after():
    service = MarketService(DataMarket())
    gw = MarketGateway(
        service, tokens=dict(TOKENS), rate_limit=2.0, burst=2
    ).start()
    try:
        c = client(gw, "tok-acme")
        c.healthz()
        c.healthz()
        with pytest.raises(RateLimitError) as exc_info:
            c.healthz()
        assert exc_info.value.retry_after > 0
        # an unauthenticated client has its own (address-keyed) bucket
        assert client(gw).healthz()["status"] == "ok"
    finally:
        gw.stop()
        service.close()


# ---------------------------------------------------------------------------
# validation + error bodies
# ---------------------------------------------------------------------------

def test_validation_failures_are_422(gateway):
    acme = client(gateway, "tok-acme")
    with pytest.raises(InvalidRequestError):
        acme.plan([])  # empty attribute list
    with pytest.raises(InvalidRequestError):
        acme._request("POST", "/plan", {"attributes": ["a"], "oops": 1})
    with pytest.raises(InvalidRequestError):
        acme._request("POST", "/datasets", {"relation": {"name": "x"}})
    with pytest.raises(InvalidRequestError):
        # schema violation inside the relation payload: int column, str row
        acme._request("POST", "/datasets", {"relation": {
            "name": "x",
            "columns": [["k", "int", None]],
            "rows": [["not-an-int"]],
        }})


def refused_request(gw, content_length: str) -> tuple[int, dict, dict]:
    """POST with a hand-written ``Content-Length`` and no body over a raw
    socket, reading until the server hangs up; returns (status, headers,
    json body).  A server that waits for the body times the read out."""
    host, port = gw.address
    with socket.create_connection((host, port), timeout=3) as sock:
        sock.sendall(
            b"POST /search HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {
        key.strip().lower(): value.strip()
        for key, _, value in (line.partition(":") for line in lines[1:])
    }
    return int(lines[0].split()[1]), headers, json.loads(payload)


@pytest.mark.parametrize("content_length, says", [
    ("-1", "'-1'"),
    ("abc", "'abc'"),
    (str(MAX_BODY_BYTES + 1), f"{MAX_BODY_BYTES}-byte limit"),
    ("9" * 5000, f"{MAX_BODY_BYTES}-byte limit"),
], ids=["negative", "non-integer", "over-cap", "over-int-digits"])
def test_bad_content_length_is_refused_unread(gateway, content_length, says):
    got, headers, payload = refused_request(gateway, content_length)
    assert got == 422
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert payload["error"]["type"] == "InvalidRequestError"
    assert says in payload["error"]["message"]
    assert len(payload["error"]["message"]) < 100
    assert "as_of" in payload
    # the gateway keeps serving, and counted the refusal
    stats = client(gateway).stats()
    assert stats["requests"]["errors"] == {"422": 1}


def test_unknown_routes_and_names_are_404(gateway):
    acme = client(gateway, "tok-acme")
    with pytest.raises(DatasetNotFoundError):
        acme._request("GET", "/nope")
    with pytest.raises(DatasetNotFoundError):
        acme.retire_dataset("ghost")


def test_duplicate_register_is_409(gateway):
    acme = client(gateway, "tok-acme")
    acme.register_dataset(rel("base"))
    with pytest.raises(DuplicateDatasetError):
        acme.register_dataset(rel("base"))


def test_unknown_wtp_task_kind_is_422(gateway):
    b1 = client(gateway, "tok-b1")
    b1.register_participant("b1", funding=10.0)
    with pytest.raises(InvalidRequestError, match="task kind"):
        b1._request("POST", "/wtp", {
            "task": {"kind": "python_pickle"},
            "curve": [[0.5, 1.0]],
        })


def test_wtp_books_under_authenticated_principal(gateway):
    # the gateway ignores any buyer the spec claims: the token decides
    b1 = client(gateway, "tok-b1")
    b1.register_participant("b1", funding=10.0)
    receipt = b1.submit_wtp(wtp_for("someone-else", attrs=("base_val",)))
    assert receipt.buyer == "b1"


# ---------------------------------------------------------------------------
# durable reads over HTTP (store-backed gateway)
# ---------------------------------------------------------------------------

def test_listing_and_fts_over_http(store_gateway):
    acme = client(store_gateway, "tok-acme")
    for name in ("alpha", "beta", "gamma"):
        acme.register_dataset(rel(name))
    page, cursor = acme.list_datasets(limit=2, sort="name")
    assert [r["dataset"] for r in page] == ["alpha", "beta"]
    page2, cursor2 = acme.list_datasets(limit=2, cursor=cursor, sort="name")
    assert [r["dataset"] for r in page2] == ["gamma"]
    assert cursor2 is None
    with pytest.raises(InvalidRequestError, match="unknown sort key"):
        acme.list_datasets(sort="bogus")
    with pytest.raises(InvalidRequestError, match="malformed cursor"):
        acme.list_datasets(cursor="zzz")
    hits = acme.search_text("beta")
    assert [h["dataset"] for h in hits] == ["beta"]


def test_listing_without_store_is_503(gateway):
    from repro.platform import ServiceError

    acme = client(gateway, "tok-acme")
    with pytest.raises(ServiceError):
        acme.list_datasets()


# ---------------------------------------------------------------------------
# pinned snapshot reads over HTTP
# ---------------------------------------------------------------------------

def test_pinned_search_and_plan_share_one_version_under_churn(gateway):
    acme = client(gateway, "tok-acme")
    anon = client(gateway)
    acme.register_dataset(rel("base"))
    acme.register_dataset(rel("dim", offset=50))

    stop = threading.Event()
    churn_error = []

    def churn():
        i = 0
        try:
            while not stop.is_set():
                acme.update_dataset(rel("dim", offset=i))
                i += 1
        except MarketError as exc:  # pragma: no cover - diagnostic only
            churn_error.append(exc)

    writer = threading.Thread(target=churn, daemon=True)
    writer.start()
    try:
        versions = set()
        for _ in range(10):
            pinned = anon.pinned_query(
                search={"attributes": ["base_val", "dim_val"]},
                plan={"attributes": ["entity_id", "base_val"],
                      "key": "entity_id"},
            )
            # the snapshot contract: one version for the whole block
            assert pinned.search.as_of == pinned.as_of
            assert pinned.plan.as_of == pinned.as_of
            versions.add(pinned.as_of)
    finally:
        stop.set()
        writer.join(10)
    assert not churn_error
    # the churn was visible across requests (versions actually moved)
    assert len(versions) > 1


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

def test_healthz_and_stats_expose_service_counters(gateway):
    acme = client(gateway, "tok-acme")
    assert acme.healthz()["status"] == "ok"
    acme.register_dataset(rel("base"))
    acme.search(["base_val"])
    with pytest.raises(DuplicateDatasetError):
        acme.register_dataset(rel("base"))
    stats = acme.stats()
    service = stats["service"]
    assert service["writes_applied"] >= 1
    assert service["writes_failed"] >= 1
    assert service["reads"] >= 1
    assert service["graph_version"] >= 1
    assert isinstance(service["queue_depth"], int)
    assert isinstance(service["writer_busy"], bool)
    requests = stats["requests"]
    assert requests["total"] >= 4
    assert requests["errors"].get("409") == 1
    assert stats["latency_ms"]["p50"] is not None
    assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]


def test_service_stats_standalone():
    service = MarketService(DataMarket())
    try:
        service.register_dataset(rel("base"), "acme").result(10)
        service.search(["base_val"])
        stats = service.stats()
        assert stats["queue_depth"] == 0
        assert stats["writer_busy"] is False
        assert stats["writes_applied"] == 1
        assert stats["writes_failed"] == 0
        assert stats["reads"] == 1
        assert stats["graph_version"] == service.market.graph_version
    finally:
        service.close()
