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
  against one graph version even while writers churn;
* **the operation table** — every entry of ``OPERATIONS`` round-trips: a
  client call returns what the in-process service returns (or its view);
* **connections** — a client keeps one connection across calls and shares
  its connections between threads, ``stop()`` returns promptly and hangs
  up on live connections, a restarted gateway is reached without a request
  being sent twice, a burst of new connections fits the accept queue, and any
  verb (``HEAD`` included) gets a JSON answer that keeps the connection
  usable.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.client import HTTPConnection

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
from repro.market.licensing import (
    ContextualIntegrityPolicy,
    License,
    LicenseKind,
)
from repro.platform import (
    MarketClient,
    MarketGateway,
    MarketService,
    STATUS_BY_ERROR,
    WriteTicket,
    status_for,
)
from repro.platform.http import MAX_BODY_BYTES, OPERATIONS, _GatewayServer
from repro.platform.results import plan_view, round_view
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


# ---------------------------------------------------------------------------
# the operation table: every entry round-trips
# ---------------------------------------------------------------------------

#: one call per table operation, made after the shared prelude:
#: (token, client arguments, the service arguments the token fills)
CALLS = {
    "register_dataset": ("tok-acme",
                         {"relation": rel("extra"), "reserve_price": 2.0,
                          "license": License(LicenseKind.EXCLUSIVE, 0.25),
                          "policy": ContextualIntegrityPolicy.of("ads")},
                         {"seller": "acme"}),
    "update_dataset": ("tok-acme",
                       {"relation": rel("dim", offset=7),
                        "reserve_price": 3.0},
                       {"seller": "acme"}),
    "retire_dataset": ("tok-acme", {"dataset": "dim"}, {}),
    "list_datasets": (None, {"limit": 2, "sort": "name"}, {}),
    "search_text": (None, {"query": "base", "limit": 5}, {}),
    "search": (None, {"attributes": ["base_val", "dim_val"]}, {}),
    "plan": (None, {"attributes": ["entity_id", "base_val", "dim_val"],
                    "key": "entity_id"}, {}),
    "submit_wtp": ("tok-b1", {"wtp": wtp_for("b1", price=9.0)}, {}),
    "run_round": ("tok-b1", {"context": "*"}, {}),
    "register_participant": ("tok-b1", {"name": "b3", "funding": 5.0}, {}),
}

#: operations whose client result is the served view of the service's
VIEWS = {
    "plan": lambda result: plan_view(result, collect=True),
    "run_round": round_view,
}


def prelude(call) -> None:
    """The same op sequence on either side: ``call(token, name, args,
    service_args)`` runs one operation."""
    call("tok-acme", "register_dataset",
         {"relation": rel("base"), "reserve_price": 1.0}, {"seller": "acme"})
    call("tok-acme", "register_dataset",
         {"relation": rel("dim", offset=100)}, {"seller": "acme"})
    for buyer, price in (("b1", 10.0), ("b2", 8.0)):
        call(f"tok-{buyer}", "register_participant",
             {"name": buyer, "funding": 100.0}, {})
        call(f"tok-{buyer}", "submit_wtp",
             {"wtp": wtp_for(buyer, price=price)}, {})


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_every_operation_round_trips(store_gateway, tmp_path, name):
    local = MarketService(DataMarket(store=str(tmp_path / "local.db")))

    def remote(token, op, args, service_args):
        return getattr(client(store_gateway, token), op)(**args)

    def in_process(token, op, args, service_args):
        result = getattr(local, op)(**args, **service_args)
        return result.result(10) if isinstance(result, WriteTicket) else result

    try:
        prelude(remote)
        prelude(in_process)
        token, args, service_args = CALLS[name]
        got = remote(token, name, args, service_args)
        expected = in_process(token, name, args, service_args)
    finally:
        local.close()
    assert got == VIEWS.get(name, lambda result: result)(expected)


# ---------------------------------------------------------------------------
# bounded per-request keys, names with "/", the text-search limit
# ---------------------------------------------------------------------------

def test_made_up_tokens_share_their_address_bucket():
    service = MarketService(DataMarket())
    gw = MarketGateway(
        service, tokens=dict(TOKENS), rate_limit=0.01, burst=2
    ).start()
    try:
        client(gw, "made-up-1").healthz()
        client(gw, "made-up-2").healthz()
        with pytest.raises(RateLimitError):
            client(gw, "made-up-3").healthz()
        # a known token still has its own bucket
        assert client(gw, "tok-acme").healthz()["status"] == "ok"
    finally:
        gw.stop()
        service.close()


def test_unmatched_requests_count_under_one_route_key(gateway):
    acme = client(gateway, "tok-acme")
    acme.register_dataset(rel("base"))
    acme.search(["base_val"])
    acme.stats()
    before = set(acme.stats()["requests"]["by_route"])
    assert before == {"register_dataset", "search", "stats"}
    for i in range(200):
        status, _, _ = gateway.handle(
            "GET", f"/no-such-path-{i}", {}, b"", "127.0.0.1"
        )
        assert status == 404
    by_route = acme.stats()["requests"]["by_route"]
    assert len(set(by_route) - before) == 1
    assert sorted(by_route.values())[-1] == 200


def test_dataset_names_may_contain_a_slash(gateway):
    acme = client(gateway, "tok-acme")
    assert acme.register_dataset(rel("a/b")).dataset == "a/b"
    updated = acme.update_dataset(rel("a/b", offset=3), reserve_price=2.0)
    assert (updated.dataset, updated.created) == ("a/b", False)
    assert acme.retire_dataset("a/b").dataset == "a/b"
    with pytest.raises(DatasetNotFoundError):
        acme.retire_dataset("a/b")


@pytest.mark.parametrize("limit", [-1, 0])
def test_text_search_limit_is_422(store_gateway, limit):
    acme = client(store_gateway, "tok-acme")
    for name in ("acme1", "acme2", "acme3"):
        acme.register_dataset(rel(name))
    with pytest.raises(InvalidRequestError, match="positive integer"):
        acme.search_text("acme", limit=limit)
    status, payload, _ = store_gateway.handle(
        "GET", f"/search?q=acme&limit={limit}", {}, b"", "127.0.0.1"
    )
    assert status == 422
    assert payload["error"]["type"] == "InvalidRequestError"


# ---------------------------------------------------------------------------
# kept-alive connections
# ---------------------------------------------------------------------------

def connection_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if t.name == "market-gateway-connection"}


def test_one_client_keeps_one_connection(gateway, monkeypatch):
    accepted = []
    accept = _GatewayServer.process_request

    def counted(server, request, client_address):
        accepted.append(client_address)
        return accept(server, request, client_address)

    monkeypatch.setattr(_GatewayServer, "process_request", counted)
    with client(gateway, "tok-acme") as acme:
        acme.register_dataset(rel("base"))
        for _ in range(19):
            acme.search(["base_val"])
    assert len(accepted) == 1


def test_threads_sharing_a_client_get_in_process_answers(gateway):
    service = gateway.service
    shared = client(gateway, "tok-acme")
    for name, offset in (("base", 0), ("dim", 50), ("ext", 90)):
        shared.register_dataset(rel(name, offset=offset))
    queries = [["base_val"], ["base_val", "dim_val"], ["entity_id", "ext_val"]]
    expected = [service.search(q) for q in queries]
    got, errors = [], []

    def reader(k: int) -> None:
        try:
            for i in range(15):
                q = (k + i) % len(queries)
                got.append((q, shared.search(queries[q])))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch inside the stack's use
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 8 * 15
    assert all(result == expected[q] for q, result in got)
    # no connection was handed to two threads at once
    idle = shared._idle
    assert len(idle) == len(set(map(id, idle))) <= 8
    shared.close()
    assert idle == []


def test_stop_hangs_up_on_live_connections():
    others = connection_threads()
    service = MarketService(DataMarket())
    gw = MarketGateway(service).start()
    held = client(gw)
    raw = HTTPConnection(*gw.address, timeout=5)
    try:
        assert held.healthz()["status"] == "ok"
        raw.request("GET", "/healthz")
        assert raw.getresponse().read()
        serving = connection_threads() - others
        assert len(serving) == 2  # both connections are kept alive
        gw.stop()
        assert not any(t.is_alive() for t in serving)
        with pytest.raises(OSError):
            held.healthz()
        # the same socket: sent, but nobody answers it
        with pytest.raises((OSError, ConnectionError)):
            raw.request("GET", "/healthz")
            raw.getresponse()
    finally:
        raw.close()
        held.close()
        gw.stop()
        service.close()


def test_stop_returns_promptly():
    """``stop()`` waits for the serve loop's next shutdown check, which
    comes a short poll interval apart, not stdlib's half second."""
    service = MarketService(DataMarket())
    gw = MarketGateway(service).start()
    try:
        with client(gw) as c:
            assert c.healthz()["status"] == "ok"
        start = time.perf_counter()
        gw.stop()
        elapsed = time.perf_counter() - start
    finally:
        gw.stop()
        service.close()
    assert elapsed < 0.2


def test_restarted_gateway_is_reached_and_a_write_applies_once():
    service = MarketService(DataMarket())
    gw = MarketGateway(service, tokens=dict(TOKENS)).start()
    acme = client(gw, "tok-acme")
    try:
        acme.register_dataset(rel("base"))
        port = gw.address[1]
        gw.stop()
        gw = MarketGateway(service, tokens=dict(TOKENS), port=port).start()
        before = service.stats()
        assert acme.register_dataset(rel("dim")).dataset == "dim"
        after = service.stats()
        assert after["writes_applied"] - before["writes_applied"] == 1
        assert after["writes_failed"] == before["writes_failed"]
        # answered by the new gateway, not by a thread of the old one
        assert acme.stats()["requests"]["by_route"] == {
            "register_dataset": 1,
        }
    finally:
        acme.close()
        gw.stop()
        service.close()


def test_sequential_searches_do_not_wait_for_delayed_acks(gateway):
    with client(gateway, "tok-acme") as acme:
        acme.register_dataset(rel("base"))
        acme.search(["base_val"])
        start = time.perf_counter()
        for _ in range(50):
            acme.search(["base_val"])
        elapsed = time.perf_counter() - start
    # a body held back by Nagle's algorithm waits ~40 ms per answer
    assert elapsed < 1.0


def test_a_burst_of_new_connections_fits_the_accept_queue(gateway):
    n = 32
    barrier = threading.Barrier(n)
    waits, errors = [], []

    def one_call() -> None:
        with client(gateway) as fresh:
            barrier.wait(10)
            start = time.perf_counter()
            try:
                fresh.healthz()
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
            waits.append(time.perf_counter() - start)

    threads = [threading.Thread(target=one_call) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # an overflowed accept queue costs a SYN retry: a second or more
    assert len(waits) == n and max(waits) < 0.9


def test_other_verbs_get_the_gateways_json_errors(gateway):
    conn = HTTPConnection(*gateway.address, timeout=5)
    try:
        answers = []
        for verb, path in (("PATCH", "/datasets/x"), ("OPTIONS", "/nope")):
            conn.request(verb, path, body=b"{}")
            response = conn.getresponse()
            answers.append((response.status,
                            json.loads(response.read())["error"]["type"]))
    finally:
        conn.close()
    assert answers == [(422, "InvalidRequestError"),
                       (404, "DatasetNotFoundError")]
    # /stats counts itself after it answers
    assert client(gateway).stats()["requests"]["by_route"] == {
        "unmatched": 2,
    }


def test_head_answers_headers_only_on_a_kept_alive_connection(gateway):
    conn = HTTPConnection(*gateway.address, timeout=5)
    try:
        conn.request("HEAD", "/healthz")
        head = conn.getresponse()
        assert (head.status, head.read()) == (422, b"")
        assert head.getheader("Content-Type") == "application/json"
        sock = conn.sock
        conn.request("GET", "/healthz")
        answer = conn.getresponse()
        assert answer.status == 200
        assert json.loads(answer.read())["status"] == "ok"
        assert conn.sock is sock  # one connection carried both
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# bodies and cells the parser and the relation codec refuse
# ---------------------------------------------------------------------------

def post(gw, path: str, text: str) -> tuple[int, dict]:
    status, answer, _ = gw.handle(
        "POST", path, {"Authorization": "Bearer tok-acme"},
        text.encode("utf-8"), client="127.0.0.1",
    )
    return status, answer


def one_cell_body(dtype: str, cell_json: str) -> str:
    return ('{"relation": {"name": "s", "columns": [["c", "%s", null]], '
            '"rows": [[%s]]}}' % (dtype, cell_json))


@pytest.mark.parametrize("path, body", [
    ("/datasets", one_cell_body("str", r'"a\ud800"')),
    ("/participants", r'{"name": "b\uDC00"}'),
    # an unknown tag object in a cell
    ("/datasets", one_cell_body("any", '{"frozenset": [1, 2]}')),
    ("/datasets", one_cell_body("any", '[{"tuple": [1], "x": 2}]')),
    # nested deeper than the parser recurses
    ("/participants", '{"name": ' + "[" * 100_000 + "]" * 100_000 + "}"),
])
def test_refused_bodies_are_422_and_change_nothing(gateway, path, body):
    market = gateway.service.market
    version = market.graph_version
    status, answer = post(gateway, path, body)
    assert (status, answer["error"]["type"]) == (422, "InvalidRequestError")
    assert market.graph_version == version
    assert market.datasets == []
    assert list(market.arbiter.ledger.accounts) == ["arbiter"]


def test_an_escaped_surrogate_pair_is_one_character(gateway):
    status, _ = post(gateway, "/datasets",
                     one_cell_body("str", r'"\ud83d\ude00"'))
    assert status == 201
    assert gateway.service.market.metadata.relation("s").rows == (
        ("\N{GRINNING FACE}",),
    )


@pytest.mark.parametrize("dtype", ["int", "float"])
def test_an_int_beyond_the_float_range_registers(store_gateway, dtype):
    big = 2 ** 1100
    status, _ = post(store_gateway, "/datasets",
                     one_cell_body(dtype, "%d], [-%d], [1" % (big, big)))
    assert status == 201
    market = store_gateway.service.market
    assert market.metadata.relation("s").rows == ((big,), (-big,), (1,))
    numeric = market.metadata.snapshot("s").profile.columns[0].numeric
    assert (numeric.minimum, numeric.maximum) == (float("-inf"),
                                                  float("inf"))


def test_the_module_entry_point_runs_one_copy_of_the_gateway():
    """``python -m repro.platform.http`` (how marketbench starts its
    gateway) imports no second copy of the module: runpy warns when the
    package has imported it already."""
    import os
    import subprocess
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.platform.http", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "Serve a data market" in done.stdout
