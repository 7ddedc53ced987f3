"""HTTP/JSON gateway: the network surface of the always-on market.

PR 8 made the market durable and concurrent in-process; this module makes
it *reachable*.  :class:`MarketGateway` serves a
:class:`~repro.platform.MarketService` over plain HTTP — stdlib
``http.server.ThreadingHTTPServer`` plus a small explicit router, no web
framework — so every mutation still funnels through the service's single
writer and every read stays snapshot-consistent.  The transport layer adds
exactly the concerns a network edge owns and nothing else:

* **Auth.**  Bearer tokens map to principal names.  Mutating routes
  require one; the authenticated principal *is* the seller (or buyer) of
  record, so a token can never register datasets for, update datasets of,
  or retire datasets from another seller (401 for bad credentials, 403
  for ownership violations).
* **Rate limiting.**  A per-token token bucket (unauthenticated clients
  are keyed by address) returns 429 with a ``Retry-After`` header once the
  budget is spent.
* **Validation.**  Declarative per-route request schemas reject malformed
  bodies as typed :class:`~repro.errors.InvalidRequestError` (422) before
  any engine code runs.
* **Error taxonomy.**  One mapping (:data:`STATUS_BY_ERROR`) from the
  :class:`~repro.errors.MarketError` hierarchy to HTTP statuses; every
  error response is a structured JSON body carrying the error type, the
  message, and the graph version (``as_of``) current when it was raised.

All market semantics — duplicate detection, license continuity, plan
caching, snapshot pinning — live below the service boundary; handlers only
translate.  ``python -m repro.platform.http`` starts a standalone server
wired from CLI flags (store path, auth tokens, rate limits).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import threading
import time
from collections import Counter, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from ..errors import (
    AuditError,
    AuthenticationError,
    DatasetNotFoundError,
    DatasetOwnershipError,
    DuplicateDatasetError,
    DuplicateParticipantError,
    InvalidRequestError,
    LedgerError,
    LicenseDowngradeError,
    LicensingError,
    MarketDesignError,
    MarketError,
    NegotiationError,
    RateLimitError,
    ReproError,
    UnknownParticipantError,
)
from ..market.licensing import ContextualIntegrityPolicy, License, LicenseKind
from ..relation import Column, Relation, Schema
from ..wtp import (
    ExplorationTask,
    PriceCurve,
    QueryCompletenessTask,
    WTPFunction,
)
from .service import MarketService, ServiceError
from .store import MarketStore, StoreError

#: the single MarketError-taxonomy -> HTTP status mapping.  Resolution
#: walks an exception's MRO and takes the *first* (most-derived) entry, so
#: a subclass may sharpen its parent's status (LicenseDowngradeError is a
#: conflict, not a permission problem).  The root ``MarketError`` entry is
#: the taxonomy-wide safety net: no market error ever surfaces as a 500.
STATUS_BY_ERROR: dict[type, int] = {
    MarketError: 422,
    InvalidRequestError: 422,
    MarketDesignError: 422,
    NegotiationError: 422,
    AuthenticationError: 401,
    DatasetOwnershipError: 403,
    LicensingError: 403,
    LicenseDowngradeError: 409,
    DatasetNotFoundError: 404,
    UnknownParticipantError: 404,
    DuplicateDatasetError: 409,
    DuplicateParticipantError: 409,
    LedgerError: 409,
    AuditError: 503,
    ServiceError: 503,
    StoreError: 503,
    RateLimitError: 429,
}

#: default timeout for tickets the gateway blocks on (writes over HTTP
#: are synchronous: the response carries the façade's result)
WRITE_TIMEOUT = 60.0

#: largest request body the gateway reads; a longer ``Content-Length`` is
#: refused (422) before any of the body is read
MAX_BODY_BYTES = 64 * 2**20


def status_for(exc_type: type) -> int:
    """HTTP status for a ``MarketError`` subclass (500 off-taxonomy)."""
    for klass in exc_type.__mro__:
        if klass in STATUS_BY_ERROR:
            return STATUS_BY_ERROR[klass]
    return 500


# ---------------------------------------------------------------------------
# declarative request validation
# ---------------------------------------------------------------------------

_MISSING = object()


class Field:
    """One validated request field: type, bounds, default."""

    def __init__(
        self,
        types,
        default=_MISSING,
        *,
        minimum=None,
        item_types=None,
        non_empty: bool = False,
    ):
        self.types = types if isinstance(types, tuple) else (types,)
        self.default = default
        self.minimum = minimum
        self.item_types = item_types
        self.non_empty = non_empty

    @property
    def required(self) -> bool:
        return self.default is _MISSING

    def extract(self, name: str, body: dict):
        value = body.get(name, _MISSING)
        if value is _MISSING or (value is None and not self.required):
            # an explicit null on an optional field means "absent"
            if self.required:
                raise InvalidRequestError(f"missing required field {name!r}")
            return self.default
        if bool in self.types or not isinstance(value, bool):
            ok = isinstance(value, self.types)
        else:  # bool is an int subclass; reject it for numeric fields
            ok = False
        if not ok:
            expected = "/".join(t.__name__ for t in self.types)
            raise InvalidRequestError(
                f"field {name!r} must be {expected}, got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise InvalidRequestError(
                f"field {name!r} must be >= {self.minimum}, got {value!r}"
            )
        if self.non_empty and len(value) == 0:
            raise InvalidRequestError(f"field {name!r} must be non-empty")
        if self.item_types is not None:
            for item in value:
                if not isinstance(item, self.item_types):
                    raise InvalidRequestError(
                        f"field {name!r} items must be "
                        f"{'/'.join(t.__name__ for t in self.item_types)}, "
                        f"got {item!r}"
                    )
        return value


def validate_body(body: dict, spec: dict[str, Field]) -> dict:
    """Validate a JSON body against a route spec; unknown fields are a 422
    (catching typos like ``reserve`` for ``reserve_price`` early)."""
    if not isinstance(body, dict):
        raise InvalidRequestError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    unknown = sorted(set(body) - set(spec))
    if unknown:
        raise InvalidRequestError(
            f"unknown fields {unknown}; expected a subset of {sorted(spec)}"
        )
    return {name: field.extract(name, body) for name, field in spec.items()}


# ---------------------------------------------------------------------------
# rate limiting
# ---------------------------------------------------------------------------

class RateLimiter:
    """Per-key token bucket: ``rate`` requests/second, ``burst`` capacity.

    ``check`` either admits the request (consuming one token) or raises
    :class:`~repro.errors.RateLimitError` carrying the wait until a token
    accrues — the handler turns that into 429 + ``Retry-After``."""

    def __init__(self, rate: float, burst: int | None = None):
        if rate <= 0:
            raise InvalidRequestError("rate limit must be positive")
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else max(1, rate))
        self._state: dict[str, tuple[float, float]] = {}
        self._mutex = threading.Lock()

    def check(self, key: str, now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        with self._mutex:
            tokens, last = self._state.get(key, (self.burst, now))
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            if tokens < 1.0:
                self._state[key] = (tokens, now)
                wait = (1.0 - tokens) / self.rate
                raise RateLimitError(
                    f"rate limit exceeded for {key!r}; "
                    f"retry in {wait:.2f}s",
                    retry_after=wait,
                )
            self._state[key] = (tokens - 1.0, now)


# ---------------------------------------------------------------------------
# JSON codecs (shared with the typed client)
# ---------------------------------------------------------------------------

def relation_to_payload(relation: Relation) -> dict:
    """A relation as a JSON-safe payload (columns + row lists)."""
    return {
        "name": relation.name,
        "columns": [
            [c.name, c.dtype, c.semantic] for c in relation.schema.columns
        ],
        "rows": [list(row) for row in relation.rows],
    }


def relation_from_payload(obj: object) -> Relation:
    """Rebuild a relation from its payload; any shape or schema problem
    becomes a typed 422, never a bare ``SchemaError``."""
    if not isinstance(obj, dict):
        raise InvalidRequestError("relation payload must be a JSON object")
    spec = {
        "name": Field(str, non_empty=True),
        "columns": Field(list, non_empty=True, item_types=(list,)),
        "rows": Field(list, default=[]),
    }
    fields = validate_body(obj, spec)
    try:
        columns = [Column(*parts) for parts in fields["columns"]]
        return Relation(
            fields["name"], Schema(columns),
            [tuple(row) for row in fields["rows"]],
        )
    except ReproError as exc:
        raise InvalidRequestError(f"invalid relation payload: {exc}") from exc
    except TypeError as exc:
        raise InvalidRequestError(f"invalid relation payload: {exc}") from exc


def license_from_payload(obj: object) -> License | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise InvalidRequestError("license payload must be a JSON object")
    fields = validate_body(obj, {
        "kind": Field(str, default="open"),
        "exclusivity_tax_rate": Field((int, float), default=0.0),
        "max_licensees": Field(int, default=1),
    })
    try:
        kind = LicenseKind(fields["kind"])
    except ValueError:
        valid = ", ".join(k.value for k in LicenseKind)
        raise InvalidRequestError(
            f"unknown license kind {fields['kind']!r}; "
            f"expected one of {valid}"
        ) from None
    return License(
        kind=kind,
        exclusivity_tax_rate=float(fields["exclusivity_tax_rate"]),
        max_licensees=fields["max_licensees"],
    )


def policy_from_payload(obj: object) -> ContextualIntegrityPolicy | None:
    if obj is None:
        return None
    if not isinstance(obj, list) or not all(
        isinstance(c, str) for c in obj
    ):
        raise InvalidRequestError(
            "policy payload must be a list of context strings"
        )
    return ContextualIntegrityPolicy(frozenset(obj))


#: declarative task specs a WTP can be submitted with over the wire.
#: Code cannot cross the network; these are the shipped tasks that are
#: pure data.  kind -> (constructor, request spec)
WTP_TASKS: dict[str, tuple] = {
    "query_completeness": (
        lambda f: QueryCompletenessTask(
            wanted_keys=tuple(f["wanted_keys"]),
            attributes=tuple(f["attributes"]),
            key=f["key"],
        ),
        {
            "kind": Field(str),
            "wanted_keys": Field(list, non_empty=True),
            "attributes": Field(
                list, non_empty=True, item_types=(str,)
            ),
            "key": Field(str, default="entity_id"),
        },
    ),
    "exploration": (
        lambda f: ExplorationTask(attributes=tuple(f["attributes"])),
        {
            "kind": Field(str),
            "attributes": Field(list, non_empty=True, item_types=(str,)),
        },
    ),
}


def wtp_from_spec(body: dict, buyer: str) -> WTPFunction:
    """Build a WTP function from its declarative JSON spec."""
    fields = validate_body(body, {
        "task": Field(dict),
        "curve": Field(list, non_empty=True, item_types=(list,)),
        "elicitation": Field(str, default="upfront"),
        "key": Field(str, default=None),
    })
    task_body = fields["task"]
    kind = task_body.get("kind")
    if kind not in WTP_TASKS:
        raise InvalidRequestError(
            f"unknown task kind {kind!r}; "
            f"expected one of {sorted(WTP_TASKS)}"
        )
    build, spec = WTP_TASKS[kind]
    task = build(validate_body(task_body, spec))
    steps = []
    for step in fields["curve"]:
        if len(step) != 2 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in step
        ):
            raise InvalidRequestError(
                f"curve steps must be [threshold, price] number pairs, "
                f"got {step!r}"
            )
        steps.append((float(step[0]), float(step[1])))
    return WTPFunction(
        buyer=buyer,
        task=task,
        curve=PriceCurve(tuple(steps)),
        elicitation=fields["elicitation"],
        key=fields["key"],
    )


def wtp_to_spec(wtp: WTPFunction) -> dict:
    """The declarative spec for a WTP whose task is one of the shipped
    pure-data kinds (the client uses this so ``submit_wtp(wtp)`` mirrors
    the façade call).  Tasks carrying code cannot cross the network."""
    task = wtp.task
    if isinstance(task, QueryCompletenessTask):
        task_spec = {
            "kind": "query_completeness",
            "wanted_keys": list(task.wanted_keys),
            "attributes": list(task.attributes),
            "key": task.key,
        }
    elif isinstance(task, ExplorationTask):
        task_spec = {
            "kind": "exploration",
            "attributes": list(task.attributes),
        }
    else:
        raise InvalidRequestError(
            f"task {type(task).__name__} has no declarative HTTP form; "
            f"supported kinds: {sorted(WTP_TASKS)}"
        )
    spec = {
        "task": task_spec,
        "curve": [[t, p] for t, p in wtp.curve.steps],
        "elicitation": wtp.elicitation,
    }
    if wtp.key is not None:
        spec["key"] = wtp.key
    return spec


# ---------------------------------------------------------------------------
# result serializers
# ---------------------------------------------------------------------------

def _search_payload(result) -> dict:
    return {
        "attributes": list(result.attributes),
        "as_of": result.as_of,
        "hits": [
            {
                "dataset": h.dataset,
                "score": h.score,
                "matches": [
                    [m.requested, m.dataset, m.column, m.score]
                    for m in h.matches
                ],
            }
            for h in result.hits
        ],
    }


def _plan_payload(result, relations) -> dict:
    mashups = []
    for mashup, relation in zip(result.mashups, relations):
        entry = {
            "datasets": mashup.plan.sources(),
            "matched": {
                attr: list(src) for attr, src in sorted(mashup.matched.items())
            },
            "missing": list(mashup.missing),
            "relation": (
                None if relation is None else relation_to_payload(relation)
            ),
        }
        mashups.append(entry)
    return {
        "attributes": list(result.attributes),
        "key": result.key,
        "cached": result.cached,
        "as_of": result.as_of,
        "mashups": mashups,
    }


def _round_payload(report) -> dict:
    return {
        "round_index": report.round_index,
        "as_of": report.as_of,
        "deliveries": [
            {
                "transaction_id": d.transaction_id,
                "buyer": d.buyer,
                "datasets": d.mashup.plan.sources(),
                "satisfaction": d.satisfaction,
                "bid": d.bid,
                "price_paid": d.price_paid,
                "arbiter_fee": d.split.arbiter_fee,
                "seller_shares": dict(sorted(d.split.dataset_shares.items())),
            }
            for d in report.deliveries
        ],
        "rejections": [
            {"buyer": r.buyer, "reason": r.reason}
            for r in report.rejections
        ],
        "expost_deliveries": [
            {
                "transaction_id": d.transaction_id,
                "buyer": d.buyer,
                "datasets": d.mashup.plan.sources(),
            }
            for d in report.expost_deliveries
        ],
    }


# ---------------------------------------------------------------------------
# the gateway
# ---------------------------------------------------------------------------

_PLAN_SPEC = {
    "attributes": Field(list, non_empty=True, item_types=(str,)),
    "key": Field(str, default=None),
    "max_results": Field(int, default=5),
    "min_match_score": Field((int, float), default=0.55),
    "collect": Field(bool, default=True),
}

_SEARCH_SPEC = {
    "attributes": Field(list, non_empty=True, item_types=(str,)),
    "min_score": Field((int, float), default=0.55),
}

_DATASET_SPEC = {
    "relation": Field(dict),
    "reserve_price": Field((int, float), default=0.0),
    "license": Field(dict, default=None),
    "policy": Field(list, default=None),
}


class _GatewayServer(ThreadingHTTPServer):
    daemon_threads = True
    #: set by MarketGateway.start(); handlers reach the gateway through it
    gateway: "MarketGateway"


class MarketGateway:
    """Serve one :class:`MarketService` over HTTP/JSON.

    ``tokens`` maps bearer token -> principal name (the seller/buyer the
    token acts as).  ``rate_limit`` (requests/second per token, ``burst``
    capacity) enables the 429 path; None disables limiting.  The server
    binds ``host:port`` on :meth:`start` (port 0 picks a free port —
    :attr:`url` reflects the bound address)."""

    def __init__(
        self,
        service: MarketService,
        *,
        tokens: dict[str, str] | None = None,
        rate_limit: float | None = None,
        burst: int | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.tokens = dict(tokens or {})
        self.limiter = (
            RateLimiter(rate_limit, burst) if rate_limit else None
        )
        self._host, self._port = host, port
        self._server: _GatewayServer | None = None
        self._thread: threading.Thread | None = None
        self._stats_lock = threading.Lock()
        self._requests: Counter = Counter()
        self._errors: Counter = Counter()
        self._latencies: deque = deque(maxlen=4096)
        self._routes = [
            ("GET", re.compile(r"^/healthz$"), False, self._h_healthz),
            ("GET", re.compile(r"^/stats$"), False, self._h_stats),
            ("GET", re.compile(r"^/datasets$"), False, self._h_list),
            ("POST", re.compile(r"^/datasets$"), True, self._h_register),
            ("PUT", re.compile(r"^/datasets/(?P<name>[^/]+)$"), True,
             self._h_update),
            ("DELETE", re.compile(r"^/datasets/(?P<name>[^/]+)$"), True,
             self._h_retire),
            ("GET", re.compile(r"^/search$"), False, self._h_search_text),
            ("POST", re.compile(r"^/search$"), False, self._h_search),
            ("POST", re.compile(r"^/plan$"), False, self._h_plan),
            ("POST", re.compile(r"^/pinned$"), False, self._h_pinned),
            ("POST", re.compile(r"^/wtp$"), True, self._h_wtp),
            ("POST", re.compile(r"^/rounds$"), True, self._h_round),
            ("POST", re.compile(r"^/participants$"), True,
             self._h_participant),
        ]

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise ServiceError("gateway is not started")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "MarketGateway":
        if self._server is not None:
            return self
        handler = _make_handler()
        self._server = _GatewayServer((self._host, self._port), handler)
        self._server.gateway = self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="market-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(10)
        self._server, self._thread = None, None

    def __enter__(self) -> "MarketGateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request pipeline --------------------------------------------------
    def handle(
        self,
        method: str,
        target: str,
        headers,
        body: bytes,
        client: str,
        refused: MarketError | None = None,
    ) -> tuple[int, dict, dict[str, str]]:
        """Route one request; returns (status, json payload, headers).

        This is the whole request pipeline — rate limit, auth, parse,
        validate, dispatch, error mapping — factored off the socket
        handler so it is directly testable.  ``refused`` is the typed
        error the socket handler turned the request away with before
        reading its body; it is answered like any other error."""
        start = time.perf_counter()
        parts = urlsplit(target)
        path = unquote(parts.path)
        route_key = f"{method} {parts.path}"
        extra_headers: dict[str, str] = {}
        try:
            if refused is not None:
                raise refused
            match, needs_auth, handler = self._match(method, path)
            route_key = f"{method} {match.re.pattern}"
            token = self._bearer_token(headers)
            if self.limiter is not None:
                self.limiter.check(token if token else f"addr:{client}")
            principal = None
            if needs_auth:
                principal = self._authenticate(token)
            query = {
                k: v[-1] for k, v in parse_qs(parts.query).items()
            }
            payload = self._parse_body(body)
            status, result = handler(
                principal, match.groupdict(), query, payload
            )
        except MarketError as exc:
            status = status_for(type(exc))
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                extra_headers["Retry-After"] = str(
                    max(1, math.ceil(retry_after))
                )
            result = {
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                },
                "as_of": self.service.market.graph_version,
            }
        except Exception as exc:  # off-taxonomy bug: opaque 500, not a hang
            status = 500
            result = {
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                },
                "as_of": self.service.market.graph_version,
            }
        finally:
            elapsed = (time.perf_counter() - start) * 1000.0
            with self._stats_lock:
                self._requests[route_key] += 1
                self._latencies.append(elapsed)
        if status >= 400:
            with self._stats_lock:
                self._errors[status] += 1
        return status, result, extra_headers

    def _match(self, method: str, path: str):
        path_exists = False
        for route_method, pattern, needs_auth, handler in self._routes:
            match = pattern.match(path)
            if match is None:
                continue
            path_exists = True
            if route_method == method:
                return match, needs_auth, handler
        if path_exists:
            raise InvalidRequestError(
                f"method {method} not supported on {path}"
            )
        raise DatasetNotFoundError(f"no route for {method} {path}")

    @staticmethod
    def _bearer_token(headers) -> str | None:
        auth = headers.get("Authorization", "")
        if auth.startswith("Bearer "):
            return auth[len("Bearer "):].strip() or None
        return None

    def _authenticate(self, token: str | None) -> str:
        if token is None:
            raise AuthenticationError(
                "this route requires a bearer token "
                "(Authorization: Bearer <token>)"
            )
        try:
            return self.tokens[token]
        except KeyError:
            raise AuthenticationError("unrecognized bearer token") from None

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidRequestError(
                f"request body is not valid JSON: {exc}"
            ) from None
        if not isinstance(parsed, dict):
            raise InvalidRequestError(
                "request body must be a JSON object"
            )
        return parsed

    # -- handlers ----------------------------------------------------------
    def _h_healthz(self, principal, params, query, body):
        return 200, {
            "status": "ok",
            "graph_version": self.service.market.graph_version,
        }

    def _h_stats(self, principal, params, query, body):
        with self._stats_lock:
            latencies = sorted(self._latencies)
            requests = dict(self._requests)
            errors = {str(k): v for k, v in self._errors.items()}

        def pct(q: float) -> float | None:
            if not latencies:
                return None
            index = min(len(latencies) - 1, int(q * (len(latencies) - 1)))
            return round(latencies[index], 3)

        return 200, {
            "service": self.service.stats(),
            "requests": {
                "total": sum(requests.values()),
                "by_route": requests,
                "errors": errors,
            },
            "latency_ms": {"p50": pct(0.50), "p99": pct(0.99)},
        }

    def _h_list(self, principal, params, query, body):
        limit = _int_query(query, "limit", 50)
        sort = query.get("sort", "registered")
        page, cursor = self.service.list_datasets(
            limit=limit, cursor=query.get("cursor"), sort=sort,
        )
        return 200, {
            "datasets": page,
            "next_cursor": cursor,
            "sort": sort,
            "as_of": self.service.market.graph_version,
        }

    def _h_register(self, principal, params, query, body):
        return self._accept(principal, body, create=True)

    def _h_update(self, principal, params, query, body):
        relation = body.get("relation")
        if isinstance(relation, dict) and relation.get("name") != params["name"]:
            raise InvalidRequestError(
                f"path dataset {params['name']!r} does not match payload "
                f"relation {relation.get('name')!r}"
            )
        return self._accept(principal, body, create=False)

    def _accept(self, principal, body, create: bool):
        fields = validate_body(body, _DATASET_SPEC)
        relation = relation_from_payload(fields["relation"])
        kwargs = {
            "reserve_price": float(fields["reserve_price"]),
            "license": license_from_payload(fields["license"]),
            "policy": policy_from_payload(fields["policy"]),
        }
        if create:
            ticket = self.service.register_dataset(
                relation, principal, **kwargs
            )
        else:
            ticket = self.service.update_dataset(
                relation, principal, **kwargs
            )
        result = ticket.result(WRITE_TIMEOUT)
        return 201 if create else 200, {
            "dataset": result.dataset,
            "seller": result.seller,
            "version": result.version,
            "rows": result.rows,
            "reserve_price": result.reserve_price,
            "created": result.created,
            "as_of": result.as_of,
        }

    def _h_retire(self, principal, params, query, body):
        name = params["name"]
        market = self.service.market

        def retire():
            # ownership check inside the writer's critical section, so it
            # cannot race a concurrent transfer of the name
            if name in market.arbiter.licenses:
                owner = market.arbiter.licenses.owner_of(name)
                if owner != principal:
                    raise DatasetOwnershipError(
                        f"dataset {name!r} belongs to {owner!r}, "
                        f"not {principal!r}"
                    )
            return market.retire_dataset(name)

        result = self.service.submit(
            retire, label=f"retire:{name}"
        ).result(WRITE_TIMEOUT)
        return 200, {
            "dataset": result.dataset,
            "seller": result.seller,
            "as_of": result.as_of,
        }

    def _h_search_text(self, principal, params, query, body):
        q = query.get("q", "")
        if not q.strip():
            raise InvalidRequestError(
                "text search requires a non-empty ?q= parameter"
            )
        hits = self.service.search_text(q, limit=_int_query(query, "limit", 10))
        return 200, {
            "query": q,
            "hits": hits,
            "as_of": self.service.market.graph_version,
        }

    def _h_search(self, principal, params, query, body):
        fields = validate_body(body, _SEARCH_SPEC)
        result = self.service.search(
            fields["attributes"], min_score=float(fields["min_score"])
        )
        return 200, _search_payload(result)

    def _plan_from_spec(self, fields, view=None):
        plan = (view or self.service).plan(
            fields["attributes"],
            key=fields["key"],
            max_results=fields["max_results"],
            min_match_score=float(fields["min_match_score"]),
        )
        return plan

    def _h_plan(self, principal, params, query, body):
        fields = validate_body(body, _PLAN_SPEC)
        if fields["max_results"] < 1:
            raise InvalidRequestError("max_results must be >= 1")
        result = self._plan_from_spec(fields)
        # collection happens outside the read lock: trees are immutable
        relations = (
            result.collect() if fields["collect"]
            else [None] * len(result.mashups)
        )
        return 200, _plan_payload(result, relations)

    def _h_pinned(self, principal, params, query, body):
        fields = validate_body(body, {
            "search": Field(dict, default=None),
            "plan": Field(dict, default=None),
        })
        if fields["search"] is None and fields["plan"] is None:
            raise InvalidRequestError(
                "pinned query needs a 'search' and/or 'plan' spec"
            )
        search_fields = (
            validate_body(fields["search"], _SEARCH_SPEC)
            if fields["search"] is not None else None
        )
        plan_fields = (
            validate_body(fields["plan"], _PLAN_SPEC)
            if fields["plan"] is not None else None
        )
        search_result = plan_result = None
        with self.service.pinned() as view:
            as_of = view.as_of
            if search_fields is not None:
                search_result = view.search(
                    search_fields["attributes"],
                    min_score=float(search_fields["min_score"]),
                )
            if plan_fields is not None:
                plan_result = self._plan_from_spec(plan_fields, view)
        out: dict = {"as_of": as_of}
        if search_result is not None:
            out["search"] = _search_payload(search_result)
        if plan_result is not None:
            relations = (
                plan_result.collect() if plan_fields["collect"]
                else [None] * len(plan_result.mashups)
            )
            out["plan"] = _plan_payload(plan_result, relations)
        return 200, out

    def _h_wtp(self, principal, params, query, body):
        wtp = wtp_from_spec(body, buyer=principal)
        receipt = self.service.submit_wtp(wtp).result(WRITE_TIMEOUT)
        return 202, {
            "buyer": receipt.buyer,
            "attributes": list(receipt.attributes),
            "elicitation": receipt.elicitation,
            "queued": receipt.queued,
            "as_of": receipt.as_of,
        }

    def _h_round(self, principal, params, query, body):
        fields = validate_body(body, {"context": Field(str, default="*")})
        report = self.service.run_round(fields["context"]).result(
            WRITE_TIMEOUT
        )
        return 200, _round_payload(report)

    def _h_participant(self, principal, params, query, body):
        fields = validate_body(body, {
            "name": Field(str, non_empty=True),
            "funding": Field((int, float), default=0.0),
        })
        self.service.register_participant(
            fields["name"], funding=float(fields["funding"])
        ).result(WRITE_TIMEOUT)
        return 201, {
            "participant": fields["name"],
            "funding": float(fields["funding"]),
            "as_of": self.service.market.graph_version,
        }


def _int_query(query: dict, name: str, default: int) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InvalidRequestError(
            f"query parameter {name!r} must be an integer, got {raw!r}"
        ) from None


def _make_handler() -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server: _GatewayServer

        def _dispatch(self, method: str) -> None:
            body, refused = b"", None
            try:
                body = self._read_body()
            except InvalidRequestError as exc:
                # the body was left unread, so the stream is out of step
                refused, self.close_connection = exc, True
            status, payload, extra = self.server.gateway.handle(
                method, self.path, self.headers, body,
                client=self.client_address[0], refused=refused,
            )
            if refused is not None:
                extra["Connection"] = "close"
            data = json.dumps(payload, default=str).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for key, value in extra.items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(data)

        def _read_body(self) -> bytes:
            raw = self.headers.get("Content-Length")
            if raw is None:
                return b""
            if not re.fullmatch(r"[0-9]+", raw.strip()):
                raise InvalidRequestError(
                    f"Content-Length must be a non-negative integer, "
                    f"got {raw!r}"
                )
            digits = raw.strip().lstrip("0") or "0"
            # length first: int() refuses digit strings over 4300 long
            if len(digits) > len(str(MAX_BODY_BYTES)) or (
                int(digits) > MAX_BODY_BYTES
            ):
                raise InvalidRequestError(
                    f"request body exceeds the {MAX_BODY_BYTES}-byte limit"
                )
            length = int(digits)
            return self.rfile.read(length) if length else b""

        def do_GET(self):  # noqa: N802  (BaseHTTPRequestHandler contract)
            self._dispatch("GET")

        def do_POST(self):  # noqa: N802
            self._dispatch("POST")

        def do_PUT(self):  # noqa: N802
            self._dispatch("PUT")

        def do_DELETE(self):  # noqa: N802
            self._dispatch("DELETE")

        def log_message(self, format, *args):  # quiet by default
            pass

    return Handler


# ---------------------------------------------------------------------------
# standalone entrypoint
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    """``python -m repro.platform.http``: stand up a gateway from flags."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.platform.http",
        description="Serve a data market over HTTP/JSON.",
    )
    parser.add_argument(
        "--store", default=None,
        help="SQLite store path (durable market; omit for ephemeral)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--token", action="append", default=[], metavar="TOKEN=PRINCIPAL",
        help="bearer token mapping (repeatable)",
    )
    parser.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        help="per-token request budget (requests/second); omit to disable",
    )
    parser.add_argument(
        "--burst", type=int, default=None,
        help="token-bucket capacity (defaults to max(1, rate))",
    )
    args = parser.parse_args(argv)

    tokens: dict[str, str] = {}
    for pair in args.token:
        token, sep, principal = pair.partition("=")
        if not sep or not token or not principal:
            parser.error(f"--token must be TOKEN=PRINCIPAL, got {pair!r}")
        tokens[token] = principal

    from .market import DataMarket  # deferred: heavy import chain

    store = MarketStore(args.store) if args.store else None
    market = DataMarket(store=store) if store else DataMarket()
    service = MarketService(market)
    gateway = MarketGateway(
        service,
        tokens=tokens,
        rate_limit=args.rate_limit,
        burst=args.burst,
        host=args.host,
        port=args.port,
    ).start()
    host, port = gateway.address
    print(f"market gateway listening on http://{host}:{port}")
    print(f"  store: {args.store or '(ephemeral)'}")
    print(f"  tokens: {len(tokens)}  rate limit: {args.rate_limit or 'off'}")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        gateway.stop()
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
