"""HTTP/JSON gateway: the network surface of the always-on market.

:class:`MarketGateway` serves a :class:`~repro.platform.MarketService` over
plain HTTP — stdlib ``http.server.ThreadingHTTPServer`` plus a small
explicit router, no web framework — so every mutation still funnels
through the service's single writer and every read stays
snapshot-consistent.

Each wire operation is declared once, as an :class:`Operation` in
:data:`OPERATIONS`; the gateway serves every entry through one handler,
:class:`~repro.platform.MarketClient` calls it from the same entry, and
results cross the wire through one codec (:func:`to_wire` /
:func:`from_wire`) over the frozen result dataclasses.  The transport
layer adds exactly the concerns a network edge owns and nothing else:

* **Auth.**  Bearer tokens map to principal names.  Mutating routes
  require one; the authenticated principal *is* the seller (or buyer) of
  record, so a token can never register datasets for, update datasets of,
  or retire datasets from another seller (401 for bad credentials, 403
  for ownership violations).
* **Rate limiting.**  A per-token token bucket (a request without a known
  token is keyed by its address) returns 429 with a ``Retry-After``
  header once the budget is spent.
* **Validation.**  The declared fields reject malformed requests as typed
  :class:`~repro.errors.InvalidRequestError` (422) before any engine code
  runs.
* **Error taxonomy.**  One mapping (:data:`STATUS_BY_ERROR`) from the
  :class:`~repro.errors.MarketError` hierarchy to HTTP statuses; every
  error response is a structured JSON body carrying the error type, the
  message, and the graph version (``as_of``) current when it was raised.
* **Connections.**  A connection stays open across requests (HTTP/1.1,
  with ``TCP_NODELAY`` so an answer never waits for a delayed ACK), the
  accept queue is ``socket.SOMAXCONN`` deep, every verb reaches the router
  (a ``HEAD`` answer has no body), and :meth:`MarketGateway.stop` hangs up
  on every open connection.

All market semantics — duplicate detection, license continuity, plan
caching, snapshot pinning — live below the service boundary; the gateway
only translates.  ``python -m repro.platform.http`` starts a standalone
server wired from CLI flags (store path, auth tokens, rate limits).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import json
import math
import operator
import re
import socket
import threading
import time
import typing
from collections import Counter, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import UnionType
from typing import Callable, NamedTuple
from urllib.parse import parse_qs, quote, unquote, urlsplit

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
    UnknownParticipantError,
)
from ..market.licensing import ContextualIntegrityPolicy, License, LicenseKind
from ..relation import Relation
from ..relation.codec import relation_from_payload, relation_to_payload
from ..wtp import (
    ExplorationTask,
    PriceCurve,
    QueryCompletenessTask,
    WTPFunction,
)
from .results import (
    GatewayPlanResult,
    ParticipantResult,
    PinnedResult,
    RegisterResult,
    RetireResult,
    RoundSummary,
    SearchResult,
    WTPReceipt,
    plan_view,
    round_view,
)
from .service import MarketService, ServiceError, WriteTicket
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

#: the start of a ``\uDxxx`` escape, the only way a JSON body can carry
#: a surrogate (raw surrogate bytes are not UTF-8); escapes of U+D000 to
#: U+D7FF match too and pass the check they lead to
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD]")

#: seconds between the serve loop's shutdown checks: ``stop()`` waits up to
#: this long for the loop to notice (stdlib's default is 0.5 s)
_POLL_INTERVAL = 0.05


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
    """One validated request field: type, item types, emptiness, default;
    in an :class:`Operation`, also the codec its value crosses the wire
    with and the argument it fills when that is not the field's own name.
    A number field (``(int, float)``) yields a float."""

    def __init__(
        self,
        types,
        default=_MISSING,
        *,
        item_types=None,
        non_empty: bool = False,
        codec: "Codec | None" = None,
        arg: str | None = None,
    ):
        self.types = types if isinstance(types, tuple) else (types,)
        self.default = default
        self.item_types = item_types
        self.non_empty = non_empty
        self.codec = codec
        self.arg = arg

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
        return float(value) if float in self.types else value

    def from_query(self, name: str, query: dict):
        """The field from a query string (where an int arrives as text)."""
        raw = query.get(name)
        if raw is None or (self.required and not raw.strip()):
            if self.required:
                raise InvalidRequestError(
                    f"a non-empty ?{name}= parameter is required"
                )
            return self.default
        if int not in self.types:
            return raw
        try:
            return int(raw)
        except ValueError:
            raise InvalidRequestError(
                f"query parameter {name!r} must be an integer, got {raw!r}"
            ) from None


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
# JSON codecs (shared with the typed client; a relation's is
# ``relation_to_payload``/``relation_from_payload`` of repro.relation.codec)
# ---------------------------------------------------------------------------

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
        exclusivity_tax_rate=fields["exclusivity_tax_rate"],
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
#: pure data.  kind -> (task dataclass, request spec)
WTP_TASKS: dict[str, tuple[type, dict]] = {
    "query_completeness": (QueryCompletenessTask, {
        "kind": Field(str),
        "wanted_keys": Field(list, non_empty=True),
        "attributes": Field(list, non_empty=True, item_types=(str,)),
        "key": Field(str, default="entity_id"),
    }),
    "exploration": (ExplorationTask, {
        "kind": Field(str),
        "attributes": Field(list, non_empty=True, item_types=(str,)),
    }),
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
    task_class, spec = WTP_TASKS[kind]
    task = task_class(**{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in validate_body(task_body, spec).items()
        if name != "kind"
    })
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
    kind = next((kind for kind, (task_class, _) in WTP_TASKS.items()
                 if isinstance(task, task_class)), None)
    if kind is None:
        raise InvalidRequestError(
            f"task {type(task).__name__} has no declarative HTTP form; "
            f"supported kinds: {sorted(WTP_TASKS)}"
        )
    task_spec = {"kind": kind}
    for name, field in WTP_TASKS[kind][1].items():
        if name != "kind":
            value = getattr(task, name)
            task_spec[name] = list(value) if list in field.types else value
    spec = {
        "task": task_spec,
        "curve": [[t, p] for t, p in wtp.curve.steps],
        "elicitation": wtp.elicitation,
    }
    if wtp.key is not None:
        spec["key"] = wtp.key
    return spec


# ---------------------------------------------------------------------------
# the result codec (both sides)
# ---------------------------------------------------------------------------

@functools.cache
def _fields(cls) -> dict | None:
    """Field name -> type hint of a dataclass (None for anything else)."""
    if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
        return None
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _untuple(value):
    """JSON round-trip inverse for the tuple fields of wire results: lists
    back to tuples."""
    if isinstance(value, list):
        return tuple(_untuple(v) for v in value)
    return value


@functools.cache
def _codec(hint) -> tuple[Callable | None, Callable | None]:
    """``(encode, decode)`` for values of type ``hint``, worked out once per
    type from its hints; None where the JSON value is the value.  A tuple
    holds dataclasses (coded one by one) or plain data (JSON arrays, turned
    back into tuples); in ``X | None``, ``X`` comes first."""
    if hint is Relation:
        # lambdas look the module functions up on each call, so a wrapper
        # installed after import (the traced benchmark's ``http.codec``
        # spans) sees every relation crossing the wire
        return (lambda relation: relation_to_payload(relation),
                lambda payload: relation_from_payload(payload))
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return operator.attrgetter("value"), hint
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and not _fields(args[0]):
        return None, _untuple
    if origin is tuple:
        encode, decode = _codec(args[0])
        return (lambda value: [encode(v) for v in value],
                lambda data: tuple(map(decode, data)))
    if origin in (UnionType, typing.Union):
        encode, decode = _codec(args[0])
        return _optional(encode), _optional(decode)
    fields = _fields(hint)
    if fields is None:
        return None, None
    codecs = [(name, *_codec(h)) for name, h in fields.items()]
    return (
        lambda value: {
            name: getattr(value, name) if encode is None
            else encode(getattr(value, name))
            for name, encode, _ in codecs
        },
        lambda data: hint(*[
            data[name] if decode is None else decode(data[name])
            for name, _, decode in codecs
        ]),
    )


def _optional(code: Callable | None) -> Callable | None:
    return code and (lambda value: None if value is None else code(value))


def to_wire(value):
    """``value`` as JSON-ready data: a dataclass becomes an object keyed by
    its field names, a relation its payload, an enum its value.  Unlike
    ``dataclasses.asdict`` it copies nothing it need not."""
    encode = _codec(type(value))[0]
    return value if encode is None else encode(value)


def from_wire(hint, data):
    """Rebuild a value of type ``hint`` from its :func:`to_wire` form."""
    decode = _codec(hint)[1]
    return data if decode is None else decode(data)


# ---------------------------------------------------------------------------
# the operation table
# ---------------------------------------------------------------------------

class Codec(NamedTuple):
    """How a request argument crosses the wire: ``encode`` runs in the
    client, ``decode`` (a typed 422 on bad input) at the gateway."""

    encode: Callable
    decode: Callable


RELATION = Codec(*_codec(Relation))
LICENSE = Codec(to_wire, license_from_payload)
POLICY = Codec(lambda p: sorted(p.allowed_contexts), policy_from_payload)
WTP = Codec(wtp_to_spec, wtp_from_spec)

#: a ``{name}`` segment of an operation's path
_PARAM = re.compile(r"\{([^}]+)\}")


@dataclasses.dataclass(frozen=True)
class Operation:
    """One wire operation: the gateway routes, validates and dispatches a
    request from its entry, and the client builds the request and decodes
    the answer from the same entry."""

    #: the MarketService method it calls and the MarketClient method that
    #: calls it, and the key its requests count under in ``/stats``
    name: str
    verb: str
    #: ``{arg}`` is a path parameter; ``{arg.attr}`` must equal that
    #: attribute of the body's ``arg``
    path: str
    #: what the client decodes the answer into
    result: type
    #: request fields: the JSON body, or the query string of a GET/DELETE
    fields: dict[str, Field] = dataclasses.field(default_factory=dict)
    status: int = 200
    #: a bearer token is required
    auth: bool = False
    #: the argument the authenticated principal fills: of the service
    #: call, or of the body's decoder when ``body`` is set
    principal: str | None = None
    #: set when the whole body is this one field
    body: str | None = None
    #: ``(service result, request arguments) -> answer``
    view: Callable | None = None
    #: request fields only ``view`` reads, not passed to the service
    view_args: tuple[str, ...] = ()
    #: the MarketService method, when it is not ``name``
    method: str | None = None

    def call_args(self, args: dict) -> dict:
        return {k: v for k, v in args.items() if k not in self.view_args}


_DATASET_FIELDS = {
    "relation": Field(dict, codec=RELATION),
    "reserve_price": Field((int, float), default=0.0),
    "license": Field(dict, default=None, codec=LICENSE),
    "policy": Field(list, default=None, codec=POLICY),
}

_SEARCH_FIELDS = {
    "attributes": Field(list, non_empty=True, item_types=(str,)),
    "min_score": Field((int, float), default=0.55),
}

#: every operation on the wire, by name (``healthz``, ``stats`` and
#: ``pinned`` are the gateway's own routes)
OPERATIONS: dict[str, Operation] = {op.name: op for op in (
    Operation("register_dataset", "POST", "/datasets", RegisterResult,
              _DATASET_FIELDS, status=201, auth=True, principal="seller"),
    Operation("update_dataset", "PUT", "/datasets/{relation.name}",
              RegisterResult, _DATASET_FIELDS, auth=True,
              principal="seller"),
    Operation("retire_dataset", "DELETE", "/datasets/{dataset}",
              RetireResult, auth=True, principal="seller",
              method="_retire_as"),
    Operation("list_datasets", "GET", "/datasets", dict, {
        "limit": Field(int, default=50),
        "cursor": Field(str, default=None),
        "sort": Field(str, default="registered"),
    }, view=lambda page, args: {
        "datasets": page[0], "next_cursor": page[1], "sort": args["sort"],
    }),
    Operation("search_text", "GET", "/search", dict, {
        "q": Field(str, arg="query"),
        "limit": Field(int, default=10),
    }, view=lambda hits, args: {"query": args["query"], "hits": hits}),
    Operation("search", "POST", "/search", SearchResult, _SEARCH_FIELDS),
    Operation("plan", "POST", "/plan", GatewayPlanResult, {
        "attributes": Field(list, non_empty=True, item_types=(str,)),
        "key": Field(str, default=None),
        "max_results": Field(int, default=5),
        "min_match_score": Field((int, float), default=0.55),
        "collect": Field(bool, default=True),
    }, view=lambda result, args: plan_view(result, args["collect"]),
        view_args=("collect",)),
    Operation("submit_wtp", "POST", "/wtp", WTPReceipt,
              {"wtp": Field(dict, codec=WTP)}, status=202, auth=True,
              principal="buyer", body="wtp"),
    Operation("run_round", "POST", "/rounds", RoundSummary,
              {"context": Field(str, default="*")}, auth=True,
              view=lambda report, args: round_view(report)),
    Operation("register_participant", "POST", "/participants",
              ParticipantResult, {
                  "name": Field(str, non_empty=True),
                  "funding": Field((int, float), default=0.0),
              }, status=201, auth=True),
)}


def encode_request(op: Operation, args: dict) -> tuple[str, dict, object]:
    """``(path, query, body)`` of a request to ``op`` with the client's
    ``args`` (the inverse of :func:`decode_request`)."""
    def segment(match) -> str:
        head, _, attr = match[1].partition(".")
        value = getattr(args[head], attr) if attr else args[head]
        return quote(str(value), safe="")

    path = _PARAM.sub(segment, op.path)
    if op.body is not None:
        return path, {}, op.fields[op.body].codec.encode(args[op.body])
    values = {}
    for name, field in op.fields.items():
        value = args[field.arg or name]
        if value is not None and field.codec is not None:
            value = field.codec.encode(value)
        values[name] = value
    if op.verb in ("GET", "DELETE"):
        return path, values, None
    return path, {}, values


def decode_request(
    op: Operation, params: dict, query: dict, body: dict, principal
) -> dict:
    """The arguments of one request to ``op``: path parameters, then the
    validated and decoded fields, then the principal."""
    args = {}
    for expr, value in params.items():
        head, _, attr = expr.partition(".")
        if not attr:
            args[head] = value
            continue
        claimed = body.get(head)
        if isinstance(claimed, dict) and claimed.get(attr) != value:
            raise InvalidRequestError(
                f"path dataset {value!r} does not match payload "
                f"{head} {claimed.get(attr)!r}"
            )
    if op.body is not None:
        decode = op.fields[op.body].codec.decode
        return {op.body: decode(body, **{op.principal: principal})}
    if op.verb in ("GET", "DELETE"):
        fields = {n: f.from_query(n, query) for n, f in op.fields.items()}
    else:
        fields = validate_body(body, op.fields)
    for name, field in op.fields.items():
        value = fields[name]
        if value is not None and field.codec is not None:
            value = field.codec.decode(value)
        args[field.arg or name] = value
    if op.principal is not None:
        args[op.principal] = principal
    return args


# ---------------------------------------------------------------------------
# the gateway
# ---------------------------------------------------------------------------

class _Route(NamedTuple):
    verb: str
    pattern: re.Pattern
    params: list[str]
    #: the key its requests count under in ``/stats``
    name: str
    auth: bool
    handler: Callable


class _GatewayServer(ThreadingHTTPServer):
    daemon_threads = True
    #: a burst of new connections waits in the accept queue; an overflow
    #: would leave the kernel's SYN retry (a second or more) to recover
    request_queue_size = socket.SOMAXCONN
    #: set by MarketGateway.start(); handlers reach the gateway through it
    gateway: "MarketGateway"

    def __init__(self, *args, **kwargs):
        #: each open connection and the thread serving it
        self._live: dict[socket.socket, threading.Thread] = {}
        self._live_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="market-gateway-connection",
            daemon=True,
        )
        with self._live_lock:
            self._live[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._live_lock:
            self._live.pop(request, None)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket, then hang up every open connection
        and wait (10 s in all) for the threads that serve them: a
        kept-alive connection would otherwise be served on after the
        gateway stopped."""
        super().server_close()
        with self._live_lock:
            live = list(self._live.items())
            for request, _ in live:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client hung up first
                    pass
        deadline = time.monotonic() + 10
        for _, thread in live:
            thread.join(max(0.0, deadline - time.monotonic()))


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
            _Route("GET", re.compile(r"^/healthz$"), [], "healthz", False,
                   self._h_healthz),
            _Route("GET", re.compile(r"^/stats$"), [], "stats", False,
                   self._h_stats),
            _Route("POST", re.compile(r"^/pinned$"), [], "pinned", False,
                   self._h_pinned),
        ] + [
            _Route(op.verb,
                   re.compile("^" + _PARAM.sub("([^/]+)", op.path) + "$"),
                   _PARAM.findall(op.path), op.name, op.auth,
                   functools.partial(self._serve, op))
            for op in OPERATIONS.values()
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
            args=(_POLL_INTERVAL,),
            name="market-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, then hang up every open connection: a client
        holding one gets an error, not an answer."""
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
        # requests no route took share one key, so /stats stays bounded
        route_name = "unmatched"
        extra_headers: dict[str, str] = {}
        try:
            if refused is not None:
                raise refused
            route, params = self._match(method, parts.path)
            route_name = route.name
            token = self._bearer_token(headers)
            if self.limiter is not None:
                # a made-up token gets no bucket of its own
                self.limiter.check(
                    token if token in self.tokens else f"addr:{client}"
                )
            principal = None
            if route.auth:
                principal = self._authenticate(token)
            query = {
                k: v[-1] for k, v in parse_qs(parts.query).items()
            }
            payload = self._parse_body(body)
            status, result = route.handler(principal, params, query, payload)
        except Exception as exc:  # status_for: 500 off the taxonomy
            status = status_for(type(exc))
            if isinstance(exc, RateLimitError):
                extra_headers["Retry-After"] = str(
                    max(1, math.ceil(exc.retry_after))
                )
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
                self._requests[route_name] += 1
                self._latencies.append(elapsed)
        if status >= 400:
            with self._stats_lock:
                self._errors[status] += 1
        return status, result, extra_headers

    def _match(self, method: str, path: str) -> tuple[_Route, dict]:
        """The route for ``method`` on the raw (still percent-encoded)
        ``path``, and its decoded path parameters: matching before
        decoding lets a parameter hold an encoded ``/``."""
        path_exists = False
        for route in self._routes:
            match = route.pattern.match(path)
            if match is None:
                continue
            path_exists = True
            if route.verb == method:
                values = map(unquote, match.groups())
                return route, dict(zip(route.params, values))
        if path_exists:
            raise InvalidRequestError(
                f"method {method} not supported on {unquote(path)}"
            )
        raise DatasetNotFoundError(f"no route for {method} {unquote(path)}")

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
        except (
            UnicodeDecodeError, json.JSONDecodeError, RecursionError
        ) as exc:
            raise InvalidRequestError(
                f"request body is not valid JSON: {exc}"
            ) from None
        if not isinstance(parsed, dict):
            raise InvalidRequestError(
                "request body must be a JSON object"
            )
        if _SURROGATE_ESCAPE.search(body):
            # json.loads joins an escaped pair into one code point but
            # keeps a lone surrogate, which no UTF-8 consumer can take
            try:
                json.dumps(parsed, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise InvalidRequestError(
                    "request body holds a lone surrogate escape (\\ud800-"
                    "\\udfff), which is not a character"
                ) from None
        return parsed

    # -- handlers ----------------------------------------------------------
    def _serve(self, op: Operation, principal, params, query, body):
        """Answer a request to a table operation.  The service decides
        what is a write: a returned ticket is waited on, so the answer
        carries the write's outcome."""
        args = decode_request(op, params, query, body, principal)
        call = getattr(self.service, op.method or op.name)
        result = call(**op.call_args(args))
        if isinstance(result, WriteTicket):
            result = result.result(WRITE_TIMEOUT)
        answer = to_wire(result if op.view is None else op.view(result, args))
        if "as_of" not in answer:  # plain JSON: stamp the version read at
            answer["as_of"] = self.service.market.graph_version
        return op.status, answer

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

    def _h_pinned(self, principal, params, query, body):
        fields = validate_body(body, {
            "search": Field(dict, default=None),
            "plan": Field(dict, default=None),
        })
        if fields["search"] is None and fields["plan"] is None:
            raise InvalidRequestError(
                "pinned query needs a 'search' and/or 'plan' spec"
            )
        # each spec is a table operation's body, validated before the pin
        args = {
            name: decode_request(OPERATIONS[name], {}, {}, spec, None)
            for name, spec in fields.items() if spec is not None
        }
        answers = dict.fromkeys(fields)
        with self.service.pinned() as view:
            for name, request in args.items():
                call = OPERATIONS[name].call_args(request)
                answers[name] = getattr(view, name)(**call)
        if "plan" in args:
            answers["plan"] = OPERATIONS["plan"].view(
                answers["plan"], args["plan"]
            )
        return 200, to_wire(PinnedResult(as_of=view.as_of, **answers))


def _make_handler() -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        #: TCP_NODELAY: on a kept-alive connection the body would wait
        #: for the client's delayed ACK of the headers
        disable_nagle_algorithm = True
        server: _GatewayServer

        def _dispatch(self) -> None:
            body, refused = b"", None
            try:
                body = self._read_body()
            except InvalidRequestError as exc:
                # the body was left unread, so the stream is out of step
                refused, self.close_connection = exc, True
            status, payload, extra = self.server.gateway.handle(
                self.command, self.path, self.headers, body,
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
            if self.command != "HEAD":
                # a HEAD answer's body would be read as the next answer
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

        def __getattr__(self, name: str):
            # BaseHTTPRequestHandler calls do_<VERB>: every verb reaches
            # the router (the verb is self.command), so one without a
            # route gets the gateway's JSON error, not stdlib's HTML 501
            if name.startswith("do_"):
                return self._dispatch
            raise AttributeError(name)

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
