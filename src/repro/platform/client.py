"""Typed HTTP client for the market gateway.

:class:`MarketClient` mirrors the :class:`~repro.platform.DataMarket`
façade over a real socket: the same operations, the same frozen result
dataclasses (a client result compares equal to the in-process façade's),
and the same typed error taxonomy — a 404 raises
:class:`~repro.errors.DatasetNotFoundError`, a 429 raises
:class:`~repro.errors.RateLimitError` with ``retry_after`` filled from the
response header, exactly as if the façade had been called in-process.
Each method builds its request and decodes its answer from the
operation's entry in :data:`repro.platform.http.OPERATIONS`.

Plan and round results cannot carry live expression trees or ledger
objects across the network, so they come back as frozen views
(:class:`~repro.platform.GatewayPlanResult` /
:class:`~repro.platform.RoundSummary`) holding the *materialized* relations
the server collected from the lazy trees.

Only the stdlib is used (``http.client``).  A client keeps its
connections open between calls: a call takes an idle connection from a
lock-guarded stack (or opens one, so threads can share a client) and puts
it back once the whole answer is read, unless the gateway said
``Connection: close``.  An idle connection is checked, without blocking,
before it is reused, and one the gateway has closed is dropped.  A
request is never sent twice: once any of it may have been written, a
failure is raised to the caller and its connection dropped, so a write
cannot be applied twice.  :meth:`MarketClient.close` (or leaving a
``with`` block, or the client being collected) closes the idle
connections.
"""

from __future__ import annotations

import json
import socket
import threading
import weakref
from http.client import HTTPConnection
from urllib.parse import urlencode, urlsplit

from .. import errors as _errors
from ..errors import MarketError, RateLimitError
from ..relation import Relation
from ..relation.codec import relation_from_payload as relation_from_wire
from ..relation.codec import relation_to_payload
from ..wtp import WTPFunction
from .http import OPERATIONS, encode_request, from_wire
from .results import (
    GatewayPlanResult,
    ParticipantResult,
    PinnedResult,
    RegisterResult,
    RetireResult,
    RoundSummary,
    SearchResult,
    WTPReceipt,
)
from .service import ServiceError
from .store import StoreError

__all__ = [
    "GatewayResponseError",
    "MarketClient",
    "relation_from_wire",
    "relation_to_payload",
]

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


def _still_open(conn: HTTPConnection) -> bool:
    """Whether the gateway still holds an idle connection open, checked
    without blocking: it sends nothing unasked, so anything to read (its
    hang-up included) means the connection is done."""
    sock = conn.sock
    timeout = sock.gettimeout()
    sock.settimeout(0)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:
        return False
    finally:
        sock.settimeout(timeout)
    return False


def _close_idle(idle: list[HTTPConnection], lock: threading.Lock) -> None:
    with lock:
        conns, idle[:] = idle[:], []
    for conn in conns:
        conn.close()


class MarketClient:
    """Drive a :class:`~repro.platform.http.MarketGateway` over HTTP.

    ``base_url`` is the gateway root (e.g. ``http://127.0.0.1:8080``);
    ``token`` authenticates mutating calls — the gateway resolves it to
    the seller/buyer the client acts as.  Threads may share a client; its
    connections stay open between calls until :meth:`close` (or the end
    of a ``with`` block)."""

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
        #: idle keep-alive connections, the most recently used last
        self._idle: list[HTTPConnection] = []
        self._idle_lock = threading.Lock()
        # a client dropped without close() closes its connections too
        weakref.finalize(self, _close_idle, self._idle, self._idle_lock)

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        _close_idle(self._idle, self._idle_lock)

    def __enter__(self) -> "MarketClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport ---------------------------------------------------------
    def _connection(self) -> HTTPConnection:
        """An idle connection the gateway still holds open, or a new one."""
        while True:
            with self._idle_lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            if _still_open(conn):
                return conn
            conn.close()
        return HTTPConnection(self.host, self.port, timeout=self.timeout)

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
        conn = self._connection()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except BaseException:
            # part of the request may have gone out: it is not sent again,
            # and the connection, out of step, is not reused
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        status = response.status
        retry_after = response.getheader("Retry-After")
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

    def _call(self, name: str, /, **args):
        """Run the table operation ``name`` and decode its answer."""
        op = OPERATIONS[name]
        path, query, body = encode_request(op, args)
        return from_wire(op.result, self._request(op.verb, path, body, query))

    # -- observability -----------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    # -- dataset lifecycle -------------------------------------------------
    def register_dataset(
        self,
        relation: Relation,
        *,
        reserve_price: float = 0.0,
        license=None,
        policy=None,
    ) -> RegisterResult:
        """Share a new dataset as the authenticated seller."""
        return self._call(
            "register_dataset", relation=relation,
            reserve_price=reserve_price, license=license, policy=policy,
        )

    def update_dataset(
        self,
        relation: Relation,
        *,
        reserve_price: float = 0.0,
        license=None,
        policy=None,
    ) -> RegisterResult:
        """Refresh a live dataset the authenticated seller owns."""
        return self._call(
            "update_dataset", relation=relation,
            reserve_price=reserve_price, license=license, policy=policy,
        )

    def retire_dataset(self, dataset: str) -> RetireResult:
        return self._call("retire_dataset", dataset=dataset)

    def list_datasets(
        self,
        limit: int = 50,
        cursor: str | None = None,
        sort: str = "registered",
    ) -> tuple[list[dict], str | None]:
        page = self._call(
            "list_datasets", limit=limit, cursor=cursor, sort=sort
        )
        return page["datasets"], page["next_cursor"]

    # -- reads -------------------------------------------------------------
    def search(
        self, attributes, *, min_score: float = 0.55
    ) -> SearchResult:
        return self._call(
            "search", attributes=list(attributes), min_score=min_score
        )

    def search_text(self, query: str, limit: int = 10) -> list[dict]:
        return self._call("search_text", query=query, limit=limit)["hits"]

    def plan(
        self,
        attributes,
        *,
        key: str | None = None,
        max_results: int = 5,
        min_match_score: float = 0.55,
        collect: bool = True,
    ) -> GatewayPlanResult:
        return self._call(
            "plan", attributes=list(attributes), key=key,
            max_results=max_results, min_match_score=min_match_score,
            collect=collect,
        )

    def pinned_query(
        self,
        *,
        search: dict | None = None,
        plan: dict | None = None,
    ) -> PinnedResult:
        """Answer a search and/or plan spec against ONE pinned snapshot:
        both results are guaranteed to carry the same ``as_of`` even while
        writers churn."""
        data = self._request(
            "POST", "/pinned", {"search": search, "plan": plan}
        )
        return from_wire(PinnedResult, data)

    # -- trading -----------------------------------------------------------
    def register_participant(
        self, name: str, funding: float = 0.0
    ) -> ParticipantResult:
        return self._call("register_participant", name=name, funding=funding)

    def submit_wtp(self, wtp: WTPFunction) -> WTPReceipt:
        """Queue a WTP for the next round.  The task must be one of the
        declarative pure-data kinds (``QueryCompletenessTask`` /
        ``ExplorationTask``); the gateway books it under the
        *authenticated* principal regardless of ``wtp.buyer``."""
        return self._call("submit_wtp", wtp=wtp)

    def run_round(self, context: str = "*") -> RoundSummary:
        return self._call("run_round", context=context)
