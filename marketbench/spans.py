"""Per-layer tracing for the traced benchmark run.

The timed runs install nothing.  A traced run calls :func:`install`, which
wraps the public calls of each layer (table below) so that every call
records a span ``[id, name, start, end, parent id, op id, attrs]`` in
memory; spans are written out as JSON lines when the run ends.  A layer's
busy time is its spans' *self* time: a span's duration minus the part its
child spans cover.  Spans from the gateway process (see ``gateway.py``)
use the same clock (``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one
clock for every process), so both sides can be filtered by the same
phase windows.

=====================  =================================================
layer                  public calls timed
=====================  =================================================
``http.server``        ``MarketGateway.handle``
``http.wire``          a ``MarketClient`` call minus its ``handle``
``http.codec``         ``relation_to_payload``, ``relation_from_payload``,
                       ``relation_from_wire``
``service``            ticket submit → write start; ``MarketService``
                       reads minus the ``DataMarket`` call they wrap
``store.write``        ``MarketStore.persist_dataset``, ``persist_retire``
``store.read``         ``MarketStore.list_datasets``, ``search_datasets``
``store.replay``       ``MarketStore.replay_into``
``discovery.profile``  ``profile_table`` as ``MetadataEngine`` calls it
``discovery.index``    the ``MetadataEngine`` subscribers
``discovery.search``   ``DiscoveryEngine.search_schema``
``integration.plan``   ``DoDEngine.build_mashups``
``relation.exec``      ``Processor.execute``, ``Processor.count``
``wtp.eval``           ``WTPFunction.evaluate_batch``
``market.revenue``     ``RevenueAllocationEngine.split_batch``, ``split``
``mechanisms.clear``   the design mechanism's ``run``
=====================  =================================================

Spans named ``http.client`` (one per ``MarketClient`` call), ``facade``
(``DataMarket.search``/``plan`` under the service) and ``write`` (a ticket
applied on the writer thread, parented to the submitting span) belong to
no layer: they only keep their time out of the enclosing layer's self
time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

LAYERS = (
    "http.server", "http.wire", "http.codec", "service", "store.write",
    "store.read", "store.replay", "discovery.profile", "discovery.index",
    "discovery.search", "integration.plan", "relation.exec", "wtp.eval",
    "market.revenue", "mechanisms.clear",
)

#: per-layer metric name -> unit, in report order
PER_LAYER_UNITS: dict[str, str] = {}
for _layer in LAYERS:
    if _layer != "http.wire":
        PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.busy_ms"] = "ms"
PER_LAYER_UNITS.update({
    "http.errors": "count",
    "service.queue_wait_ms": "ms",
    "service.lock_wait_ms": "ms",
    "service.writes_failed": "count",
    "store.bytes": "bytes",
    "integration.cache_hit_ratio": "ratio",
    "integration.plans_built_ratio": "ratio",
    "relation.rows_out": "count",
    "wtp.candidates_per_delivery": "ratio",
    "market.coalitions_per_sale": "ratio",
    "trace.overhead": "ratio",
})

#: layers each workload must never reach (checked on the traced run)
BYPASSED = {
    "trade": ("http.server", "http.codec", "service", "store.read"),
    "ingest": ("integration.plan", "relation.exec", "wtp.eval",
               "market.revenue", "mechanisms.clear"),
    "http": (),
}

# span fields
ID, NAME, START, END, PARENT, OP, ATTRS = range(7)


class Recorder:
    """Thread-safe in-memory span log (one per process)."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self):
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value) -> None:
        self._local.op = value

    def begin_op(self) -> None:
        """Tag this thread's next spans with a fresh client op id."""
        self.op = next(self._ops)

    def top(self):
        """Id of this thread's innermost open span (None when idle)."""
        stack = self._stack()
        return stack[-1][ID] if stack else None

    def open(self, name: str, parent=None) -> list:
        """Open a span under this thread's innermost open span, or under
        ``parent`` (a span id from another thread) when none is open."""
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        span = [next(self._ids), name, time.perf_counter(), None, parent,
                self.op, None]
        stack.append(span)
        return span

    def close(self, span: list, attrs: dict | None = None) -> None:
        span[END] = time.perf_counter()
        if attrs:
            span[ATTRS] = {**(span[ATTRS] or {}), **attrs}
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, attrs=None,
            parent=None) -> None:
        """Record a finished span that no call stack encloses."""
        self.spans.append(
            [next(self._ids), name, start, end, parent, self.op, attrs]
        )

    def count_in_open(self, name: str, key: str) -> None:
        """Bump ``attrs[key]`` on the innermost open span called ``name``."""
        for span in reversed(self._stack()):
            if span[NAME] == name:
                attrs = span[ATTRS] = span[ATTRS] or {}
                attrs[key] = attrs.get(key, 0) + 1
                return


def dump(spans: list[list], path) -> None:
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def load(path) -> list[list]:
    with open(path) as src:
        return [json.loads(line) for line in src if line.strip()]


def _wrap(recorder, owner, attr: str, name: str, attrs_of=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            recorder.close(span, {"error": 1})
            raise
        recorder.close(
            span, attrs_of(args, result) if attrs_of is not None else None
        )
        return result

    setattr(owner, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every layer's public calls (process-wide, once)."""
    from repro.discovery import metadata
    from repro.discovery.search import DiscoveryEngine
    from repro.integration.dod import DoDEngine
    from repro.market.revenue import RevenueAllocationEngine
    from repro.mechanisms.digital import RSOPAuction
    from repro.platform import client, http
    from repro.platform.market import DataMarket
    from repro.platform.service import MarketService
    from repro.platform.store import MarketStore
    from repro.relation.engines import Processor
    from repro.wtp import WTPFunction

    rec = recorder
    _wrap(rec, http.MarketGateway, "handle", "http.server",
          lambda args, result: {"status": result[0]})
    for method in ("healthz", "register_dataset", "update_dataset",
                   "retire_dataset", "list_datasets", "search",
                   "search_text", "plan", "register_participant",
                   "submit_wtp", "run_round"):
        _wrap(rec, client.MarketClient, method, "http.client")
    for module, fn in ((http, "relation_to_payload"),
                       (http, "relation_from_payload"),
                       (client, "relation_to_payload"),
                       (client, "relation_from_wire")):
        _wrap(rec, module, fn, "http.codec")

    original_submit = MarketService.submit

    @functools.wraps(original_submit)
    def submit(self, op, label="op"):
        # the write runs on the writer thread; its spans hang under the
        # submitting span, so a gateway handler waiting on the ticket is
        # not charged for the write itself
        submitted, op_id, parent = time.perf_counter(), rec.op, rec.top()

        def traced_op():
            rec.op = op_id
            rec.add("service", submitted, time.perf_counter(),
                    {"queue_wait": 1}, parent)
            span = rec.open("write", parent)
            try:
                result = op()
            except BaseException:
                rec.close(span, {"error": 1})
                rec.add("service.failed", submitted, submitted)
                raise
            rec.close(span)
            return result

        return original_submit(self, traced_op, label)

    MarketService.submit = submit
    for method in ("search", "plan", "search_text", "list_datasets"):
        _wrap(rec, MarketService, method, "service")
    for method in ("search", "plan"):
        _wrap(rec, DataMarket, method, "facade")

    _wrap(rec, MarketStore, "persist_dataset", "store.write")
    _wrap(rec, MarketStore, "persist_retire", "store.write")
    _wrap(rec, MarketStore, "list_datasets", "store.read")
    _wrap(rec, MarketStore, "search_datasets", "store.read")
    _wrap(rec, MarketStore, "replay_into", "store.replay")
    _wrap(rec, metadata, "profile_table", "discovery.profile")
    _wrap(rec, DiscoveryEngine, "search_schema", "discovery.search")

    def plan_attrs(args, result):
        stats = args[0].last_stats
        return {"hit": int(stats.cache_hit), "built": stats.plans_built,
                "attempted": stats.plans_attempted}

    _wrap(rec, DoDEngine, "build_mashups", "integration.plan", plan_attrs)

    def rows_of(args, result):
        return {"rows": result if isinstance(result, int) else len(result)}

    _wrap(rec, Processor, "execute", "relation.exec", rows_of)
    _wrap(rec, Processor, "count", "relation.exec", rows_of)
    _wrap(rec, WTPFunction, "evaluate_batch", "wtp.eval",
          lambda args, result: {"candidates": len(args[1])})
    original_evaluate = WTPFunction.evaluate

    @functools.wraps(original_evaluate)
    def evaluate(self, mashup):
        rec.count_in_open("market.revenue", "coalitions")
        return original_evaluate(self, mashup)

    WTPFunction.evaluate = evaluate
    _wrap(rec, RevenueAllocationEngine, "split_batch", "market.revenue")
    _wrap(rec, RevenueAllocationEngine, "split", "market.revenue",
          lambda args, result: {"sales": 1})
    _wrap(rec, RSOPAuction, "run", "mechanisms.clear")


def trace_subscribers(recorder: Recorder, market) -> None:
    """Re-subscribe a market's metadata listeners wrapped as
    ``discovery.index`` spans, keeping their order."""
    engine = market.metadata
    listeners = engine.subscribers
    for listener in listeners:
        engine.unsubscribe(listener)
    for listener in listeners:
        def traced(delta, _listener=listener):
            span = recorder.open("discovery.index")
            try:
                return _listener(delta)
            finally:
                recorder.close(span)

        engine.subscribe(traced)


# ---------------------------------------------------------------------------
# span log -> per-layer metrics
# ---------------------------------------------------------------------------

def shifted(spans: list[list], offset: int) -> list[list]:
    """Move another process's span ids out of this process's id range."""
    return [
        [s[ID] + offset, s[NAME], s[START], s[END],
         None if s[PARENT] is None else s[PARENT] + offset, s[OP], s[ATTRS]]
        for s in spans
    ]


def layer_metrics(
    spans: list[list], windows: list[tuple[float, float]], deliveries: int,
    scale,
) -> dict[str, float]:
    """Per-layer calls, busy (self) time and extras over the spans that
    start inside one of ``windows``.  Spans of a gateway process must be
    :func:`shifted` first; its ``http.server`` spans pair with the
    benchmark's ``http.client`` spans by order.  ``scale(start, end)`` is
    the probe correction factor applied to every time."""
    by_id = {s[ID]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[PARENT] in by_id:
            child_time[s[PARENT]] = (
                child_time.get(s[PARENT], 0.0) + s[END] - s[START]
            )

    def self_time(s) -> float:
        own = s[END] - s[START] - child_time.get(s[ID], 0.0)
        return own * scale(s[START], s[END])

    def inside(s) -> bool:
        return any(a <= s[START] <= b for a, b in windows)

    out = {name: 0.0 for name in PER_LAYER_UNITS}
    hits = built = attempted = candidates = coalitions = sales = 0
    for s in spans:
        if not inside(s):
            continue
        name, attrs = s[NAME], s[ATTRS] or {}
        if name in LAYERS:
            out[f"{name}.busy_ms"] += 1e3 * self_time(s)
            parent = by_id.get(s[PARENT])
            if parent is None or parent[NAME] != name:
                out[f"{name}.calls"] += 1
        if name == "service.failed":
            out["service.writes_failed"] += 1
        elif name == "http.server" and attrs.get("status", 200) >= 400:
            out["http.errors"] += 1
        elif name == "service":
            wait = ("service.queue_wait_ms" if attrs.get("queue_wait")
                    else "service.lock_wait_ms")
            out[wait] += 1e3 * self_time(s)
        elif name == "integration.plan":
            hits += attrs.get("hit", 0)
            built += attrs.get("built", 0)
            attempted += attrs.get("attempted", 0)
        elif name == "relation.exec":
            out["relation.rows_out"] += attrs.get("rows", 0)
        elif name == "wtp.eval":
            candidates += attrs.get("candidates", 0)
        elif name == "market.revenue":
            coalitions += attrs.get("coalitions", 0)
            sales += attrs.get("sales", 0)

    def ordered(name):
        return sorted((s for s in spans if s[NAME] == name),
                      key=lambda s: s[START])

    for call, handle in zip(ordered("http.client"), ordered("http.server")):
        if inside(call):
            handled_s = (handle[END] - handle[START]) * scale(
                handle[START], handle[END]
            )
            out["http.wire.busy_ms"] += 1e3 * max(
                0.0, self_time(call) - handled_s
            )
    plans = out["integration.plan.calls"]
    out["integration.cache_hit_ratio"] = hits / plans if plans else 0.0
    out["integration.plans_built_ratio"] = (
        built / attempted if attempted else 0.0
    )
    out["wtp.candidates_per_delivery"] = (
        candidates / deliveries if deliveries else 0.0
    )
    out["market.coalitions_per_sale"] = coalitions / sales if sales else 0.0
    return out
