"""The three closed-loop workloads.

Every workload is one client issuing one op at a time (``ingest`` overlaps
its reads with its own pending write ticket), over an op sequence that is
a pure function of the seed.  A run (``run.Phase``) is:

1. set up ``SETUP_REPEATS`` times (each from empty; the last one stays),
2. run ``WARMUP_CYCLES`` untimed cycles,
3. run the measured cycles, probing the CPU at every quiescent point,
4. check the outputs.

Ops are timed with ``perf_counter`` around the public call only; input
generation and probes fall between ops.  Every reported time is corrected
by :mod:`probe`.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus
from gateway import GatewayProcess
from probe import ProbeClock

WARMUP_CYCLES = 10
SETUP_REPEATS = 5
#: measured cycles per second of ``--seconds`` (fixed, so that op counts
#: and the store's final bytes repeat exactly for one seed)
CYCLES_PER_S = {"trade": 14.0, "ingest": 14.0, "http": 10.0}
MIN_CYCLES = 100
TICKET_TIMEOUT_S = 60.0


def cycles_for(workload: str, seconds: int) -> int:
    return max(MIN_CYCLES, round(seconds * CYCLES_PER_S[workload]))


@dataclass
class OpLog:
    """Timed ops of one phase; ``cycles`` holds each cycle's timed
    intervals (its ops, or one submit-to-result span in ``ingest``)."""

    ops: list[tuple[str, float, float]] = field(default_factory=list)
    cycles: list[list[tuple[float, float]]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    #: the traced pass's span recorder, which tags spans with op ids
    recorder: object = None

    def begin(self) -> None:
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.begin_op()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, kind: str, call, *args, in_cycle: bool = True, **kwargs):
        """Run one client op; a raised exception is a failed op."""
        self.begin()
        start = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        except Exception as exc:  # counted and reported, never hidden
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {exc!r}")
            return None
        end = time.perf_counter()
        self.ops.append((kind, start, end))
        if in_cycle and self.cycles:
            self.cycles[-1].append((start, end))
        return result


def _wtp(op):
    from repro.wtp import PriceCurve, QueryCompletenessTask, WTPFunction

    _, buyer, attrs, wanted, threshold, price = op
    return WTPFunction(
        buyer=buyer,
        task=QueryCompletenessTask(
            wanted_keys=wanted, attributes=attrs, key=attrs[0]
        ),
        curve=PriceCurve.single(threshold, price),
    )


def json_bytes(specs) -> int:
    """JSON size of the live datasets' rows (the store's input)."""
    return sum(
        len(json.dumps([list(r) for r in corpus.build_rows(s)]))
        for s in specs
    )


def store_bytes(path: Path) -> dict[str, int]:
    """Sizes of a checkpointed store (no connection open, WAL folded in).

    ``used`` excludes the free pages that retired datasets leave behind:
    how far the file has grown past them depends on the order of past
    deltas, not on how compactly the store holds its live state.  The
    counts come from the SQLite file header (page size at byte 16, page
    count at 28, free-list length at 36)."""
    if Path(f"{path}-wal").exists():
        raise RuntimeError(f"store {path} was not checkpointed")
    header = path.read_bytes()[:100]
    page_size = int.from_bytes(header[16:18], "big")
    page_size = 65536 if page_size == 1 else page_size
    pages = int.from_bytes(header[28:32], "big")
    free = int.from_bytes(header[36:40], "big")
    return {"file": path.stat().st_size, "used": (pages - free) * page_size}


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _trace_subscribers(recorder, market) -> None:
    if recorder is not None:
        import spans

        spans.trace_subscribers(recorder, market)


def cold_start_check(market, path: Path) -> list[str]:
    """A market cold-started from ``path`` must equal the live one."""
    from repro import DataMarket

    replayed = DataMarket(store=str(path))
    failures = []
    if replayed.graph_version != market.graph_version:
        failures.append(
            f"cold start graph_version {replayed.graph_version} != "
            f"live {market.graph_version}"
        )
    if replayed.datasets != market.datasets:
        failures.append("cold start datasets differ from the live market")
    if (replayed.index.component_fingerprints()
            != market.index.component_fingerprints()):
        failures.append("cold start component fingerprints differ")
    return failures


# ---------------------------------------------------------------------------
# trade loop (in-process façade or over HTTP)
# ---------------------------------------------------------------------------

class TradeLoop:
    """The buyer-heavy paper loop: 1 seller update, 4 searches, 2 plans
    materialised, 3 buyer WTPs, 1 round per cycle."""

    name = "trade"
    domains = corpus.DOMAIN_ORDER
    browse = False

    def __init__(self, seed: int, recorder=None):
        self.seed = seed
        self.recorder = recorder
        self.live = {s.name: s for s in corpus.trade_tables(self.domains)}
        self.failures: list[str] = []

    def cycles(self, n: int) -> list[tuple]:
        return corpus.trade_cycles(self.seed, n, self.domains, self.browse)

    # -- backend hooks (in-process) ----------------------------------------
    def setup(self, work: Path, clock: ProbeClock, log: OpLog) -> None:
        from repro import DataMarket

        self.path = work / "market.db"
        self.market = log.timed("setup", DataMarket, store=str(self.path))
        _trace_subscribers(self.recorder, self.market)
        clock.maybe_probe()
        for spec in self.live.values():
            relation = corpus.build_relation(spec)
            log.timed("setup", self.market.register_dataset, relation,
                      seller=corpus.seller_of(spec.domain),
                      reserve_price=1.0)
            clock.maybe_probe()
        for buyer in corpus.BUYERS:
            log.timed("setup", self.market.register_participant, buyer,
                      funding=1e9)

    def _update(self, log, spec, relation):
        return log.timed("write", self.market.update_dataset, relation,
                         seller=corpus.seller_of(spec.domain),
                         reserve_price=1.0)

    def _search(self, log, attrs):
        return log.timed("search", self.market.search, attrs)

    def _plan(self, log, attrs):
        def plan():
            result = self.market.plan(attrs, key=attrs[0])
            return result, self.market.materialize(result)

        out = log.timed("plan", plan)
        return None if out is None else out[0].cached

    def _wtp(self, log, wtp):
        log.timed("wtp", self.market.submit_wtp, wtp)

    def _round(self, log):
        report = log.timed("round", self.market.run_round)
        if report is None:
            return 0
        for delivery in report.deliveries:
            if not delivery.split.conserves():
                self.failures.append(
                    f"delivery {delivery.transaction_id} split does not "
                    f"conserve its price"
                )
        return len(report.deliveries)

    # -- the cycle -----------------------------------------------------------
    def run_cycle(self, ops, clock: ProbeClock, log: OpLog) -> None:
        log.cycles.append([])
        for op in ops:
            kind = op[0]
            if kind == "update":
                spec = op[1]
                relation = corpus.build_relation(spec)
                if self._update(log, spec, relation) is not None:
                    self.live[spec.name] = spec
            elif kind == "search":
                self._search(log, op[1])
            elif kind == "plan":
                cached = self._plan(log, op[1])
                if cached is not None:
                    log.count("plan_cache_hits" if cached
                              else "plan_cache_misses")
            elif kind == "wtp":
                self._wtp(log, _wtp(op))
            elif kind == "round":
                log.count("deliveries", self._round(log))
            elif kind == "browse":
                self._browse(log, op)
            clock.maybe_probe()

    def finish(self) -> dict:
        return {"peak_rss_mb": own_peak_rss_mb(),
                "store_bytes": store_bytes(self.path)}

    def check(self) -> list[str]:
        failures = list(self.failures)
        if not self.market.ledger.conservation_check():
            failures.append("ledger conservation check failed")
        if not self.market.audit.verify():
            failures.append("audit log verification failed")
        failures += cold_start_check(self.market, self.path)
        return failures

    def close(self) -> None:
        self.market = None


# ---------------------------------------------------------------------------
# http: the trade loop over the wire, plus a browse per cycle
# ---------------------------------------------------------------------------

class HttpLoop(TradeLoop):
    name = "http"
    domains = corpus.DOMAIN_ORDER[:2]
    browse = True

    def __init__(self, seed: int, root: Path, recorder=None,
                 spans_path: Path | None = None):
        super().__init__(seed, recorder)
        self.root = root
        self.spans_path = spans_path
        self.gateway: GatewayProcess | None = None
        self.tokens = {f"tok-{p}": p for p in (
            *(corpus.seller_of(d) for d in self.domains), *corpus.BUYERS
        )}

    def _client(self, principal: str | None):
        from repro.platform import MarketClient

        token = None if principal is None else f"tok-{principal}"
        return MarketClient(self.url, token=token, timeout=120.0)

    def setup(self, work: Path, clock: ProbeClock, log: OpLog) -> None:
        self.close()
        self.path = work / "market.db"
        self.gateway = GatewayProcess(
            self.root, self.path, self.tokens, self.spans_path
        )

        def launch():
            self.url = self.gateway.start()
            return self._client(None).healthz()

        clock.probe()
        clock.probe()
        log.timed("setup", launch)
        clock.probe()
        clock.probe()
        self.clients = {p: self._client(p) for p in self.tokens.values()}
        self.anon = self._client(None)
        for spec in self.live.values():
            relation = corpus.build_relation(spec)
            log.timed("setup", self.clients[corpus.seller_of(spec.domain)]
                      .register_dataset, relation, reserve_price=1.0)
            clock.maybe_probe()
        for buyer in corpus.BUYERS:
            log.timed("setup", self.clients[buyer].register_participant,
                      buyer, funding=1e9)

    def _update(self, log, spec, relation):
        return log.timed("write", self.clients[corpus.seller_of(spec.domain)]
                         .update_dataset, relation, reserve_price=1.0)

    def _search(self, log, attrs):
        return log.timed("search", self.anon.search, attrs)

    def _plan(self, log, attrs):
        result = log.timed("plan", self.anon.plan, attrs, key=attrs[0],
                           collect=True)
        return None if result is None else result.cached

    def _wtp(self, log, wtp):
        log.timed("wtp", self.clients[wtp.buyer].submit_wtp, wtp)

    def _round(self, log):
        summary = log.timed("round", self.clients[corpus.BUYERS[0]].run_round)
        if summary is None:
            return 0
        for d in summary.deliveries:
            total = sum(share for _, share in d.seller_shares) + d.arbiter_fee
            if abs(total - d.price_paid) > 1e-6:
                self.failures.append(
                    f"delivery {d.transaction_id} split does not conserve"
                )
        return len(summary.deliveries)

    def _browse(self, log, op):
        _, word, sort = op

        def browse():
            self.anon.search_text(word, limit=10)
            return self.anon.list_datasets(limit=20, sort=sort)

        log.timed("browse", browse)

    def finish(self) -> dict:
        out = {"peak_rss_mb": self.gateway.peak_rss_mb(),
               "gateway_cpu_s": self.gateway.cpu_s()}
        self.wire_answers = self._final_batch()
        self.gateway.stop()
        out["store_bytes"] = store_bytes(self.path)
        return out

    def _final_batch(self) -> list:
        """Untimed searches and plans over the wire, compared later with
        the in-process façade on the cold-started final store."""
        answers = []
        for domain in self.domains:
            for attrs in corpus.attribute_sets(domain, self.seed):
                search = self.anon.search(attrs)
                plan = self.anon.plan(attrs, key=attrs[0], collect=True)
                answers.append((attrs, search, plan))
        return answers

    def check(self) -> list[str]:
        from repro import DataMarket

        failures = list(self.failures)
        market = DataMarket(store=str(self.path))
        for attrs, search, plan in self.wire_answers:
            if market.search(attrs) != search:
                failures.append(f"search {attrs} over HTTP differs")
            local = market.plan(attrs, key=attrs[0])
            relations = local.collect()
            wire = [(v.datasets, v.matched, v.missing, v.relation.schema,
                     v.relation.rows) for v in plan.mashups]
            here = [(tuple(m.plan.sources()), tuple(sorted(m.matched.items())),
                     m.missing, r.schema, r.rows)
                    for m, r in zip(local.mashups, relations)]
            if wire != here or plan.as_of != local.as_of:
                failures.append(f"plan {attrs} over HTTP differs")
        return failures

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None


# ---------------------------------------------------------------------------
# ingest: writes through the service queue while reads share the lock
# ---------------------------------------------------------------------------

class IngestLoop:
    """One write ticket per cycle (register, update or retire), with 3
    attribute searches and 1 browse issued while the writer applies it.

    The reads share the interpreter with the writer thread, which takes
    over after the fixed 5 ms switch interval: a read that runs longer on
    a slower host is preempted more often, so read latency here grows
    faster than the host slows and keeps a spread the probe correction
    cannot remove (about 12% for ``search_p50_ms`` across ten seeds)."""

    name = "ingest"

    def __init__(self, seed: int, root: Path, base: Path, recorder=None):
        self.seed = seed
        self.root = root
        self.base = base
        self.recorder = recorder
        self.live = {s.name: s for s in corpus.ingest_base(seed)}
        self.failures: list[str] = []
        self.as_of = -1
        self.service = None

    @staticmethod
    def build_base(root: Path, seed: int, path: Path) -> None:
        """Write the base store in a separate process (untimed)."""
        subprocess.run(
            [sys.executable, str(root / "marketbench" / "build_store.py"),
             "--seed", str(seed), "--store", str(path)],
            cwd=root, check=True, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, timeout=170,
        )

    def cycles(self, n: int) -> list[tuple]:
        return corpus.ingest_cycles(self.seed, n)

    def setup(self, work: Path, clock: ProbeClock, log: OpLog) -> None:
        from repro import DataMarket
        from repro.platform import MarketService

        self.close()
        self.path = work / "market.db"
        shutil.copyfile(self.base, self.path)
        clock.probe()
        clock.probe()
        market = log.timed("setup", DataMarket, store=str(self.path))
        clock.probe()
        clock.probe()
        _trace_subscribers(self.recorder, market)
        self.service = MarketService(market)

    def _seen(self, as_of: int) -> None:
        if as_of < self.as_of:
            self.failures.append(f"as_of went backwards: {as_of} < {self.as_of}")
        self.as_of = max(self.as_of, as_of)

    def run_cycle(self, ops, clock: ProbeClock, log: OpLog) -> None:
        svc = self.service
        write, *reads = ops
        kind, target = write
        if kind == "retire":
            submit = (svc.retire_dataset, target)
        else:
            relation = corpus.build_relation(target)
            call = svc.register_dataset if kind == "register" else \
                svc.update_dataset
            submit = (call, relation, corpus.seller_of(target.domain))
        clock.maybe_probe()
        log.begin()
        start = time.perf_counter()
        ticket = submit[0](*submit[1:])
        for read in reads:
            if read[0] == "search":
                result = log.timed("search", svc.search, read[1],
                                   in_cycle=False)
                if result is not None:
                    self._seen(result.as_of)
            else:
                _, word, sort = read

                def browse():
                    svc.search_text(word, limit=10)
                    return svc.list_datasets(limit=20, sort=sort)

                log.timed("browse", browse, in_cycle=False)
        try:
            result = ticket.result(TICKET_TIMEOUT_S)
        except Exception as exc:
            log.failed += 1
            log.errors.append(f"{kind}: {exc!r}")
        else:
            end = time.perf_counter()
            log.ops.append(("write", start, end))
            log.cycles.append([(start, end)])
            self._seen(result.as_of)
            if kind == "retire":
                self.live.pop(target)
            else:
                self.live[target.name] = target
        clock.maybe_probe()

    def finish(self) -> dict:
        self.service.close()
        return {"peak_rss_mb": own_peak_rss_mb(),
                "store_bytes": store_bytes(self.path)}

    def check(self) -> list[str]:
        stats = self.service.stats()
        failures = list(self.failures)
        if stats["queue_depth"] or stats["writes_failed"]:
            failures.append(f"unresolved or failed tickets: {stats}")
        return failures + cold_start_check(self.service.market, self.path)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
