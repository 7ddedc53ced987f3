"""Snapshot-consistent concurrent service over a :class:`DataMarket`.

The paper's DMMS is "fully-incremental, always-on" — many sellers push
deltas while many buyers search and plan.  The façade itself is
single-threaded by design (every mutation flows through one choke point);
this module adds the concurrency discipline around it:

* **One writer.**  All mutations (`register_dataset` / `update_dataset` /
  `retire_dataset` / arbitrary :meth:`MarketService.submit` closures) are
  enqueued as :class:`WriteTicket`\\ s and drained by a single background
  worker thread, each applied under the write side of a readers-writer
  lock.  Callers get the ticket back immediately and may block on
  :meth:`WriteTicket.result` when they need the outcome.

* **Snapshot reads.**  `search` / `plan` take the read side of the lock, so
  a read always observes a *complete* graph version: an in-flight delta is
  invisible until its transaction (engine mutation + durable-store commit)
  finishes.  :meth:`MarketService.pinned` holds the read lock across a
  whole block, guaranteeing every read inside it answers ``as_of`` the same
  version — the classic "no torn multi-read" contract.  The lock is
  writer-preferring, so a steady reader stream cannot starve the delta
  queue.

Result materialization is safe *outside* the lock: plan results carry
immutable expression trees over immutable relations, so collecting them
after release races with nothing.

With a store-backed market the service also exposes the durable reads —
keyset-cursor listing and FTS dataset search — straight from SQLite.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from typing import Callable

from ..errors import DatasetOwnershipError, MarketError
from ..market.licensing import ContextualIntegrityPolicy, License
from ..relation import Relation

_STOP = object()


class ServiceError(MarketError):
    """A service-layer operation failed (closed service, pending ticket)."""


class _RWLock:
    """Writer-preferring readers-writer lock (Condition-based).

    Readers proceed concurrently; a waiting writer blocks new readers, so
    the single delta worker drains even under a saturating read load."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class WriteTicket:
    """Receipt for one enqueued mutation.

    The worker resolves it exactly once: :meth:`result` blocks until then
    and either returns the operation's return value or re-raises the
    exception the operation died with (in the caller's thread)."""

    def __init__(self, label: str):
        self.label = label
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        if not self._event.wait(timeout):
            raise ServiceError(
                f"write {self.label!r} still pending after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def _resolve(self, result=None, error: BaseException | None = None):
        self._result = result
        self._error = error
        self._event.set()


class PinnedView:
    """Reads pinned to one graph version (inside ``service.pinned()``).

    Every ``search``/``plan`` through this view answers against the same
    snapshot; the stamped ``as_of`` is checked against the pinned version
    as an internal invariant."""

    def __init__(self, market, as_of: int):
        self._market = market
        self.as_of = as_of

    def _read(self, method, *args, **kwargs):
        result = method(*args, **kwargs)
        if result.as_of != self.as_of:
            raise ServiceError(
                f"torn read: pinned version {self.as_of} but result "
                f"answered as_of {result.as_of}"
            )
        return result

    def search(self, attributes, **kwargs):
        return self._read(self._market.search, attributes, **kwargs)

    def plan(self, attributes, **kwargs):
        return self._read(self._market.plan, attributes, **kwargs)


class MarketService:
    """Concurrent façade over one :class:`~repro.platform.DataMarket`."""

    def __init__(self, market):
        self.market = market
        self._lock = _RWLock()
        self._queue: queue.Queue = queue.Queue()
        self._applied = 0
        self._failed = 0
        self._reads = 0
        self._busy = False
        self._counter_lock = threading.Lock()
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain, name="market-writer", daemon=True
        )
        self._worker.start()

    # -- the single writer -------------------------------------------------
    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            ticket, op = item
            self._busy = True
            try:
                with self._lock.write():
                    result = op()
            except BaseException as exc:  # resolved into the ticket
                with self._counter_lock:
                    self._failed += 1
                ticket._resolve(error=exc)
            else:
                with self._counter_lock:
                    self._applied += 1
                ticket._resolve(result=result)
            finally:
                self._busy = False

    def submit(self, op: Callable[[], object], label: str = "op") -> WriteTicket:
        """Enqueue an arbitrary mutation ``op()`` (applied by the worker
        under the write lock, in submission order)."""
        if self._closed:
            raise ServiceError("service is closed")
        ticket = WriteTicket(label)
        self._queue.put((ticket, op))
        return ticket

    # -- writer API (all enqueue + return a ticket) ------------------------
    def _ticket(self, label: str, method, *args, **kwargs) -> WriteTicket:
        """Enqueue the façade call ``method(*args, **kwargs)`` as one write."""
        return self.submit(lambda: method(*args, **kwargs), label=label)

    def register_dataset(
        self,
        relation: Relation,
        seller: str,
        *,
        reserve_price: float = 0.0,
        license: License | None = None,
        policy: ContextualIntegrityPolicy | None = None,
    ) -> WriteTicket:
        return self._ticket(
            f"register:{relation.name}", self.market.register_dataset,
            relation, seller, reserve_price=reserve_price, license=license,
            policy=policy,
        )

    def update_dataset(
        self,
        relation: Relation,
        seller: str,
        *,
        reserve_price: float = 0.0,
        license: License | None = None,
        policy: ContextualIntegrityPolicy | None = None,
    ) -> WriteTicket:
        return self._ticket(
            f"update:{relation.name}", self.market.update_dataset,
            relation, seller, reserve_price=reserve_price, license=license,
            policy=policy,
        )

    def retire_dataset(self, dataset: str) -> WriteTicket:
        return self._ticket(
            f"retire:{dataset}", self.market.retire_dataset, dataset
        )

    def _retire_as(self, dataset: str, seller: str) -> WriteTicket:
        """:meth:`retire_dataset` on behalf of an authenticated seller (the
        gateway's ``DELETE``): ownership is checked inside the write, so a
        re-registration of the name by someone else cannot slip between
        the check and the retire."""
        def retire():
            licenses = self.market.arbiter.licenses
            if dataset in licenses:
                owner = licenses.owner_of(dataset)
                if owner != seller:
                    raise DatasetOwnershipError(
                        f"dataset {dataset!r} belongs to {owner!r}, "
                        f"not {seller!r}"
                    )
            return self.market.retire_dataset(dataset)

        return self._ticket(f"retire:{dataset}", retire)

    def register_participant(
        self, name: str, funding: float = 0.0
    ) -> WriteTicket:
        return self._ticket(
            f"participant:{name}", self.market.register_participant,
            name, funding=funding,
        )

    def submit_wtp(self, wtp) -> WriteTicket:
        return self._ticket(f"wtp:{wtp.buyer}", self.market.submit_wtp, wtp)

    def run_round(self, context: str = "*") -> WriteTicket:
        """Clear the market (a mutation: data moves, money moves)."""
        return self._ticket("round", self.market.run_round, context=context)

    # -- snapshot reads ----------------------------------------------------
    def _count_read(self) -> None:
        with self._counter_lock:
            self._reads += 1

    def _read(self, method, *args, **kwargs):
        """The façade read ``method(*args, **kwargs)`` under the read lock."""
        self._count_read()
        with self._lock.read():
            return method(*args, **kwargs)

    def search(self, attributes, **kwargs):
        return self._read(self.market.search, attributes, **kwargs)

    def plan(self, attributes, **kwargs):
        return self._read(self.market.plan, attributes, **kwargs)

    @contextmanager
    def pinned(self):
        """Pin a snapshot for a block: every read inside answers ``as_of``
        the same graph version (writers wait until the block exits).
        Materialize results *after* the block — trees are immutable, so
        collection outside the lock is race-free by construction."""
        self._count_read()
        with self._lock.read():
            yield PinnedView(self.market, self.market.graph_version)

    # -- durable reads (store-backed markets only) -------------------------
    def _store(self):
        store = self.market.store
        if store is None:
            raise ServiceError(
                "this market has no durable store; construct it with "
                "DataMarket(store=...)"
            )
        return store

    def list_datasets(
        self,
        limit: int = 50,
        cursor: str | None = None,
        sort: str = "registered",
    ):
        """Keyset-cursor dataset listing straight from the store (``sort``:
        see :data:`repro.platform.store.LIST_SORT_KEYS`)."""
        self._count_read()
        return self._store().list_datasets(
            limit=limit, cursor=cursor, sort=sort
        )

    def search_text(self, query: str, limit: int = 10):
        """Full-text dataset search straight from the store."""
        self._count_read()
        return self._store().search_datasets(query, limit=limit)

    # -- lifecycle ---------------------------------------------------------
    def flush(self, timeout: float | None = 60.0) -> None:
        """Barrier: block until every previously enqueued write applied."""
        self.submit(lambda: None, label="flush").result(timeout)

    def stats(self) -> dict:
        """Observability snapshot (the gateway's ``GET /stats`` source):
        ticket-queue depth, whether the writer is applying a mutation right
        now, the committed graph version, and cumulative read/write
        counters.  Counters are monotonic over the service's lifetime."""
        with self._counter_lock:
            applied, failed, reads = self._applied, self._failed, self._reads
        return {
            "queue_depth": self._queue.qsize(),
            "writer_busy": self._busy,
            "graph_version": self.market.graph_version,
            "reads": reads,
            "writes_applied": applied,
            "writes_failed": failed,
            "closed": self._closed,
        }

    def close(self, timeout: float | None = 60.0) -> None:
        """Drain the queue and stop the worker: every write accepted
        before the call is applied (and, store-backed, committed) when it
        returns.  Idempotent."""
        if self._closed:
            return
        self.flush(timeout)
        self._closed = True
        self._queue.put(_STOP)
        self._worker.join(timeout)

    def __enter__(self) -> "MarketService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
