"""MarketService: single-writer delta queue + snapshot-consistent reads.

The contract: mutations drain through one background worker in submission
order (tickets resolve with the façade's results, or re-raise its typed
errors in the caller's thread); reads hold the read side of a
writer-preferring RW lock, so every result observes a complete graph
version, and a ``pinned()`` block answers all of its reads ``as_of`` the
same version even while writers churn.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import DataMarket
from repro.errors import DuplicateDatasetError, InvalidRequestError
from repro.platform import MarketService, ServiceError
from repro.relation import Column, Relation


def rel(name: str, offset: int = 0, n: int = 25) -> Relation:
    return Relation(
        name,
        [Column("key", "int"), Column(f"{name}_val", "float")],
        [(k, float(k + offset)) for k in range(n)],
    )


@pytest.fixture
def service():
    svc = MarketService(DataMarket())
    yield svc
    svc.close()


# ---------------------------------------------------------------------------
# tickets and the single writer
# ---------------------------------------------------------------------------

def test_register_ticket_resolves_with_facade_result(service):
    ticket = service.register_dataset(rel("base"), "acme", reserve_price=3.0)
    result = ticket.result(10)
    assert ticket.done
    assert result.dataset == "base"
    assert result.created is True
    assert result.reserve_price == 3.0
    assert service.market.datasets == ["base"]


def test_ticket_reraises_facade_errors_in_caller_thread(service):
    service.register_dataset(rel("dup"), "acme").result(10)
    bad = service.register_dataset(rel("dup"), "acme")
    with pytest.raises(DuplicateDatasetError):
        bad.result(10)
    assert service.stats()["writes_failed"] == 1
    # the worker survives a failed op and keeps draining
    assert service.register_dataset(rel("next"), "acme").result(10).created


def test_ticket_reraises_a_lone_surrogate_as_a_typed_error(service):
    bad = Relation("s", [Column("c", "str")], [("\ud800",), ("a",)])
    ticket = service.register_dataset(bad, "acme")
    with pytest.raises(InvalidRequestError, match="column 'c'"):
        ticket.result(10)
    assert service.market.datasets == []
    assert service.register_dataset(rel("next"), "acme").result(10).created


def test_ticket_reraises_a_lone_surrogate_name_as_a_typed_error(tmp_path):
    """A surrogate in a dataset name would reach the store only after the
    engines took the write; the ticket fails typed with nothing applied,
    and a restart from the store agrees."""
    path = str(tmp_path / "m.db")
    service = MarketService(DataMarket(store=path))
    try:
        ticket = service.register_dataset(rel("ds\ud800"), "acme")
        with pytest.raises(InvalidRequestError, match="dataset name"):
            ticket.result(10)
        assert service.market.datasets == []
        assert service.register_dataset(rel("next"), "acme").result(10)
    finally:
        service.close()
    assert DataMarket(store=path).datasets == ["next"]


def test_writes_apply_in_submission_order(service):
    tickets = [
        service.register_dataset(rel(f"ds{i}"), "acme") for i in range(6)
    ]
    service.flush()
    versions = [t.result(0).as_of for t in tickets]
    assert versions == sorted(versions)
    times = [
        service.market.metadata.snapshot(f"ds{i}").logical_time
        for i in range(6)
    ]
    assert times == sorted(times)


def test_flush_is_a_barrier(service):
    for i in range(5):
        service.register_dataset(rel(f"ds{i}"), "acme")
    service.flush()
    assert service.stats()["queue_depth"] == 0
    assert len(service.market.datasets) == 5


def test_submit_generic_mutation(service):
    service.register_dataset(rel("gone"), "acme").result(10)
    ticket = service.submit(
        lambda: service.market.retire_dataset("gone"), label="retire:gone"
    )
    assert ticket.result(10).dataset == "gone"
    assert service.market.datasets == []


# ---------------------------------------------------------------------------
# snapshot reads
# ---------------------------------------------------------------------------

def test_pinned_block_answers_one_version(service):
    service.register_dataset(rel("base"), "acme").result(10)
    with service.pinned() as view:
        s = view.search(["base_val"])
        p = view.plan(["base_val"])
    assert s.as_of == p.as_of == view.as_of


def test_pinned_readers_see_consistent_versions_under_churn(service):
    service.register_dataset(rel("base"), "acme").result(10)
    stop = threading.Event()
    errors: list[BaseException] = []

    def writer():
        i = 0
        try:
            while not stop.is_set() and i < 12:
                service.register_dataset(rel(f"w{i}"), "acme").result(15)
                i += 1
        except BaseException as exc:
            errors.append(exc)

    def reader():
        try:
            for _ in range(25):
                with service.pinned() as view:
                    s = view.search(["base_val"])
                    p = view.plan(["base_val"])
                    assert s.as_of == p.as_of == view.as_of
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    assert errors == []
    assert service.stats()["writes_failed"] == 0


def star_relations() -> list[Relation]:
    """A small star over int and bool keys, built afresh on every call so
    each market builds its own join caches."""
    return [
        Relation("orders", [Column("order_id", "int"),
                            Column("cust_id", "int"),
                            Column("prod_id", "int"),
                            Column("amount", "float")],
                 [(i, i % 30, i % 20, float(i)) for i in range(90)]),
        Relation("customers", [Column("cust_id", "int"),
                               Column("city", "str")],
                 [(c, f"city{c % 7}") for c in range(30)]),
        Relation("products", [Column("prod_id", "int"),
                              Column("price", "float"),
                              Column("promo", "bool")],
                 [(p, 1.5 * p, p % 3 == 0) for p in range(20)]),
        Relation("reviews", [Column("prod_id", "int"), Column("stars", "int")],
                 [(r % 20, r % 5) for r in range(50)]),
    ]


STAR_REQUESTS = (
    ("amount", "city"), ("amount", "price"), ("city", "price"),
    ("amount", "stars"), ("city", "stars", "promo"),
)


def star_service() -> MarketService:
    # no plan cache: every plan builds new trees, so every collect joins
    service = MarketService(DataMarket(plan_cache=False))
    for relation in star_relations():
        service.register_dataset(relation, "acme").result(10)
    return service


def answer(service: MarketService, attributes) -> tuple:
    result = service.plan(list(attributes))
    return tuple(
        (r.name, r.schema.names, r.rows, r.provenance)
        for r in result.collect()
    )


def test_concurrent_plans_and_collects_answer_as_one_thread_does():
    """8 reader threads plan and collect on one market while the GIL
    switches every 10 µs, and every answer equals the single-thread one.
    The planner runs one build at a time; reading each answer's
    provenance runs in the threads at once."""
    single = star_service()
    try:
        expected = {a: answer(single, a) for a in STAR_REQUESTS}
        joined = [
            len(m.plan.joins)
            for a in STAR_REQUESTS for m in single.plan(list(a)).mashups
        ]
    finally:
        single.close()
    assert max(joined) >= 2  # the requests do run joins

    service = star_service()
    errors: list[BaseException] = []
    wrong: list[tuple] = []
    deadline = time.monotonic() + 20.0
    start = threading.Barrier(8)

    def reader(k: int) -> None:
        try:
            start.wait(timeout=20)
            # the first round is the same request order in every thread
            for r in range(3):
                for attributes in STAR_REQUESTS[r * k % 5:] + (
                    STAR_REQUESTS[:r * k % 5]
                ):
                    if time.monotonic() > deadline:
                        return
                    if answer(service, attributes) != expected[attributes]:
                        wrong.append(attributes)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(k,), daemon=True)
        for k in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert wrong == []


def test_unpinned_reads_hold_the_read_lock_too(service):
    service.register_dataset(rel("base"), "acme").result(10)
    result = service.search(["base_val"])
    assert result.as_of == service.market.graph_version


# ---------------------------------------------------------------------------
# lifecycle and store-backed reads
# ---------------------------------------------------------------------------

def test_close_is_idempotent_and_rejects_new_writes(service):
    service.register_dataset(rel("base"), "acme").result(10)
    service.close()
    service.close()
    with pytest.raises(ServiceError):
        service.register_dataset(rel("late"), "acme")
    assert service.stats()["closed"] is True


def test_store_reads_require_a_store(service):
    with pytest.raises(ServiceError):
        service.list_datasets()
    with pytest.raises(ServiceError):
        service.search_text("anything")


def test_store_backed_service_lists_and_searches(tmp_path):
    market = DataMarket(store=str(tmp_path / "m.db"))
    with MarketService(market) as svc:
        for i in range(3):
            svc.register_dataset(rel(f"ds{i}"), "acme").result(10)
        page, cursor = svc.list_datasets(limit=2)
        assert [r["dataset"] for r in page] == ["ds0", "ds1"]
        page2, cursor2 = svc.list_datasets(limit=2, cursor=cursor)
        assert [r["dataset"] for r in page2] == ["ds2"]
        assert cursor2 is None
        if market.store.has_fts:
            assert {h["dataset"] for h in svc.search_text("ds1")} == {"ds1"}
