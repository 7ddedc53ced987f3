"""Tests for ledger, audit log, lineage, licensing, negotiation, services,
insurance — the DMMS building blocks."""

import numpy as np
import pytest

from repro.errors import (
    AuditError,
    InsufficientFundsError,
    LedgerError,
    LicensingError,
    NegotiationError,
)
from repro.integration import AffineMap, TransformHint
from repro.market import (
    AuditLog,
    ContextualIntegrityPolicy,
    InsuranceDesk,
    InsuranceError,
    Ledger,
    License,
    LicenseKind,
    LicenseRegistry,
    LineageStore,
    NegotiationManager,
    RecommendationService,
    RequestStatus,
)
from repro.relation import Relation


# -- ledger --------------------------------------------------------------------


def test_ledger_open_mint_transfer():
    ledger = Ledger()
    ledger.open_account("alice")
    ledger.open_account("bob")
    ledger.mint("bob", 5.0)
    ledger.mint("alice", 10.0)
    ledger.transfer("alice", "bob", 4.0, memo="test")
    assert ledger.balance("alice") == 6.0
    assert ledger.balance("bob") == 9.0
    assert len(ledger.history("bob")) == 2  # the mint and the transfer
    assert ledger.history()[-1].memo == "test"
    assert ledger.conservation_check()


def test_ledger_overdraft_refused():
    ledger = Ledger()
    ledger.mint("a", 1.0)
    ledger.open_account("b")
    with pytest.raises(InsufficientFundsError):
        ledger.transfer("a", "b", 2.0)


def test_ledger_validation():
    ledger = Ledger()
    ledger.open_account("a")
    with pytest.raises(LedgerError):
        ledger.open_account("a")
    with pytest.raises(LedgerError):
        ledger.mint("c", -1.0)
    with pytest.raises(LedgerError):
        ledger.balance("ghost")
    with pytest.raises(LedgerError):
        ledger.transfer("a", "ghost", 1.0)
    with pytest.raises(LedgerError):
        ledger.mint("a", -1.0)
    with pytest.raises(LedgerError):
        ledger.transfer("a", "a", -1.0)


def test_ledger_conservation():
    ledger = Ledger()
    ledger.mint("a", 100.0)
    ledger.open_account("b")
    ledger.transfer("a", "b", 30.0)
    assert ledger.conservation_check()
    assert ledger.total_minted() == 100.0


def _billion_ledger(seed: int, n_transfers: int = 5000) -> Ledger:
    """Three accounts funded with 1e9 each, then valid random transfers:
    every movement rounds at the ~4.8e-7 ulp of 3e9-sized balances."""
    rng = np.random.default_rng(seed)
    ledger = Ledger()
    names = ["a", "b", "c"]
    for name in names:
        ledger.mint(name, 1e9)
    for _ in range(n_transfers):
        src, dst = rng.choice(3, size=2, replace=False)
        amount = float(rng.uniform(0, ledger.balance(names[src])))
        ledger.transfer(names[src], names[dst], amount)
    return ledger


@pytest.mark.parametrize("seed", range(5))
def test_ledger_conservation_holds_at_large_balances(seed):
    assert _billion_ledger(seed).conservation_check()


def test_ledger_conservation_catches_a_cent_leak_at_large_balances():
    ledger = _billion_ledger(0, n_transfers=50)
    assert ledger.conservation_check()
    ledger._balances["a"] += 0.01
    assert not ledger.conservation_check()


# -- audit log --------------------------------------------------------------------


def test_audit_chain_appends_and_verifies():
    log = AuditLog()
    log.append("event_a", {"x": 1})
    log.append("event_b", {"y": [1, 2]})
    assert log.verify()
    assert len(log) == 2
    assert log.records("event_a")[0].payload == {"x": 1}


def test_audit_detects_tampering():
    log = AuditLog()
    log.append("e", {"amount": 10})
    log.append("e", {"amount": 20})
    # tamper with a payload behind the log's back
    log._records[0].payload["amount"] = 9999
    with pytest.raises(AuditError, match="tampered"):
        log.verify()


def test_audit_detects_reordering():
    log = AuditLog()
    log.append("e", {"n": 1})
    log.append("e", {"n": 2})
    log._records.reverse()
    with pytest.raises(AuditError):
        log.verify()


# -- lineage ----------------------------------------------------------------------


def test_lineage_records_and_queries():
    store = LineageStore()
    store.record_sale(1, "buyer1", 100.0, {"ds_a": 60.0, "ds_b": 40.0},
                      ["ds_a", "ds_b"])
    store.record_sale(2, "buyer2", 50.0, {"ds_a": 50.0}, ["ds_a"])
    assert store.revenue_of("ds_a") == 110.0
    assert store.revenue_of("ds_b") == 40.0
    assert store.revenue_of("ghost") == 0.0
    assert len(store.sales_of("ds_a")) == 2
    assert store.mashups_containing("ds_b") == [("ds_a", "ds_b")]
    assert store.datasets() == ["ds_a", "ds_b"]


# -- licensing ----------------------------------------------------------------------


def test_license_registry_open_license():
    reg = LicenseRegistry()
    reg.register("ds", owner="alice")
    reg.check_sale("ds", "b1")
    reg.record_sale("ds", "b1")
    reg.check_sale("ds", "b2")  # open license: unlimited buyers
    assert reg.owner_of("ds") == "alice"
    assert reg.licensees_of("ds") == ["b1"]


def test_exclusive_license_blocks_second_buyer():
    reg = LicenseRegistry()
    reg.register(
        "ds", owner="a",
        license=License(LicenseKind.EXCLUSIVE, exclusivity_tax_rate=0.5),
    )
    reg.check_sale("ds", "b1")
    reg.record_sale("ds", "b1")
    reg.check_sale("ds", "b1")  # existing holder may re-buy
    with pytest.raises(LicensingError, match="exclusively"):
        reg.check_sale("ds", "b2")
    assert reg.license_of("ds").price_with_tax(100.0) == 150.0


def test_transfer_license_moves_ownership():
    reg = LicenseRegistry()
    reg.register("ds", owner="a", license=License(LicenseKind.TRANSFER))
    reg.check_sale("ds", "b1")
    reg.record_sale("ds", "b1")
    assert reg.owner_of("ds") == "b1"
    with pytest.raises(LicensingError, match="transferred"):
        reg.check_sale("ds", "b2")


def test_non_resale_license():
    reg = LicenseRegistry()
    reg.register("ds", owner="a", license=License(LicenseKind.NON_RESALE))
    reg.record_sale("ds", "b1")
    with pytest.raises(LicensingError, match="forbids resale"):
        reg.check_resale("ds", "b1")
    with pytest.raises(LicensingError, match="no license"):
        reg.check_resale("ds", "stranger")
    open_reg = LicenseRegistry()
    open_reg.register("ds", owner="a")
    open_reg.record_sale("ds", "b1")
    open_reg.check_resale("ds", "b1")  # open license resale OK


def test_contextual_integrity_blocks_context():
    reg = LicenseRegistry()
    reg.register(
        "ds", owner="a",
        policy=ContextualIntegrityPolicy.of("research", "healthcare"),
    )
    reg.check_sale("ds", "b1", context="research")
    with pytest.raises(LicensingError, match="contextual-integrity"):
        reg.check_sale("ds", "b1", context="advertising")


def test_license_validation():
    with pytest.raises(LicensingError):
        License(exclusivity_tax_rate=-0.5)
    with pytest.raises(LicensingError):
        License(max_licensees=0)
    reg = LicenseRegistry()
    reg.register("ds", owner="a")
    with pytest.raises(LicensingError):
        reg.register("ds", owner="b")
    with pytest.raises(LicensingError):
        reg.check_sale("ghost", "b")


# -- negotiation -----------------------------------------------------------------


def test_negotiation_publish_and_respond_hint():
    manager = NegotiationManager(base_bounty=2.0)
    requests = manager.publish_gaps({"attr_e": 3, "attr_f": 1})
    assert len(requests) == 2
    by_attr = {r.attribute: r for r in requests}
    assert by_attr["attr_e"].bounty == 6.0
    hint = TransformHint("ds", "col", "attr_e", AffineMap(1.0, 0.0))
    fulfilled = manager.respond_with_hint(
        by_attr["attr_e"].request_id, "seller9", hint
    )
    assert fulfilled.status is RequestStatus.FULFILLED
    assert fulfilled.fulfilled_by == "seller9"
    assert len(manager.open_requests()) == 1


def test_negotiation_respond_with_dataset():
    manager = NegotiationManager()
    (request,) = manager.publish_gaps({"e": 1})
    good = Relation("new_ds", [("entity_id", "int"), ("e", "float")],
                    [(1, 2.0)])
    manager.respond_with_dataset(request.request_id, "s3", good)
    assert manager.request(request.request_id).status is RequestStatus.FULFILLED


def test_negotiation_validation():
    manager = NegotiationManager()
    (request,) = manager.publish_gaps({"e": 1})
    bad = Relation("bad", [("x", "int")], [(1,)])
    with pytest.raises(NegotiationError, match="does not contain"):
        manager.respond_with_dataset(request.request_id, "s", bad)
    wrong_hint = TransformHint("ds", "col", "other", AffineMap(1.0, 0.0))
    with pytest.raises(NegotiationError, match="targets"):
        manager.respond_with_hint(request.request_id, "s", wrong_hint)
    manager.withdraw(request.request_id)
    with pytest.raises(NegotiationError, match="not open"):
        manager.withdraw(request.request_id)
    with pytest.raises(NegotiationError):
        manager.request(99)
    with pytest.raises(NegotiationError):
        NegotiationManager(base_bounty=-1.0)


def test_negotiation_republish_raises_bounty():
    manager = NegotiationManager(base_bounty=1.0)
    manager.publish_gaps({"e": 1})
    (request,) = manager.publish_gaps({"e": 5})
    assert request.bounty == 5.0
    assert len(manager.open_requests()) == 1


# -- recommendations ----------------------------------------------------------------


def test_recommendations_from_co_purchases():
    svc = RecommendationService()
    svc.record_purchase("b1", ["ds_a", "ds_b"])
    svc.record_purchase("b2", ["ds_a", "ds_c"])
    recs = svc.recommend("b1")
    assert recs and recs[0].dataset == "ds_c"
    assert recs[0].leaks_information
    assert recs[0].evidence_buyers == ("b2",)
    assert svc.recommend("stranger") == []
    assert svc.purchases_of("b1") == {"ds_a", "ds_b"}


# -- insurance ------------------------------------------------------------------------


def test_insurance_underwrite_collect_claim():
    ledger = Ledger()
    ledger.mint("seller", 100.0)
    desk = InsuranceDesk(ledger)
    policy = desk.underwrite(
        "ds", "seller", liability=50.0, breach_probability=0.1, loading=0.2
    )
    assert policy.premium == pytest.approx(0.1 * 50 * 1.2)
    desk.collect_premium(policy.policy_id)
    assert desk.solvency() == pytest.approx(policy.premium)
    ledger.mint(desk.INSURER_ACCOUNT, 100.0)  # capitalize the insurer
    payout = desk.file_claim(policy.policy_id)
    assert payout == 50.0
    assert not desk.policy(policy.policy_id).active
    with pytest.raises(InsuranceError):
        desk.collect_premium(policy.policy_id)


def test_insurance_validation():
    desk = InsuranceDesk(Ledger())
    with pytest.raises(InsuranceError):
        desk.underwrite("ds", "s", liability=0.0, breach_probability=0.1)
    with pytest.raises(InsuranceError):
        desk.underwrite("ds", "s", liability=1.0, breach_probability=1.5)
    with pytest.raises(InsuranceError):
        desk.underwrite("ds", "s", liability=1.0, breach_probability=0.1,
                        loading=-0.1)
    with pytest.raises(InsuranceError):
        desk.policy(5)


def test_insurance_expected_profit_is_loading():
    desk = InsuranceDesk(Ledger())
    desk.underwrite("ds", "s", liability=100.0, breach_probability=0.1,
                    loading=0.25)
    assert desk.expected_profit_per_period() == pytest.approx(
        0.1 * 100 * 0.25
    )
