"""Direct tests for mashup plans (construction, execution, errors)."""

import pytest

from repro.errors import IntegrationError, SynthesisError
from repro.integration import AffineMap, DictionaryMap
from repro.mashup import JoinStep, MashupPlan, TransformStep, qualified
from repro.relation import Column, Relation, RelationExpr


@pytest.fixture
def datasets():
    orders = Relation(
        "orders",
        [Column("cid", "int"), Column("amount", "float")],
        [(1, 10.0), (2, 20.0), (2, 25.0)],
    )
    customers = Relation(
        "customers",
        [Column("cid", "int"), Column("city", "str")],
        [(1, "oslo"), (2, "rome")],
    )
    return {"orders": orders, "customers": customers}


def resolver_of(datasets):
    return lambda name: datasets[name]


def test_qualified_naming():
    assert qualified("ds", "col") == "ds__col"


def test_plan_executes_join_and_projection(datasets):
    plan = MashupPlan(
        base="orders",
        joins=[JoinStep("customers", "orders__cid", "customers__cid", 0.9)],
        output={"cid": "orders__cid", "amount": "orders__amount",
                "city": "customers__city"},
    )
    out = plan.run(resolver_of(datasets))
    assert set(out.columns) == {"cid", "amount", "city"}
    assert len(out) == 3
    assert plan.sources() == ["orders", "customers"]
    description = plan.describe()
    assert "base: orders" in description
    assert "join customers" in description
    assert "confidence 0.90" in description


def test_plan_transform_step(datasets):
    plan = MashupPlan(
        base="orders",
        transforms=[TransformStep("orders__amount", "amount_eur",
                                  AffineMap(0.9, 0.0))],
        output={"amount_eur": "amount_eur"},
    )
    out = plan.run(resolver_of(datasets))
    assert sorted(out.column("amount_eur")) == pytest.approx(
        [9.0, 18.0, 22.5]
    )
    assert "derive amount_eur" in plan.describe()


def test_plan_transform_preserves_nulls():
    data = Relation("d", [Column("x", "float")], [(1.0,), (None,)])
    plan = MashupPlan(
        base="d",
        transforms=[TransformStep("d__x", "y", AffineMap(2.0, 0.0))],
        output={"y": "y"},
    )
    out = plan.run(lambda _n: data)
    assert sorted(out.column("y"), key=lambda v: (v is None, v)) == [2.0, None]


def test_plan_dictionary_transform_fails_on_unknown_value(datasets):
    plan = MashupPlan(
        base="customers",
        transforms=[TransformStep("customers__city", "code",
                                  DictionaryMap({"oslo": "OSL"}))],
        output={"code": "code"},
    )
    with pytest.raises(SynthesisError, match="not in mapping table"):
        plan.run(resolver_of(datasets))


def test_plan_multi_column_join_step():
    """Composite-key JoinStep: extra_on pairs all constrain the join."""
    left = Relation(
        "left",
        [Column("k1", "int"), Column("k2", "str"), Column("v", "float")],
        [(1, "a", 1.0), (1, "b", 2.0), (2, "a", 3.0)],
    )
    right = Relation(
        "right",
        [Column("k1", "int"), Column("k2", "str"), Column("w", "str")],
        [(1, "a", "x"), (1, "b", "y"), (2, "b", "z")],
    )
    data = {"left": left, "right": right}
    step = JoinStep(
        "right", "left__k1", "right__k1", 0.8,
        extra_on=(("left__k2", "right__k2"),),
    )
    assert step.pairs == (
        ("left__k1", "right__k1"), ("left__k2", "right__k2"),
    )
    plan = MashupPlan(
        base="left",
        joins=[step],
        output={"v": "left__v", "w": "right__w"},
    )
    out = plan.run(resolver_of(data))
    # only (1,a) and (1,b) match on BOTH keys; (2,a)/(2,b) do not
    assert sorted(zip(out.column("v"), out.column("w"))) == [
        (1.0, "x"), (2.0, "y"),
    ]
    assert "left__k1 = right__k1 and left__k2 = right__k2" in step.describe()
    bad = MashupPlan(
        base="left",
        joins=[JoinStep("right", "left__k1", "right__k1",
                        extra_on=(("left__ghost", "right__k2"),))],
        output={"v": "left__v"},
    )
    with pytest.raises(IntegrationError, match="ghost"):
        bad.run(resolver_of(data))


def test_plan_inconsistent_join_column(datasets):
    plan = MashupPlan(
        base="orders",
        joins=[JoinStep("customers", "orders__ghost", "customers__cid")],
        output={"cid": "orders__cid"},
    )
    with pytest.raises(IntegrationError, match="ghost"):
        plan.run(resolver_of(datasets))
    plan2 = MashupPlan(
        base="orders",
        joins=[JoinStep("customers", "orders__cid", "customers__ghost")],
        output={"cid": "orders__cid"},
    )
    with pytest.raises(IntegrationError, match="ghost"):
        plan2.run(resolver_of(datasets))


def test_plan_missing_output_column(datasets):
    plan = MashupPlan(base="orders", output={"x": "orders__nope"})
    with pytest.raises(IntegrationError, match="missing columns"):
        plan.run(resolver_of(datasets))


def test_plan_missing_transform_source(datasets):
    plan = MashupPlan(
        base="orders",
        transforms=[TransformStep("orders__nope", "y", AffineMap(1.0, 0.0))],
        output={"y": "y"},
    )
    with pytest.raises(IntegrationError, match="transform source"):
        plan.run(resolver_of(datasets))


def test_plan_provenance_flows_through_execution(datasets):
    plan = MashupPlan(
        base="orders",
        joins=[JoinStep("customers", "orders__cid", "customers__cid")],
        output={"amount": "orders__amount", "city": "customers__city"},
    )
    out = plan.run(resolver_of(datasets))
    for expr in out.provenance:
        assert expr.sources() == {"orders", "customers"}


def test_plan_build_tree_is_lazy(datasets):
    """build_tree returns an unevaluated expression; engines agree."""
    calls = []

    def resolver(name):
        calls.append(name)
        return datasets[name]

    plan = MashupPlan(
        base="orders",
        joins=[JoinStep("customers", "orders__cid", "customers__cid")],
        output={"amount": "orders__amount", "city": "customers__city"},
    )
    tree = plan.build_tree(resolver)
    assert isinstance(tree, RelationExpr)
    assert tree.name == "mashup"
    assert set(tree.columns) == {"amount", "city"}
    # resolving datasets happens at build time, but no rows moved yet
    assert calls == ["orders", "customers"]
    # compare engines directly: collect() memoizes on the tree's payload
    from oracles.execution import IterationEngine
    from repro.relation import ColumnarEngine

    eager = IterationEngine().execute(tree)
    columnar = ColumnarEngine().execute(tree)
    assert eager.rows == columnar.rows
    assert eager.provenance == columnar.provenance
    assert eager.schema == columnar.schema
