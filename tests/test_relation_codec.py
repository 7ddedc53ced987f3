"""The relation codec: one JSON form for the store and the wire.

The properties under test:

* **exact round trip** — a relation with typed and ``any`` columns comes
  back cell for cell with its exact types through ``json.dumps`` →
  :func:`relation_from_payload`, through a store and a cold start, and
  (one fixed example) through ``MarketClient.register_dataset`` against a
  live gateway: NaN stays NaN, ``-0.0`` keeps its sign, ints beyond int64
  stay exact, tuples stay tuples and lists stay lists.  Rows are compared
  cell by cell, never with ``Relation.__eq__``, which takes a list and a
  tuple with equal items for one value;
* **refusal before change** — a cell with no JSON form is an
  ``InvalidRequestError`` naming its column and type: ``MarketClient``
  refuses it before sending, and a store-backed market before any state
  moves, so the graph version, search, the ledger and a restarted market
  all look as if it was never sent.
"""

from __future__ import annotations

import enum
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataMarket
from repro.errors import InvalidRequestError
from repro.fusion.cell import FusedValue
from repro.platform import MarketClient, MarketGateway, MarketService
from repro.relation import Column, Relation
from repro.relation.codec import relation_from_payload, relation_to_payload


def same_cell(got, want) -> bool:
    """Exact equality: same type all the way down, NaN by ``isnan`` and
    zeros by sign."""
    if type(got) is not type(want):
        return False
    if type(want) is float:
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1, got) == math.copysign(1, want)
    if type(want) in (list, tuple):
        return len(got) == len(want) and all(map(same_cell, got, want))
    return got == want


def assert_same(got: Relation, want: Relation) -> None:
    assert got.name == want.name
    assert got.schema == want.schema
    assert len(got.rows) == len(want.rows)
    for got_row, want_row in zip(got.rows, want.rows):
        assert len(got_row) == len(want_row)
        for g, w in zip(got_row, want_row):
            assert same_cell(g, w), (g, w)


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
)
_INTS = st.one_of(
    st.integers(), st.sampled_from([2**63, -(2**63) - 1, 10**30]),
)
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, st.text())
_NESTED = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
    ),
    max_leaves=8,
)
_CELLS = {
    "int": _INTS,
    "float": st.one_of(_FLOATS, st.integers(-3, 3)),
    "str": st.text(),
    "bool": st.booleans(),
    "any": _NESTED,
}


@st.composite
def relations(draw) -> Relation:
    dtypes = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                           max_size=4))
    rows = draw(st.lists(
        st.tuples(*(st.one_of(st.none(), _CELLS[d]) for d in dtypes)),
        max_size=6,
    ))
    semantics = draw(st.lists(st.one_of(st.none(), st.just("tag")),
                              min_size=len(dtypes), max_size=len(dtypes)))
    return Relation(
        draw(st.text(min_size=1)),
        [Column(f"c{i}", d, s) for i, (d, s) in enumerate(zip(dtypes,
                                                              semantics))],
        rows,
    )


@settings(max_examples=300, deadline=None)
@given(relation=relations())
def test_json_round_trip_is_exact(relation):
    wire = json.dumps(relation_to_payload(relation))
    assert_same(relation_from_payload(json.loads(wire)), relation)


@settings(max_examples=25, deadline=None)
@given(relation=relations())
def test_store_round_trip_is_exact(relation):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "market.db"
        DataMarket(store=str(path)).register_dataset(relation, seller="acme")
        replayed = DataMarket(store=str(path))
        assert_same(replayed.metadata.relation(relation.name), relation)


FIXED = Relation(
    "fixed",
    [Column("k", "int"), Column("x", "float"), Column("s", "str"),
     Column("blob", "any")],
    [
        (2**64, math.nan, "ünï", (1, [2.5, ("a", None)])),
        (-(2**70), -0.0, "東京", [(), [True]]),
        (None, math.inf, "", -math.inf),
        (0, -1, None, (math.nan, -0.0, 2**65)),
    ],
)


def test_register_over_http_is_exact(tmp_path):
    service = MarketService(DataMarket(store=str(tmp_path / "market.db")))
    gateway = MarketGateway(service, tokens={"tok": "acme"}).start()
    try:
        with MarketClient(gateway.url, token="tok") as seller:
            seller.register_dataset(FIXED)
        assert_same(service.market.metadata.relation("fixed"), FIXED)
    finally:
        gateway.stop()
        service.close()
    assert_same(
        DataMarket(store=str(tmp_path / "market.db"))
        .metadata.relation("fixed"),
        FIXED,
    )


# ---------------------------------------------------------------------------
# cells with no JSON form are refused before anything changes
# ---------------------------------------------------------------------------

class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


REFUSED = [
    ("any", frozenset({1, 2}), "frozenset"),
    ("any", FusedValue.of([("s1", 1.0)]), "FusedValue"),
    ("any", [1, {"a": 1}], "dict"),
    ("int", Level.LOW, "Level"),
    ("str", Tag("a"), "Tag"),
]


@pytest.mark.parametrize("dtype, cell, type_name", REFUSED)
def test_encoding_refuses_cells_without_a_json_form(dtype, cell, type_name):
    relation = Relation("r", [("k", "int"), ("odd", dtype)],
                        [(1, None), (2, cell)])
    with pytest.raises(InvalidRequestError, match=f"'odd'.*{type_name}"):
        relation_to_payload(relation)


@pytest.mark.parametrize("dtype, cell, type_name", REFUSED)
def test_store_backed_market_refuses_before_any_change(
    tmp_path, dtype, cell, type_name
):
    path = str(tmp_path / "market.db")
    market = DataMarket(store=path)
    market.register_dataset(
        Relation("base", [("k", "int"), ("v", "float")], [(1, 1.0)]),
        seller="acme",
    )
    version = market.graph_version
    odd = Relation("odd", [("k", "int"), ("oddcol", dtype)],
                   [(1, None), (2, cell)])
    with pytest.raises(InvalidRequestError, match=f"'oddcol'.*{type_name}"):
        market.register_dataset(odd, seller="mallory")
    assert market.graph_version == version
    assert market.datasets == ["base"]
    assert "odd" not in market.search(["oddcol"]).datasets
    assert "mallory" not in market.arbiter.ledger
    replayed = DataMarket(store=path)
    assert replayed.datasets == ["base"]
    assert replayed.graph_version == version


@pytest.mark.parametrize("dtype, cell, type_name", REFUSED)
def test_refused_cells_never_leave_the_client(dtype, cell, type_name):
    service = MarketService(DataMarket())
    gateway = MarketGateway(service, tokens={"tok": "acme"}).start()
    odd = Relation("odd", [("k", "int"), ("oddcol", dtype)],
                   [(1, None), (2, cell)])
    try:
        with MarketClient(gateway.url, token="tok") as seller:
            with pytest.raises(InvalidRequestError,
                               match=f"'oddcol'.*{type_name}"):
                seller.register_dataset(odd)
            by_route = seller.stats()["requests"]["by_route"]
    finally:
        gateway.stop()
        service.close()
    assert "register_dataset" not in by_route
    assert service.market.datasets == []


@pytest.mark.parametrize("cell", [
    {"frozenset": [1]}, {"tuple": [1], "x": 2}, {"tuple": "ab"}, {},
])
def test_decoding_refuses_unknown_cell_objects(cell):
    payload = {"name": "r", "columns": [["c", "any", None]],
               "rows": [[[cell]]]}
    with pytest.raises(InvalidRequestError, match="'c'"):
        relation_from_payload(payload)


@pytest.mark.parametrize("payload", [
    [],
    {"name": "r", "columns": [["c", "int", None]], "extra": 1},
    {"name": "", "columns": [["c", "int", None]]},
    {"name": "r", "columns": []},
    {"name": "r", "columns": [["c", "nope", None]]},
    {"name": "r", "columns": [["c", "int", None]], "rows": ["ab"]},
    {"name": "r", "columns": [["c", "int", None]], "rows": [[1, 2]]},
    {"name": "r", "columns": [["c", "int", None]], "rows": [[[1]]]},
    {"name": "r", "columns": [["c", "str", None]], "rows": [[{"tuple": []}]]},
])
def test_decoding_refuses_malformed_payloads(payload):
    with pytest.raises(InvalidRequestError):
        relation_from_payload(payload)


def test_deeply_nested_cells_are_refused_not_crashed():
    deep: list = []
    for _ in range(5000):
        deep = [deep]
    relation = Relation("r", [("c", "any")], [(deep,)])
    with pytest.raises(InvalidRequestError, match="nested too deeply"):
        relation_to_payload(relation)
    with pytest.raises(InvalidRequestError, match="nested too deeply"):
        relation_from_payload(
            {"name": "r", "columns": [["c", "any", None]], "rows": [[deep]]}
        )
