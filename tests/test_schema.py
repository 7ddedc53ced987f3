"""Unit tests for repro.relation.schema."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError, TypeMismatchError, UnknownColumnError
from repro.relation import Column, Relation, Schema
from repro.relation.schema import DTYPES


def test_column_requires_name():
    with pytest.raises(SchemaError):
        Column("")


def test_column_rejects_unknown_dtype():
    with pytest.raises(SchemaError):
        Column("a", "decimal")


def test_column_accepts_null_everywhere():
    for dtype in ("int", "float", "str", "bool", "any"):
        assert Column("a", dtype).accepts(None)


def test_column_int_rejects_bool():
    col = Column("a", "int")
    assert col.accepts(3)
    assert not col.accepts(True)


def test_column_float_accepts_int():
    assert Column("a", "float").accepts(3)
    assert Column("a", "float").accepts(3.5)


def test_column_any_accepts_everything():
    col = Column("a", "any")
    assert col.accepts([1, 2])
    assert col.accepts(object())


def test_schema_from_strings_and_tuples():
    s = Schema(["a", ("b", "int"), Column("c", "str", "city")])
    assert s.names == ("a", "b", "c")
    assert s["b"].dtype == "int"
    assert s["c"].semantic == "city"


def test_schema_rejects_duplicates():
    with pytest.raises(SchemaError, match="duplicate"):
        Schema(["a", "b", "a"])


def test_schema_position_and_contains():
    s = Schema(["a", "b"])
    assert s.position("b") == 1
    assert "a" in s and "z" not in s
    with pytest.raises(UnknownColumnError):
        s.position("z")


def test_schema_project_and_rename():
    s = Schema([("a", "int"), ("b", "str")])
    assert s.project(["b"]).names == ("b",)
    renamed = s.rename({"a": "x"})
    assert renamed.names == ("x", "b")
    assert renamed["x"].dtype == "int"
    with pytest.raises(UnknownColumnError):
        s.rename({"zzz": "y"})


def test_schema_concat_clash():
    a, b = Schema(["a", "b"]), Schema(["b", "c"])
    with pytest.raises(SchemaError, match="clash"):
        a.concat(b)
    assert a.concat(Schema(["c"])).names == ("a", "b", "c")


def test_validate_row_arity_and_types():
    s = Schema([("a", "int"), ("b", "str")])
    s.validate_row((1, "x"))
    s.validate_row((None, None))
    with pytest.raises(SchemaError):
        s.validate_row((1,))
    with pytest.raises(TypeMismatchError):
        s.validate_row(("oops", "x"))


class Disguised:
    """Passes ``isinstance(value, int)`` through ``__class__``, not through
    its type."""

    __class__ = property(lambda self: int)

    def __repr__(self) -> str:
        return "Disguised()"


#: cells of every kind a column may be offered
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.integers(-5, 5).map(np.int64), st.floats(-5, 5).map(np.float64),
    st.booleans().map(np.bool_), st.lists(st.integers(), max_size=2),
    st.just(Disguised()),
)
#: cells a column of each dtype accepts
TYPED_VALUE = {
    "int": st.integers(),
    "float": st.one_of(st.floats(), st.integers()),
    "str": st.text(max_size=3),
    "bool": st.booleans(),
    "any": ANY_VALUE,
}


def outcome(check) -> tuple[type, str] | None:
    try:
        check()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_column_check_agrees_with_the_per_row_check(data):
    dtypes = data.draw(st.lists(st.sampled_from(DTYPES), min_size=1,
                                max_size=4))
    schema = Schema([Column(f"c{i}", d) for i, d in enumerate(dtypes)])
    rows = data.draw(st.lists(
        st.tuples(*[st.one_of(st.none(), TYPED_VALUE[d]) for d in dtypes]),
        max_size=12,
    ))
    # then up to two faults (a fault may still be valid): one cell of any
    # kind, or a whole row of any kind and arity
    for _ in range(data.draw(st.integers(0, 2)) if rows else 0):
        i = data.draw(st.integers(0, len(rows) - 1))
        if data.draw(st.booleans()):
            rows[i] = tuple(data.draw(
                st.lists(ANY_VALUE, max_size=len(dtypes) + 1)
            ))
        else:
            j = data.draw(st.integers(0, len(dtypes) - 1))
            rows[i] = (*rows[i][:j], data.draw(ANY_VALUE), *rows[i][j + 1:])

    def per_row():
        for r in rows:
            schema.validate_row(r)

    expected = outcome(per_row)
    assert outcome(lambda: schema.validate_rows(rows)) == expected
    assert outcome(lambda: Relation("r", schema, rows)) == expected


def test_column_check_reports_the_first_bad_row():
    s = Schema([("a", "int"), ("b", "float")])
    s.validate_rows([(1, 2), (None, 2.5), (3, None)])
    with pytest.raises(TypeMismatchError, match="True"):
        s.validate_rows([(1, 2.0), (2, True), (3, "x")])
    with pytest.raises(SchemaError, match="arity 1"):
        s.validate_rows([(1, 2.0), (2,), (True, 1.0)])
    with pytest.raises(TypeMismatchError, match="'x'"):
        s.validate_rows([("x", 2.0), (2,)])
    # passes isinstance(value, int), so the per-value check accepts it
    s.validate_rows([(Disguised(), 1.0)])


def test_with_semantic():
    s = Schema(["a", "b"]).with_semantic("a", "price")
    assert s["a"].semantic == "price"
    assert s["b"].semantic is None


def test_schema_equality_and_hash():
    assert Schema([("a", "int")]) == Schema([("a", "int")])
    assert Schema([("a", "int")]) != Schema([("a", "float")])
    assert hash(Schema(["a"])) == hash(Schema(["a"]))
