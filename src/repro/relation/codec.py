"""The one JSON form of a relation, shared by the store and the wire.

A relation leaves the process — into the durable store, or across the
HTTP gateway in either direction — as one payload::

    {"name": "orders",
     "columns": [["order_id", "int", null], ["total", "float", "price"]],
     "rows": [[1, 9.5], [2, null]]}

Cells of exact type ``None``, ``bool``, ``int``, ``float`` or ``str`` are
JSON values (ints of any size, NaN and ±inf as Python's ``json`` writes
them, ``-0.0`` with its sign).  In an ``any``-typed column a list is an
array of encoded items and a tuple is ``{"tuple": [...]}``, so it comes
back a tuple.  Every other cell — a frozenset, an ``IntEnum``, a str
subclass, any other object — and, on the way in, every other JSON object
in a cell is refused with :class:`~repro.errors.InvalidRequestError`
naming the column and the type: no value is ever silently changed, and
decoding builds nothing but these types, so no payload can run code.
"""

from __future__ import annotations

from operator import itemgetter

from ..errors import InvalidRequestError, ReproError
from .relation import Relation
from .schema import Column, Schema

_SCALARS = frozenset((type(None), bool, int, float, str))

_FIELDS = frozenset(("name", "columns", "rows"))


def relation_to_payload(relation: Relation) -> dict:
    """``relation`` as its JSON-ready payload; a cell with no JSON form
    is an :class:`~repro.errors.InvalidRequestError`."""
    rows = list(map(list, relation.rows))
    try:
        for i, column in enumerate(relation.schema.columns):
            types = set(map(type, map(itemgetter(i), relation.rows)))
            if types <= _SCALARS:
                continue
            if column.dtype != "any":
                raise _no_json_form(column.name, min(
                    types - _SCALARS, key=lambda t: t.__name__
                ))
            for row in rows:
                row[i] = _encode(row[i], column.name)
    except RecursionError:
        raise InvalidRequestError("a cell is nested too deeply") from None
    return {
        "name": relation.name,
        "columns": [
            [c.name, c.dtype, c.semantic] for c in relation.schema.columns
        ],
        "rows": rows,
    }


def relation_from_payload(obj: object) -> Relation:
    """Rebuild a relation from its payload; a payload of any other shape,
    schema or cell is an :class:`~repro.errors.InvalidRequestError`, never
    a bare ``SchemaError``."""
    fields = obj if isinstance(obj, dict) and set(obj) <= _FIELDS else {}
    name, columns = fields.get("name"), fields.get("columns")
    # an explicit null is an absent field, as in every request body
    rows = [] if fields.get("rows") is None else fields["rows"]
    if not (
        isinstance(name, str) and name
        and isinstance(columns, list) and columns
        and set(map(type, columns)) == {list}
        and isinstance(rows, list) and set(map(type, rows)) <= {list}
    ):
        raise InvalidRequestError(
            "a relation payload is an object with a non-empty 'name', "
            "'columns' as a non-empty list of [name, dtype, semantic] "
            "lists and 'rows' as a list of lists, and no other field"
        )
    try:
        schema = Schema([Column(*parts) for parts in columns])
        relation = Relation(name, schema, rows)
    except (ReproError, TypeError) as exc:
        raise InvalidRequestError(f"invalid relation payload: {exc}") from exc
    # typed columns hold JSON scalars only (the row check refused lists
    # and objects there), so only ``any`` columns can hold tagged cells
    walk = [
        i for i, column in enumerate(schema.columns)
        if column.dtype == "any"
        and not set(map(type, map(itemgetter(i), relation.rows))) <= _SCALARS
    ]
    if not walk:
        return relation
    rows = list(map(list, relation.rows))
    try:
        for i in walk:
            for row in rows:
                row[i] = _decode(row[i], schema.columns[i].name)
    except RecursionError:
        raise InvalidRequestError("a cell is nested too deeply") from None
    return Relation(name, schema, rows, validate=False)


def _encode(value, column: str):
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list:
        return [_encode(v, column) for v in value]
    if kind is tuple:
        return {"tuple": [_encode(v, column) for v in value]}
    raise _no_json_form(column, kind)


def _decode(value, column: str):
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list:
        return [_decode(v, column) for v in value]
    if kind is dict:
        items = value.get("tuple")
        if len(value) != 1 or type(items) is not list:
            raise InvalidRequestError(
                f"column {column!r} holds an object with keys "
                f"{list(value)!r}; the only cell object is "
                f'{{"tuple": [...]}}'
            )
        return tuple(_decode(v, column) for v in items)
    raise _no_json_form(column, kind)


def _no_json_form(column: str, kind: type) -> InvalidRequestError:
    return InvalidRequestError(
        f"column {column!r} holds a {kind.__name__} cell, which has no "
        f"JSON form; cells are None, bool, int, float or str, or in an "
        f"'any' column lists and tuples of them"
    )
