"""Relational substrate: schemas, provenance-carrying relations, CSV I/O."""

from .columnar import ColumnarView
from .csvio import read_csv, read_csv_dir, read_csv_text, write_csv
from .engines import ColumnarEngine, Engine, Processor, push_down
from .predicates import And, Eq, In, Predicate, Range
from .provenance import (
    ProvExpr,
    ProvOne,
    ProvPlus,
    ProvTimes,
    ProvToken,
    boolean_sources,
    derivation_count,
    evaluate,
    plus,
    source_shares,
    times,
    token_shares,
)
from .relation import Relation
from .schema import Column, Schema
from .tree import (
    Distinct,
    Extend,
    Join,
    Label,
    LeafRelation,
    Project,
    RelationExpr,
    Rename,
    Select,
)

__all__ = [
    "Column",
    "ColumnarView",
    "Schema",
    "Relation",
    "RelationExpr",
    "LeafRelation",
    "Project",
    "Select",
    "Distinct",
    "Rename",
    "Label",
    "Extend",
    "Join",
    "Predicate",
    "Eq",
    "In",
    "Range",
    "And",
    "Engine",
    "ColumnarEngine",
    "Processor",
    "push_down",
    "ProvExpr",
    "ProvToken",
    "ProvOne",
    "ProvPlus",
    "ProvTimes",
    "plus",
    "times",
    "evaluate",
    "token_shares",
    "source_shares",
    "boolean_sources",
    "derivation_count",
    "read_csv",
    "read_csv_text",
    "read_csv_dir",
    "write_csv",
]
