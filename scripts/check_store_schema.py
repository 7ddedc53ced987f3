#!/usr/bin/env python
"""Guard against silent durable-store schema drift.

Three renderings of the :mod:`repro.platform.store` schema must agree:

1. the **live schema** — tables and columns an actual ``MarketStore``
   creates in a fresh SQLite file (``sqlite_master`` + ``PRAGMA
   table_info``, skipping SQLite internals and the FTS shadow tables),
2. the **documented schema** — ``repro.platform.store.TABLES``, the
   module-level column map the store keeps next to its DDL,
3. the **README schema table** — every row of the markdown table in the
   "Durability & concurrency" section, so a row for a table the store no
   longer creates fails too.

Whoever edits the DDL must touch all three, and the migration policy
(bump ``SCHEMA_VERSION`` when an older store would be misread) along with
it — this script failing in CI is the reminder.  The README also states
the current ``SCHEMA_VERSION`` ("``SCHEMA_VERSION`` (now N ..."), and the
script fails when that number differs from the code's.  Usage:
``python scripts/check_store_schema.py``.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.platform.store import (  # noqa: E402
    SCHEMA_VERSION,
    TABLES,
    MarketStore,
)

README = ROOT / "README.md"

#: columns whose presence is load-bearing beyond mere three-way agreement —
#: replay rebuilds every sketch from the signature payload and detects
#: unchanged columns by content hash, so losing one silently would break
#: replay rather than fail a query
REQUIRED_COLUMNS: dict[str, tuple[str, ...]] = {
    "column_profiles": ("signature", "content_hash"),
}


def live_schema() -> dict[str, tuple[str, ...]]:
    import sqlite3

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schema_probe.db"
        MarketStore(path)
        conn = sqlite3.connect(path)
        try:
            names = [
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            ]
            schema = {}
            for name in names:
                if name.startswith("sqlite_") or name.startswith("dataset_fts"):
                    continue  # SQLite internals / FTS5 shadow tables
                cols = tuple(
                    row[1]
                    for row in conn.execute(f"PRAGMA table_info({name!r})")
                )
                schema[name] = cols
            return schema
        finally:
            conn.close()


#: the header row of the README's schema table
README_HEADER = "| table | primary key | columns |"


def readme_schema(text: str) -> dict[str, tuple[str, ...]]:
    """Parse every row of the README's schema table, the rows under
    :data:`README_HEADER`: | `name` | key | col, col, ... |"""
    lines = text.splitlines()
    if README_HEADER not in lines:
        return {}
    schema = {}
    # the row after the header is the | --- | separator
    for line in lines[lines.index(README_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        cells = line.strip().strip("|").split("|")
        schema[cells[0].strip().strip("`")] = tuple(
            c.strip().strip("`") for c in cells[-1].split(",") if c.strip()
        )
    return schema


def readme_schema_version(text: str) -> int | None:
    """The version the README states: ``SCHEMA_VERSION`` (now N ..."""
    m = re.search(r"`SCHEMA_VERSION` \(now (\d+)", text)
    return None if m is None else int(m.group(1))


def diff(label_a: str, a: dict, label_b: str, b: dict) -> list[str]:
    problems = []
    for table in sorted(set(a) | set(b)):
        if table not in a:
            problems.append(f"{table}: in {label_b} but missing from {label_a}")
        elif table not in b:
            problems.append(f"{table}: in {label_a} but missing from {label_b}")
        elif a[table] != b[table]:
            problems.append(
                f"{table}: {label_a} columns {list(a[table])} != "
                f"{label_b} columns {list(b[table])}"
            )
    return problems


def main() -> int:
    live = live_schema()
    documented = dict(TABLES)
    text = README.read_text()
    readme = readme_schema(text)

    problems = diff("live sqlite", live, "store.TABLES", documented)
    for table, required in REQUIRED_COLUMNS.items():
        present = live.get(table, ())
        for col in required:
            if col not in present:
                problems.append(
                    f"{table}: required column {col!r} missing from the "
                    f"live sqlite schema"
                )
    if not readme:
        problems.append(
            f"no schema table found in {README.name} (expected rows like "
            f"'| `datasets` | ... | col, col |' under '{README_HEADER}')"
        )
    else:
        problems += diff("live sqlite", live, "README", readme)
    stated = readme_schema_version(text)
    if stated != SCHEMA_VERSION:
        problems.append(
            f"{README.name} states SCHEMA_VERSION {stated} "
            "(expected '`SCHEMA_VERSION` (now N'), "
            f"store.SCHEMA_VERSION is {SCHEMA_VERSION}"
        )

    if problems:
        print("STORE SCHEMA DRIFT:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        print(
            "\nkeep the DDL, repro.platform.store.TABLES and the README "
            "schema table in lockstep (and bump SCHEMA_VERSION when an "
            "older store would be misread)",
            file=sys.stderr,
        )
        return 1
    print(
        f"store schema consistent across sqlite, store.TABLES and README "
        f"({len(live)} tables, version {SCHEMA_VERSION})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
