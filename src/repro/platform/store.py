"""Durable market state: a SQLite-backed store under the platform façade.

The paper's DMMS is an *always-on* service; this module gives the façade a
crash-safe home for the market's record and for what replay cannot cheaply
rebuild, so a restarted process **replays** state instead of re-profiling
every dataset:

* dataset metadata (the relation, as the one JSON payload of
  :mod:`repro.relation.codec` that the HTTP gateway also speaks; snapshot
  lineage, seller, reserve, license and contextual-integrity policy),
* per-column profiles — summary statistics plus the binary MinHash
  signature (:meth:`~repro.sketches.MinHash.to_bytes`: a header and the
  bins; replay loads them as they are, and rebuilds the LSH banding from
  them),
* the join-candidate set with its fan-out estimates (replay derives the
  relationship graph's edges from it),
* the component fingerprints (persisted as an integrity check — replay
  recomputes them and refuses a store whose digests do not match),

all keyed by ``graph_version`` so a cold start resumes the exact version
counter — ``as_of`` stamps stay monotonic across restarts.  The plan cache
is not stored: a restart starts it cold.  Every stored value is JSON, SQL
scalars or signature bytes, so reading a store runs no code it holds; a
relation that does not decode fails replay with a typed
:class:`StoreError`.  The store records its :data:`SCHEMA_VERSION`, and a
store of any other version is refused at open with a :class:`StoreError`
(:data:`SCHEMA_VERSION` says what each older version held).
Re-registering the corpus is the migration.

Durability follows the usual SQLite service recipe: WAL journaling (readers
never block the single writer; set once at open, the file keeps it),
``synchronous=NORMAL`` (safe with WAL; an OS crash can lose the last
transaction but never corrupts), a 30 s busy timeout, and one transaction
per delta so a kill -9 between deltas leaves a consistent prefix.
Connections are opened per call: the store object itself is trivially
shareable across threads.

On top of the replay tables the store offers **service reads**: FTS5-backed
free-text dataset search (graceful LIKE fallback when the linked SQLite
lacks FTS5) and keyset-cursor dataset listing that stays O(page) regardless
of offset.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from pathlib import Path

from ..discovery.index import JoinCandidate
from ..discovery.metadata import ContextSnapshot
from ..discovery.profiler import (
    TableProfile,
    column_profile_from_record,
    column_profile_record,
)
from ..discovery.stats import FanoutEstimate
from ..errors import InvalidRequestError, MarketError
from ..market.licensing import (
    ContextualIntegrityPolicy,
    License,
    LicenseKind,
)
from ..relation import Relation
from ..relation.codec import relation_from_payload
from ..sketches import MinHash

#: bump when an older store would be misread.  Version 6 holds each
#: relation as one JSON payload in ``datasets.relation_json`` (schema-5
#: stores fell back to a binary row format whose load could run code).
#: Schema-4 content hashes depended on row order, schema-3 payloads kept
#: one round with empty bins for load-time densification, and schema-2
#: stores carried classic or rotation-densified signatures, band keys and
#: join candidates from other estimators, so all are refused instead of
#: replayed.  Dropping a table replay no longer reads needs no bump: an
#: older schema-6 store replays as it did
SCHEMA_VERSION = 6

#: valid ``list_datasets`` sort keys -> (order column, cursor-value parser,
#: page-row field the next cursor is minted from).  The dataset name is the
#: tiebreak column in every order, so keyset pages never skip or repeat.
LIST_SORT_KEYS: dict[str, tuple[str, type, str]] = {
    "registered": ("logical_time", int, "logical_time"),
    "name": ("dataset", str, "dataset"),
    "rows": ("n_rows", int, "rows"),
    "reserve": ("reserve_price", float, "reserve_price"),
}

#: the store's relational schema — ``scripts/check_store_schema.py`` fails
#: CI when this drifts from the table documented in the README
TABLES: dict[str, tuple[str, ...]] = {
    "store_meta": ("key", "value"),
    "datasets": (
        "dataset", "reg_order", "version", "logical_time", "content_hash",
        "owner", "credentials", "seller", "reserve_price", "license_json",
        "n_rows", "relation_json", "graph_version",
    ),
    "column_profiles": (
        "dataset", "position", "column_name", "dtype", "semantic",
        "distinct_fraction", "content_hash", "signature",
        "numeric_json", "categorical_json",
    ),
    "join_candidates": (
        "left_dataset", "left_column", "right_dataset", "right_column",
        "score", "evidence", "pk_side", "fanout_lr", "fanout_rl",
    ),
    "component_fingerprints": ("component_id", "fingerprint"),
}

_DDL = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS datasets (
    dataset       TEXT PRIMARY KEY,
    reg_order     INTEGER NOT NULL,
    version       INTEGER NOT NULL,
    logical_time  INTEGER NOT NULL,
    content_hash  TEXT NOT NULL,
    owner         TEXT NOT NULL,
    credentials   TEXT NOT NULL,
    seller        TEXT NOT NULL,
    reserve_price REAL NOT NULL,
    license_json  TEXT NOT NULL,
    n_rows        INTEGER NOT NULL,
    relation_json TEXT NOT NULL,
    graph_version INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS datasets_by_time
    ON datasets (logical_time, dataset);
CREATE TABLE IF NOT EXISTS column_profiles (
    dataset           TEXT NOT NULL,
    position          INTEGER NOT NULL,
    column_name       TEXT NOT NULL,
    dtype             TEXT NOT NULL,
    semantic          TEXT,
    distinct_fraction REAL NOT NULL,
    content_hash      TEXT NOT NULL,
    signature         BLOB NOT NULL,
    numeric_json      TEXT,
    categorical_json  TEXT NOT NULL,
    PRIMARY KEY (dataset, column_name)
);
CREATE TABLE IF NOT EXISTS join_candidates (
    left_dataset  TEXT NOT NULL,
    left_column   TEXT NOT NULL,
    right_dataset TEXT NOT NULL,
    right_column  TEXT NOT NULL,
    score         REAL NOT NULL,
    evidence      TEXT NOT NULL,
    pk_side       TEXT,
    fanout_lr     REAL,
    fanout_rl     REAL,
    PRIMARY KEY (left_dataset, left_column, right_dataset, right_column)
);
CREATE TABLE IF NOT EXISTS component_fingerprints (
    component_id INTEGER PRIMARY KEY,
    fingerprint  TEXT NOT NULL
);
"""

#: tables an older build of this schema version also kept, derived from
#: the others.  Dropped at open: that build would replay their rows as it
#: last wrote them, and without them its fingerprint check refuses any
#: store whose candidates join two datasets
_RETIRED_DDL = """
DROP TABLE IF EXISTS graph_edges;
DROP TABLE IF EXISTS plan_cache;
"""

_FTS_DDL = """
CREATE VIRTUAL TABLE IF NOT EXISTS dataset_fts USING fts5(
    dataset, owner, columns, semantics
);
"""


class StoreError(MarketError):
    """A durable-store operation failed (corrupt payload, schema drift)."""


def _check_limit(limit) -> None:
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise InvalidRequestError(
            f"limit must be a positive integer, got {limit!r}"
        )


class MarketStore:
    """SQLite persistence for one :class:`~repro.platform.DataMarket`.

    The façade drives it: every accepted/retired dataset is persisted in
    its own transaction, and ``DataMarket(store=...)`` cold-starts by
    calling :meth:`replay_into`.  The store also answers the service
    layer's listing/search reads directly from SQL.
    """

    def __init__(self, path: str | Path):
        self.path = str(path)
        self._fts = True
        with self._connect() as conn:
            conn.execute("PRAGMA journal_mode=WAL")  # the file keeps it
            conn.executescript(_DDL)
            try:
                conn.executescript(_FTS_DDL)
            except sqlite3.OperationalError:
                self._fts = False  # linked sqlite lacks FTS5: LIKE fallback
            row = conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO store_meta (key, value) "
                    "VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif int(row[0]) != SCHEMA_VERSION:
                raise StoreError(
                    f"store at {self.path!r} has schema version {row[0]}, "
                    f"this build expects {SCHEMA_VERSION}: re-register the "
                    f"corpus into a new store to migrate"
                )
            conn.executescript(_RETIRED_DDL)

    # -- connection management -------------------------------------------
    @contextmanager
    def _connect(self):
        """One short-lived connection per call: commit-on-success (so each
        delta is one transaction — a kill between deltas leaves a
        consistent prefix), always closed on the way out.  ``timeout`` is
        the busy timeout; ``synchronous`` is the one setting a connection
        does not inherit from the file."""
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.execute("PRAGMA synchronous=NORMAL")
            with conn:
                yield conn
        finally:
            conn.close()

    @property
    def has_fts(self) -> bool:
        """True when the linked SQLite provides FTS5."""
        return self._fts

    # -- meta --------------------------------------------------------------
    @staticmethod
    def _set_meta(conn: sqlite3.Connection, key: str, value) -> None:
        conn.execute(
            "INSERT INTO store_meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, str(value)),
        )

    @staticmethod
    def _get_meta(conn: sqlite3.Connection, key: str, default=None):
        row = conn.execute(
            "SELECT value FROM store_meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else row[0]

    # -- payload codecs ----------------------------------------------------
    @staticmethod
    def _license_json(license: License, policy: ContextualIntegrityPolicy):
        return json.dumps({
            "kind": license.kind.value,
            "tax": license.exclusivity_tax_rate,
            "max": license.max_licensees,
            "policy": sorted(policy.allowed_contexts),
        })

    @staticmethod
    def _license_from_json(payload: str):
        data = json.loads(payload)
        license = License(
            kind=LicenseKind(data["kind"]),
            exclusivity_tax_rate=data["tax"],
            max_licensees=data["max"],
        )
        policy = ContextualIntegrityPolicy(frozenset(data["policy"]))
        return license, policy

    # -- writes ------------------------------------------------------------
    def persist_dataset(self, market, name: str, payload: dict) -> None:
        """Persist one accepted (registered or updated) dataset — its
        relation's codec ``payload``, snapshot, profiles and the
        market-wide derived state the delta touched — in a single
        transaction."""
        metadata = market.metadata
        index = market.index
        snapshot = metadata.snapshot(name)
        profile = snapshot.profile
        license = market.licenses.license_of(name)
        policy = market.licenses.policy_of(name)
        seller = market.licenses.owner_of(name)
        reserve = market.arbiter.reserve_price_of(name)
        graph_version = index.graph_version
        relation_json = json.dumps(payload, separators=(",", ":"))
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO datasets VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    name, index.registration_order(name), snapshot.version,
                    snapshot.logical_time, snapshot.content_hash,
                    snapshot.owners[0], snapshot.credentials, seller,
                    reserve, self._license_json(license, policy),
                    profile.n_rows, relation_json, graph_version,
                ),
            )
            conn.execute(
                "DELETE FROM column_profiles WHERE dataset = ?", (name,)
            )
            for position, cp in enumerate(profile.columns):
                record = column_profile_record(cp)
                conn.execute(
                    "INSERT INTO column_profiles VALUES "
                    "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        name, position, cp.column, cp.dtype, cp.semantic,
                        cp.distinct_fraction, cp.content_hash,
                        cp.signature.to_bytes(),
                        None if record["numeric"] is None
                        else json.dumps(record["numeric"]),
                        json.dumps(record["categorical"]),
                    ),
                )
            self._rewrite_relationships(conn, market, name)
            self._finish_delta(conn, market, graph_version)

    def persist_retire(self, market, name: str) -> None:
        """Remove one retired dataset and the derived rows that named it."""
        graph_version = market.index.graph_version
        with self._connect() as conn:
            for table in ("datasets", "column_profiles"):
                conn.execute(
                    f"DELETE FROM {table} WHERE dataset = ?", (name,)
                )
            conn.execute(
                "DELETE FROM join_candidates "
                "WHERE left_dataset = ? OR right_dataset = ?", (name, name),
            )
            if self._fts:
                conn.execute(
                    "DELETE FROM dataset_fts WHERE dataset = ?", (name,)
                )
            self._finish_delta(conn, market, graph_version)

    def _rewrite_relationships(
        self, conn: sqlite3.Connection, market, name: str
    ) -> None:
        """Replace every candidate row involving ``name`` with the index's
        current view (a delta can add, rescore, or drop them)."""
        conn.execute(
            "DELETE FROM join_candidates "
            "WHERE left_dataset = ? OR right_dataset = ?", (name, name),
        )
        for cand in market.index.dataset_candidates(name):
            fan = cand.fanout
            conn.execute(
                "INSERT OR REPLACE INTO join_candidates VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    cand.left_dataset, cand.left_column,
                    cand.right_dataset, cand.right_column,
                    cand.score, cand.evidence, cand.pk_side,
                    None if fan is None else fan.lr,
                    None if fan is None else fan.rl,
                ),
            )
        if self._fts:
            snapshot = market.metadata.snapshot(name)
            conn.execute(
                "DELETE FROM dataset_fts WHERE dataset = ?", (name,)
            )
            conn.execute(
                "INSERT INTO dataset_fts VALUES (?, ?, ?, ?)",
                (
                    name,
                    snapshot.owners[0],
                    " ".join(c.column for c in snapshot.profile.columns),
                    " ".join(
                        c.semantic for c in snapshot.profile.columns
                        if c.semantic
                    ),
                ),
            )

    def _finish_delta(
        self, conn: sqlite3.Connection, market, graph_version: int
    ) -> None:
        """Shared tail of every delta transaction: fingerprints, clocks
        and the graph version."""
        conn.execute("DELETE FROM component_fingerprints")
        for cid, fp in enumerate(market.index.component_fingerprints()):
            conn.execute(
                "INSERT INTO component_fingerprints VALUES (?, ?)",
                (cid, fp),
            )
        self._set_meta(conn, "graph_version", graph_version)
        self._set_meta(conn, "metadata_clock", market.metadata.clock)
        self._set_meta(
            conn, "newest_logical_time", market.metadata.newest_logical_time
        )

    # -- cold-start replay -------------------------------------------------
    @staticmethod
    def _relation_from_json(name: str, relation_json) -> Relation:
        """The stored relation of dataset ``name``; a value that is not
        its codec payload is a :class:`StoreError`."""
        try:
            relation = relation_from_payload(json.loads(relation_json))
        except (TypeError, ValueError, RecursionError,
                InvalidRequestError) as exc:
            raise StoreError(
                f"dataset {name!r}: stored relation does not decode: {exc}"
            ) from exc
        if relation.name != name:
            raise StoreError(
                f"dataset {name!r}: stored relation is named "
                f"{relation.name!r}"
            )
        return relation

    def replay_into(self, market) -> int:
        """Rebuild a fresh market's full state from the store; returns the
        number of datasets replayed.  An empty store is a no-op."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT dataset, version, logical_time, content_hash, "
                "owner, credentials, seller, reserve_price, license_json, "
                "n_rows, relation_json FROM datasets ORDER BY reg_order"
            ).fetchall()
            if not rows:
                return 0
            profiles: list[TableProfile] = []
            for (name, version, logical_time, content_hash, owner,
                 credentials, seller, reserve, license_json, n_rows,
                 relation_json) in rows:
                relation = self._relation_from_json(name, relation_json)
                columns = []
                for (col, dtype, semantic, distinct_fraction,
                     col_hash, sig, numeric_json,
                     categorical_json) in conn.execute(
                    "SELECT column_name, dtype, semantic, "
                    "distinct_fraction, content_hash, signature, "
                    "numeric_json, categorical_json FROM column_profiles "
                    "WHERE dataset = ? ORDER BY position", (name,)
                ):
                    signature = MinHash.from_bytes(sig)
                    record = {
                        "column": col,
                        "dtype": dtype,
                        "semantic": semantic,
                        "distinct_fraction": distinct_fraction,
                        "content_hash": col_hash,
                        "numeric": (
                            None if numeric_json is None
                            else json.loads(numeric_json)
                        ),
                        "categorical": json.loads(categorical_json),
                    }
                    columns.append(column_profile_from_record(
                        name, record, signature
                    ))
                profile = TableProfile(
                    dataset=name, n_rows=n_rows,
                    content_hash=content_hash, columns=tuple(columns),
                )
                profiles.append(profile)
                market.metadata.restore_lifecycle(
                    relation,
                    ContextSnapshot(
                        dataset=name, version=version,
                        logical_time=logical_time,
                        content_hash=content_hash, profile=profile,
                        owners=(owner,), credentials=credentials,
                    ),
                )
                license, policy = self._license_from_json(license_json)
                market.arbiter.adopt_dataset(
                    name, seller, reserve, license, policy
                )
            market.metadata.restore_clock(
                int(self._get_meta(conn, "metadata_clock", 0)),
                int(self._get_meta(conn, "newest_logical_time", 0)),
            )
            candidates = [
                JoinCandidate(
                    left_dataset=ld, left_column=lc,
                    right_dataset=rd, right_column=rc,
                    score=score, evidence=evidence, pk_side=pk_side,
                    fanout=(
                        None if lr is None else FanoutEstimate(lr, rl)
                    ),
                )
                for (ld, lc, rd, rc, score, evidence, pk_side, lr, rl)
                in conn.execute(
                    "SELECT * FROM join_candidates "
                    "ORDER BY left_dataset, left_column, "
                    "right_dataset, right_column"
                )
            ]
            graph_version = int(self._get_meta(conn, "graph_version", 0))
            market.index.restore_state(
                profiles=profiles, candidates=candidates,
                graph_version=graph_version,
            )
            stored_fps = [
                fp for (fp,) in conn.execute(
                    "SELECT fingerprint FROM component_fingerprints "
                    "ORDER BY component_id"
                )
            ]
            live_fps = list(market.index.component_fingerprints())
            if stored_fps != live_fps:
                raise StoreError(
                    "replayed component fingerprints diverge from the "
                    "persisted ones — the store is corrupt or was written "
                    "by an incompatible build"
                )
            return len(rows)

    # -- service reads -----------------------------------------------------
    def list_datasets(
        self,
        limit: int = 50,
        cursor: str | None = None,
        sort: str = "registered",
    ) -> tuple[list[dict], str | None]:
        """Keyset-cursor page over registered datasets.

        ``sort`` picks the listing order (see :data:`LIST_SORT_KEYS`);
        the default is registration (logical-time) order, with the dataset
        name as the deterministic tiebreak in every order.  Returns
        ``(rows, next_cursor)`` where a ``None`` cursor means the listing
        is exhausted; pass the returned cursor back in to fetch the next
        page in O(page), independent of how deep the listing already is.
        Cursors are sort-specific — a cursor minted under one sort key is
        rejected under another when its value part does not parse.

        Invalid inputs (non-positive limit, unknown sort key, malformed
        cursor) raise a typed
        :class:`~repro.errors.InvalidRequestError` *before* any SQL runs,
        so network gateways can map them to a 422 instead of surfacing a
        storage error."""
        _check_limit(limit)
        try:
            column, parse, field = LIST_SORT_KEYS[sort]
        except KeyError:
            raise InvalidRequestError(
                f"unknown sort key {sort!r}; "
                f"expected one of {sorted(LIST_SORT_KEYS)}"
            ) from None
        after: tuple | None = None
        if cursor is not None:
            try:
                value_part, after_name = cursor.split("|", 1)
                after = (parse(value_part), after_name)
            except (ValueError, TypeError, AttributeError):
                raise InvalidRequestError(
                    f"malformed cursor {cursor!r} for sort {sort!r}"
                ) from None
        select = (
            "SELECT dataset, seller, version, logical_time, n_rows, "
            "reserve_price FROM datasets "
        )
        with self._connect() as conn:
            if after is None:
                rows = conn.execute(
                    select + f"ORDER BY {column}, dataset LIMIT ?",
                    (limit,),
                ).fetchall()
            else:
                rows = conn.execute(
                    select + f"WHERE ({column}, dataset) > (?, ?) "
                    f"ORDER BY {column}, dataset LIMIT ?",
                    (*after, limit),
                ).fetchall()
        page = [
            {
                "dataset": d, "seller": s, "version": v,
                "logical_time": t, "rows": n, "reserve_price": r,
            }
            for (d, s, v, t, n, r) in rows
        ]
        next_cursor = (
            f"{page[-1][field]}|{page[-1]['dataset']}"
            if len(page) == limit else None
        )
        return page, next_cursor

    def search_datasets(self, query: str, limit: int = 10) -> list[dict]:
        """Free-text dataset search over names, owners, column names and
        semantic tags — FTS5-ranked (bm25) when available, LIKE otherwise.
        A non-positive ``limit`` is an
        :class:`~repro.errors.InvalidRequestError` (SQLite would read a
        negative one as no limit at all)."""
        _check_limit(limit)
        tokens = [t for t in query.split() if t]
        if not tokens:
            return []
        with self._connect() as conn:
            if self._fts:
                match = " ".join(
                    '"{}"'.format(t.replace('"', '""')) for t in tokens
                )
                rows = conn.execute(
                    "SELECT f.dataset, f.owner, d.n_rows "
                    "FROM dataset_fts f JOIN datasets d "
                    "ON d.dataset = f.dataset "
                    "WHERE dataset_fts MATCH ? "
                    "ORDER BY bm25(dataset_fts) LIMIT ?",
                    (match, limit),
                ).fetchall()
            else:
                like = f"%{tokens[0]}%"
                rows = conn.execute(
                    "SELECT dataset, owner, n_rows FROM datasets "
                    "WHERE dataset LIKE ? OR owner LIKE ? "
                    "ORDER BY dataset LIMIT ?",
                    (like, like, limit),
                ).fetchall()
        return [
            {"dataset": d, "owner": o, "rows": n} for (d, o, n) in rows
        ]
