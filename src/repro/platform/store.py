"""Durable market state: a SQLite-backed store under the platform façade.

The paper's DMMS is an *always-on* service; this module gives the façade a
crash-safe home for everything the discovery stack derives, so a restarted
process **replays** state instead of re-profiling every dataset:

* dataset metadata (relation payload, snapshot lineage, seller, reserve,
  license and contextual-integrity policy),
* per-column profiles — summary statistics plus the binary MinHash
  signature (:meth:`~repro.sketches.MinHash.to_bytes`: a header and the
  bins; replay loads them as they are),
* the LSH band buckets each signature hashes into,
* the join-candidate set and the relationship graph's edges, both with
  their fan-out estimates,
* the component fingerprints (persisted as an integrity check — replay
  recomputes them and refuses a store whose digests do not match),
* the component-scoped plan cache (best effort; entries that defy JSON
  serialization are simply not persisted),

all keyed by ``graph_version`` so a cold start resumes the exact version
counter — ``as_of`` stamps stay monotonic across restarts.  The store
records its :data:`SCHEMA_VERSION`, and a store of any other version is
refused at open with a typed :class:`StoreError` — schema-3 stores held
signatures densified on load and schema-2 stores signatures, band keys
and join candidates from retired estimators, and replaying them beside
new signatures would mix two estimators.  Re-registering the corpus is
the migration.

Durability follows the usual SQLite service recipe: WAL journaling (readers
never block the single writer), ``synchronous=NORMAL`` (safe with WAL; an
OS crash can lose the last transaction but never corrupts), a generous
``busy_timeout``, and one transaction per delta so a kill -9 between deltas
leaves a consistent prefix.  Connections are opened per call: the store
object itself is trivially shareable across threads.

On top of the replay tables the store offers **service reads**: FTS5-backed
free-text dataset search (graceful LIKE fallback when the linked SQLite
lacks FTS5) and keyset-cursor dataset listing that stays O(page) regardless
of offset.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
from contextlib import contextmanager
from pathlib import Path

from ..discovery.index import JoinCandidate, JoinPredicate
from ..discovery.metadata import ContextSnapshot
from ..discovery.profiler import (
    TableProfile,
    column_profile_from_record,
    column_profile_record,
)
from ..discovery.stats import FanoutEstimate
from ..errors import InvalidRequestError, MarketError
from ..integration.dod import _PlanCacheEntry
from ..integration.plan import JoinStep, Mashup, MashupPlan, TransformStep
from ..integration.synthesis import AffineMap, DictionaryMap
from ..market.licensing import (
    ContextualIntegrityPolicy,
    License,
    LicenseKind,
)
from ..relation import Relation
from ..sketches import MinHash

#: bump on any table or payload change; a store created by a different
#: schema version is refused rather than silently misread.  Version 4
#: holds round-filled signatures: schema-3 payloads kept one round with
#: empty bins for load-time densification, and schema-2 stores carried
#: classic or rotation-densified signatures, band keys and join candidates
#: from other estimators, so both are refused instead of replayed beside
#: new signatures
SCHEMA_VERSION = 4

_JSON_SCALARS = (type(None), bool, int, float, str)

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
        "n_rows", "schema_json", "rows_format", "rows_payload",
        "graph_version",
    ),
    "column_profiles": (
        "dataset", "position", "column_name", "dtype", "semantic",
        "distinct_fraction", "content_hash", "signature",
        "numeric_json", "categorical_json",
    ),
    "lsh_buckets": ("dataset", "column_name", "band", "band_key"),
    "join_candidates": (
        "left_dataset", "left_column", "right_dataset", "right_column",
        "score", "evidence", "pk_side", "fanout_lr", "fanout_rl",
    ),
    "graph_edges": (
        "left_dataset", "right_dataset", "position", "pairs_json", "score",
        "evidence", "pk_side", "fanout_lr", "fanout_rl",
    ),
    "component_fingerprints": ("component_id", "fingerprint"),
    "plan_cache": ("cache_key", "position", "graph_version", "entry_json"),
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
    schema_json   TEXT NOT NULL,
    rows_format   TEXT NOT NULL,
    rows_payload  BLOB NOT NULL,
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
CREATE TABLE IF NOT EXISTS lsh_buckets (
    dataset     TEXT NOT NULL,
    column_name TEXT NOT NULL,
    band        INTEGER NOT NULL,
    band_key    TEXT NOT NULL,
    PRIMARY KEY (dataset, column_name, band)
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
CREATE TABLE IF NOT EXISTS graph_edges (
    left_dataset  TEXT NOT NULL,
    right_dataset TEXT NOT NULL,
    position      INTEGER NOT NULL,
    pairs_json    TEXT NOT NULL,
    score         REAL NOT NULL,
    evidence      TEXT NOT NULL,
    pk_side       TEXT,
    fanout_lr     REAL,
    fanout_rl     REAL,
    PRIMARY KEY (left_dataset, right_dataset, position)
);
CREATE TABLE IF NOT EXISTS component_fingerprints (
    component_id INTEGER PRIMARY KEY,
    fingerprint  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS plan_cache (
    cache_key     TEXT PRIMARY KEY,
    position      INTEGER NOT NULL,
    graph_version INTEGER NOT NULL,
    entry_json    TEXT NOT NULL
);
"""

_FTS_DDL = """
CREATE VIRTUAL TABLE IF NOT EXISTS dataset_fts USING fts5(
    dataset, owner, columns, semantics
);
"""


class StoreError(MarketError):
    """A durable-store operation failed (corrupt payload, schema drift)."""


def _untuple(value):
    """JSON round-trip inverse for cache keys: lists back to tuples."""
    if isinstance(value, list):
        return tuple(_untuple(v) for v in value)
    return value


def _mapping_to_json(mapping) -> dict:
    if isinstance(mapping, AffineMap):
        return {"type": "affine", "a": mapping.a, "b": mapping.b}
    if isinstance(mapping, DictionaryMap):
        pairs = list(mapping.mapping.items())
        if not all(
            type(k) in _JSON_SCALARS and type(v) in _JSON_SCALARS
            for k, v in pairs
        ):
            raise StoreError("dictionary mapping is not JSON-serializable")
        return {"type": "dict", "pairs": [[k, v] for k, v in pairs]}
    raise StoreError(f"unserializable mapping {mapping!r}")


def _mapping_from_json(data: dict):
    if data["type"] == "affine":
        return AffineMap(data["a"], data["b"])
    return DictionaryMap({k: v for k, v in data["pairs"]})


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

    # -- connection management -------------------------------------------
    @contextmanager
    def _connect(self):
        """One short-lived connection per call: commit-on-success (so each
        delta is one transaction — a kill between deltas leaves a
        consistent prefix), always closed on the way out."""
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute("PRAGMA foreign_keys=ON")
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

    def graph_version(self) -> int:
        """The persisted join-graph version (0 for an empty store)."""
        with self._connect() as conn:
            return int(self._get_meta(conn, "graph_version", 0))

    def dataset_count(self) -> int:
        with self._connect() as conn:
            return conn.execute("SELECT COUNT(*) FROM datasets").fetchone()[0]

    # -- payload codecs ----------------------------------------------------
    @staticmethod
    def _encode_rows(relation: Relation) -> tuple[str, bytes]:
        rows = relation.rows
        if all(
            type(v) in _JSON_SCALARS for row in rows for v in row
        ):
            return "json", json.dumps([list(r) for r in rows]).encode()
        return "pickle", pickle.dumps(
            [tuple(r) for r in rows], protocol=4
        )

    @staticmethod
    def _decode_rows(fmt: str, payload: bytes) -> list[tuple]:
        if fmt == "json":
            return [tuple(r) for r in json.loads(payload.decode())]
        if fmt == "pickle":
            return pickle.loads(payload)
        raise StoreError(f"unknown rows payload format {fmt!r}")

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
    def persist_dataset(self, market, name: str) -> None:
        """Persist one accepted (registered or updated) dataset — its
        relation, snapshot, profiles, buckets, and the market-wide derived
        state the delta touched — in a single transaction."""
        metadata = market.metadata
        index = market.index
        snapshot = metadata.snapshot(name)
        relation = metadata.relation(name)
        profile = snapshot.profile
        license = market.licenses.license_of(name)
        policy = market.licenses.policy_of(name)
        seller = market.licenses.owner_of(name)
        reserve = market.arbiter.reserve_price_of(name)
        graph_version = index.graph_version
        fmt, payload = self._encode_rows(relation)
        schema_json = json.dumps(
            [[c.name, c.dtype, c.semantic] for c in relation.schema]
        )
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO datasets VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    name, index.registration_order(name), snapshot.version,
                    snapshot.logical_time, snapshot.content_hash,
                    snapshot.owners[0], snapshot.credentials, seller,
                    reserve, self._license_json(license, policy),
                    profile.n_rows, schema_json, fmt, payload, graph_version,
                ),
            )
            conn.execute(
                "DELETE FROM column_profiles WHERE dataset = ?", (name,)
            )
            conn.execute(
                "DELETE FROM lsh_buckets WHERE dataset = ?", (name,)
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
                for band, key in enumerate(
                    index.lsh_band_keys(cp.signature)
                ):
                    conn.execute(
                        "INSERT INTO lsh_buckets VALUES (?, ?, ?, ?)",
                        (name, cp.column, band,
                         ",".join(str(v) for v in key)),
                    )
            self._rewrite_relationships(conn, market, name)
            self._finish_delta(conn, market, graph_version)

    def persist_retire(self, market, name: str) -> None:
        """Remove one retired dataset and the derived rows that named it."""
        graph_version = market.index.graph_version
        with self._connect() as conn:
            for table in ("datasets", "column_profiles", "lsh_buckets"):
                conn.execute(
                    f"DELETE FROM {table} WHERE dataset = ?", (name,)
                )
            conn.execute(
                "DELETE FROM join_candidates "
                "WHERE left_dataset = ? OR right_dataset = ?", (name, name),
            )
            conn.execute(
                "DELETE FROM graph_edges "
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
        """Replace every candidate/edge row involving ``name`` with the
        index's current view (a delta can add, rescore, or drop them)."""
        index = market.index
        conn.execute(
            "DELETE FROM join_candidates "
            "WHERE left_dataset = ? OR right_dataset = ?", (name, name),
        )
        conn.execute(
            "DELETE FROM graph_edges "
            "WHERE left_dataset = ? OR right_dataset = ?", (name, name),
        )
        for cand in index.dataset_candidates(name):
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
        positions: dict[tuple[str, str], int] = {}
        for pred in index.dataset_edges(name):
            pair = (pred.left_dataset, pred.right_dataset)
            pos = positions.get(pair, 0)
            positions[pair] = pos + 1
            fan = pred.fanout
            conn.execute(
                "INSERT OR REPLACE INTO graph_edges VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    pred.left_dataset, pred.right_dataset, pos,
                    json.dumps([list(p) for p in pred.pairs]),
                    pred.score, pred.evidence, pred.pk_side,
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
        """Shared tail of every delta transaction: fingerprints, clocks,
        the graph version, and plan-cache pruning."""
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
        # cached plans are only restorable at the exact version they were
        # saved under; rows from older versions are dead weight
        conn.execute(
            "DELETE FROM plan_cache WHERE graph_version != ?",
            (graph_version,),
        )

    # -- plan-cache persistence -------------------------------------------
    def save_plan_cache(self, market) -> int:
        """Persist the current plan cache (best effort): entries whose keys
        or mashups defy JSON stay process-local.  Returns rows written."""
        planner = market.planner
        graph_version = market.index.graph_version
        written = 0
        with self._connect() as conn:
            conn.execute("DELETE FROM plan_cache")
            for position, (key, entry) in enumerate(
                planner.export_plan_cache()
            ):
                try:
                    key_json = json.dumps(key)
                    entry_json = json.dumps(self._entry_to_json(entry))
                except (StoreError, TypeError, ValueError):
                    continue
                conn.execute(
                    "INSERT OR REPLACE INTO plan_cache VALUES (?, ?, ?, ?)",
                    (key_json, position, graph_version, entry_json),
                )
                written += 1
        return written

    @staticmethod
    def _entry_to_json(entry: _PlanCacheEntry) -> dict:
        mashups = []
        for m in entry.mashups:
            plan = m.plan
            mashups.append({
                "base": plan.base,
                "joins": [
                    {
                        "dataset": j.dataset, "left_on": j.left_on,
                        "right_on": j.right_on, "score": j.score,
                        "extra_on": [list(p) for p in j.extra_on],
                        "fanout": j.fanout,
                    }
                    for j in plan.joins
                ],
                "transforms": [
                    {
                        "source_column": t.source_column,
                        "output_column": t.output_column,
                        "mapping": _mapping_to_json(t.mapping),
                    }
                    for t in plan.transforms
                ],
                "output": plan.output,
                "matched": {
                    attr: list(hit) for attr, hit in m.matched.items()
                },
                "missing": list(m.missing),
            })
        return {
            "fingerprints": sorted(entry.fingerprints),
            "attributes": list(entry.attributes),
            "min_score": entry.min_score,
            "hint_datasets": sorted(entry.hint_datasets),
            "mashups": mashups,
        }

    def _entry_from_json(self, data: dict, market) -> _PlanCacheEntry:
        mashups = []
        for md in data["mashups"]:
            plan = MashupPlan(
                base=md["base"],
                joins=[
                    JoinStep(
                        dataset=j["dataset"], left_on=j["left_on"],
                        right_on=j["right_on"], score=j["score"],
                        extra_on=tuple(
                            (a, b) for a, b in j["extra_on"]
                        ),
                        fanout=j["fanout"],
                    )
                    for j in md["joins"]
                ],
                transforms=[
                    TransformStep(
                        source_column=t["source_column"],
                        output_column=t["output_column"],
                        mapping=_mapping_from_json(t["mapping"]),
                    )
                    for t in md["transforms"]
                ],
                output=dict(md["output"]),
            )
            mashups.append(Mashup(
                plan=plan,
                matched={
                    attr: tuple(hit) for attr, hit in md["matched"].items()
                },
                missing=tuple(md["missing"]),
                tree=plan.build_tree(market.metadata.relation),
            ))
        return _PlanCacheEntry(
            mashups=mashups,
            fingerprints=frozenset(data["fingerprints"]),
            attributes=tuple(data["attributes"]),
            min_score=data["min_score"],
            hint_datasets=frozenset(data["hint_datasets"]),
        )

    # -- cold-start replay -------------------------------------------------
    def replay_into(self, market) -> int:
        """Rebuild a fresh market's full state from the store; returns the
        number of datasets replayed.  An empty store is a no-op."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT dataset, version, logical_time, content_hash, "
                "owner, credentials, seller, reserve_price, license_json, "
                "n_rows, schema_json, rows_format, rows_payload "
                "FROM datasets ORDER BY reg_order"
            ).fetchall()
            if not rows:
                return 0
            profiles: list[TableProfile] = []
            for (name, version, logical_time, content_hash, owner,
                 credentials, seller, reserve, license_json, n_rows,
                 schema_json, fmt, payload) in rows:
                relation = Relation(
                    name,
                    [tuple(c) for c in json.loads(schema_json)],
                    self._decode_rows(fmt, payload),
                )
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
            edges = [
                JoinPredicate(
                    left_dataset=ld, right_dataset=rd,
                    pairs=tuple(
                        (a, b) for a, b in json.loads(pairs_json)
                    ),
                    score=score, evidence=evidence, pk_side=pk_side,
                    fanout=(
                        None if lr is None else FanoutEstimate(lr, rl)
                    ),
                )
                for (ld, rd, _pos, pairs_json, score, evidence,
                     pk_side, lr, rl)
                in conn.execute(
                    "SELECT * FROM graph_edges "
                    "ORDER BY left_dataset, right_dataset, position"
                )
            ]
            graph_version = int(self._get_meta(conn, "graph_version", 0))
            market.index.restore_state(
                profiles=profiles, candidates=candidates, edges=edges,
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
            restored: list[tuple[tuple, _PlanCacheEntry]] = []
            for key_json, entry_json in conn.execute(
                "SELECT cache_key, entry_json FROM plan_cache "
                "WHERE graph_version = ? ORDER BY position",
                (graph_version,),
            ):
                try:
                    key = _untuple(json.loads(key_json))
                    entry = self._entry_from_json(
                        json.loads(entry_json), market
                    )
                except Exception:
                    continue  # a stale/undecodable row is just a cache miss
                restored.append((key, entry))
            if restored:
                market.planner.restore_plan_cache(restored)
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
