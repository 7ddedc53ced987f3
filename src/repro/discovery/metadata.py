"""The Metadata Engine (Fig. 3): ingestion, context snapshots, lifecycle.

Section 5.1 describes a "fully-incremental, always-on system" that reads
datasets in bulk or via manual registration, divides them into data items,
and maintains a *time-ordered list of context snapshots* per dataset — each
capturing content signatures, owners and security credentials at that point
in time.  The engine's relational *output schema* is produced by the Sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..errors import DiscoveryError
from ..relation import Relation
from .profiler import TableProfile, profile_table


@dataclass(frozen=True)
class ContextSnapshot:
    """State of one dataset's data items at one point in (logical) time."""

    dataset: str
    version: int
    logical_time: int
    content_hash: str
    profile: TableProfile
    owners: tuple[str, ...]
    credentials: str  # e.g. "public", "team:finance", "pii"


@dataclass(frozen=True)
class MetadataDelta:
    """Typed change event the engine emits to subscribers.

    Downstream indexes consume these instead of bare staleness pings: the
    delta carries everything needed to patch derived state in place —
    ``snapshot`` (with per-column profiles) for added/updated datasets,
    ``previous`` for updated/removed ones.
    """

    kind: str  # "added" | "updated" | "removed"
    dataset: str
    snapshot: ContextSnapshot | None
    previous: ContextSnapshot | None = None

    @property
    def keeps_columns(self) -> bool:
        """True for an ``updated`` delta whose columns keep their names and
        semantic tags, in order: state derived from names and tags alone
        (attribute matches) is unchanged by it."""
        if self.kind != "updated":
            return False
        return _column_tags(self.snapshot) == _column_tags(self.previous)


def _column_tags(snapshot: ContextSnapshot) -> list[tuple[str, str | None]]:
    return [(c.column, c.semantic) for c in snapshot.profile.columns]


MetadataListener = Callable[[MetadataDelta], None]


@dataclass
class DatasetLifecycle:
    """Time-ordered snapshots plus the live relation."""

    relation: Relation
    snapshots: list[ContextSnapshot] = field(default_factory=list)

    @property
    def current(self) -> ContextSnapshot:
        return self.snapshots[-1]

    @property
    def version(self) -> int:
        return self.current.version


class MetadataEngine:
    """Registers datasets, tracks versions, and profiles data items."""

    def __init__(self, num_perm: int = 64, access_quota: int | None = None):
        self._lifecycles: dict[str, DatasetLifecycle] = {}
        self._clock = 0
        self._num_perm = num_perm
        #: optional cap on profile refreshes per source system (Section 4.2's
        #: "optional access quota established by the origin system")
        self.access_quota = access_quota
        self._accesses = 0
        self._listeners: list[MetadataListener] = []
        self._newest_logical_time = 0

    # -- ingestion (batch + share interfaces) ---------------------------
    def register(
        self,
        relation: Relation,
        owner: str = "unknown",
        credentials: str = "public",
    ) -> ContextSnapshot:
        """Share interface: register or update a single dataset."""
        self._check_quota()
        name = relation.name
        try:
            content_hash = relation.content_hash()
            lifecycle = self._lifecycles.get(name)
            if (
                lifecycle is not None
                and lifecycle.current.content_hash == content_hash
            ):
                return lifecycle.current  # unchanged: no new snapshot
            self._clock += 1
            previous = lifecycle.current if lifecycle else None
            snapshot = ContextSnapshot(
                dataset=name,
                version=previous.version + 1 if previous else 1,
                logical_time=self._clock,
                content_hash=content_hash,
                profile=profile_table(
                    relation,
                    num_perm=self._num_perm,
                    previous=previous.profile if previous else None,
                ),
                owners=(owner,),
                credentials=credentials,
            )
        finally:
            # the digest and the profiler share the columnar caches for
            # one pass; an always-on engine must not pin them for the
            # lifetime of every registered relation
            relation.columnar.release()
        if lifecycle is None:
            self._lifecycles[name] = DatasetLifecycle(relation, [snapshot])
        else:
            lifecycle.relation = relation
            lifecycle.snapshots.append(snapshot)
        self._newest_logical_time = self._clock
        self._notify(
            MetadataDelta(
                kind="added" if previous is None else "updated",
                dataset=name,
                snapshot=snapshot,
                previous=previous,
            )
        )
        return snapshot

    def register_batch(
        self,
        relations: Iterable[Relation],
        owner: str = "unknown",
        credentials: str = "public",
    ) -> list[ContextSnapshot]:
        """Batch interface: point at a whole source (lake, DB, CSV dir)."""
        return [self.register(r, owner, credentials) for r in relations]

    def remove(self, name: str) -> MetadataDelta:
        """Withdraw a dataset (seller retirement): drop its lifecycle and
        notify subscribers so derived indexes prune it in place."""
        lifecycle = self._lifecycle(name)
        del self._lifecycles[name]
        if lifecycle.current.logical_time >= self._newest_logical_time:
            self._newest_logical_time = max(
                (lc.current.logical_time for lc in self._lifecycles.values()),
                default=0,
            )
        delta = MetadataDelta(
            kind="removed",
            dataset=name,
            snapshot=None,
            previous=lifecycle.current,
        )
        self._notify(delta)
        return delta

    # -- cold-start replay (durable-store hooks) -------------------------
    def restore_lifecycle(
        self, relation: Relation, snapshot: ContextSnapshot
    ) -> None:
        """Adopt a persisted dataset wholesale: no profiling, no delta.

        The durable store replays datasets in registration order, so the
        lifecycle dict's insertion order — which fixes :meth:`profiles`
        order and hence candidate orientation downstream — matches the
        original process exactly.  Only the current snapshot is restored;
        prior snapshot history is process-resident by design."""
        if relation.name != snapshot.dataset:
            raise DiscoveryError(
                f"snapshot is for {snapshot.dataset!r}, "
                f"not {relation.name!r}"
            )
        self._lifecycles[relation.name] = DatasetLifecycle(
            relation, [snapshot]
        )

    def restore_clock(self, clock: int, newest_logical_time: int) -> None:
        """Restore logical-time counters so post-replay registrations keep
        the monotonic ordering that survived in the store."""
        self._clock = max(self._clock, int(clock))
        self._newest_logical_time = max(
            self._newest_logical_time, int(newest_logical_time)
        )

    def subscribe(self, listener: MetadataListener) -> MetadataListener:
        """Call ``listener(delta)`` on every change; returns the listener as
        a detach token for :meth:`unsubscribe`."""
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: MetadataListener) -> None:
        """Detach a subscriber so discarded consumers don't leak as dangling
        listeners in long-running deployments."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            raise DiscoveryError(
                "listener is not subscribed to this metadata engine"
            ) from None

    @property
    def subscribers(self) -> tuple[MetadataListener, ...]:
        """The live delta listeners (read-only view).  Teardown code — and
        the tests guarding it — asserts this empties when a consumer stack
        detaches, so long-running deployments cannot leak listeners."""
        return tuple(self._listeners)

    def _notify(self, delta: MetadataDelta) -> None:
        for listener in list(self._listeners):
            listener(delta)

    def _check_quota(self) -> None:
        self._accesses += 1
        if self.access_quota is not None and self._accesses > self.access_quota:
            raise DiscoveryError(
                f"source access quota exhausted ({self.access_quota})"
            )

    # -- lookups ---------------------------------------------------------
    @property
    def datasets(self) -> list[str]:
        return sorted(self._lifecycles)

    @property
    def clock(self) -> int:
        """The logical clock (ticks once per accepted snapshot)."""
        return self._clock

    @property
    def newest_logical_time(self) -> int:
        """Logical time of the freshest live snapshot (0 when empty) —
        O(1); freshness/version-lag checks need not scan every dataset."""
        return self._newest_logical_time

    def __contains__(self, name: str) -> bool:
        return name in self._lifecycles

    def relation(self, name: str) -> Relation:
        return self._lifecycle(name).relation

    def lifecycle(self, name: str) -> DatasetLifecycle:
        return self._lifecycle(name)

    def snapshot(self, name: str) -> ContextSnapshot:
        return self._lifecycle(name).current

    def profiles(self) -> list[TableProfile]:
        return [lc.current.profile for lc in self._lifecycles.values()]

    def _lifecycle(self, name: str) -> DatasetLifecycle:
        try:
            return self._lifecycles[name]
        except KeyError:
            raise DiscoveryError(f"dataset {name!r} is not registered") from None

    # -- the Sink's relational output schema ------------------------------
    def output_schema(self) -> Mapping[str, Relation]:
        """Conceptual relational view of the metadata (Section 5.1's Sink)."""
        ds_rows, col_rows, snap_rows = [], [], []
        for name, lc in sorted(self._lifecycles.items()):
            current = lc.current
            ds_rows.append(
                (name, current.version, current.profile.n_rows,
                 current.credentials, current.owners[0])
            )
            for cp in current.profile.columns:
                null_fraction = cp.categorical.null_fraction
                col_rows.append(
                    (name, cp.column, cp.dtype, cp.semantic,
                     cp.categorical.distinct, round(null_fraction, 6),
                     round(cp.distinct_fraction, 6))
                )
            for snap in lc.snapshots:
                snap_rows.append(
                    (name, snap.version, snap.logical_time, snap.content_hash)
                )
        return {
            "datasets": Relation(
                "meta_datasets",
                [("dataset", "str"), ("version", "int"), ("rows", "int"),
                 ("credentials", "str"), ("owner", "str")],
                ds_rows,
            ),
            "columns": Relation(
                "meta_columns",
                [("dataset", "str"), ("column", "str"), ("dtype", "str"),
                 ("semantic", "str"), ("distinct", "int"),
                 ("null_fraction", "float"), ("distinct_fraction", "float")],
                col_rows,
            ),
            "snapshots": Relation(
                "meta_snapshots",
                [("dataset", "str"), ("version", "int"),
                 ("logical_time", "int"), ("content_hash", "str")],
                snap_rows,
            ),
        }
