"""Pluggable checkpoint stores — *where* checkpoint copies live (§3.1, §3.3, §5).

The paper's protocol separates *when* a checkpoint is taken (coordinated at
epoch boundaries, §3.1; on demand when the put/get log outgrows a threshold,
§6.2) from *where* its copies are placed so that they survive failures.  The
:class:`CheckpointStore` strategy owns the second question.  Three placements
ship:

* :class:`MemoryStore` (``"memory"``, the default) — the paper's diskless
  scheme: every rank keeps a local copy **and** sends a second copy to a
  buddy in a different failure domain (§5).  2x memory overhead; survives any
  failure that does not take a rank and its buddy together.
* :class:`DiskStore` (``"disk"``) — spill every rank's snapshot to a
  directory (the SCR-PFS baseline of §7): slow, but copies survive arbitrary
  node loss, including a rank *and* its buddy.
* :class:`ParityStore` (``"parity"``) — diskless erasure coding (§3.3): each
  rank keeps its local copy, and every t-aware group of ``k`` ranks XORs its
  snapshots into a parity stripe held, chunked, by the members of the *next*
  group (a different set of failure domains).  ~``1 + 1/k`` memory overhead
  instead of 2x; any single failure per group is reconstructed from the
  survivors plus the parity.
* :class:`MultiLevelStore` (``"multilevel"``) — a hierarchy (§5–§7): the base
  child store places every checkpoint, while parity-/disk-class upper levels
  keep full mirrors refreshed *incrementally* (action-log dirty regions) every
  n-th checkpoint, so rare large failures are covered without paying the
  far-away placement cost every time.

Stores are resolved by name through :data:`STORES` (the same convention as
``backend="sim"|"proc"``) and are orthogonal to the
:class:`~repro.ft.protocols.RecoveryProtocol` restoring from them.
"""

from __future__ import annotations

import abc
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import CheckpointError
from repro.ft.groups import buddy_assignment, t_aware_groups
from repro.registry import register_kind, resolve_component

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = [
    "CheckpointVersion",
    "RestorePayload",
    "CheckpointStore",
    "MemoryStore",
    "DiskStore",
    "ParityStore",
    "MultiLevelStore",
    "STORES",
    "make_store",
]

#: Per-rank window snapshots handed to a store: ``rank -> window -> data``.
Snapshots = dict[int, dict[str, np.ndarray]]


@dataclass
class CheckpointVersion:
    """One coordinated checkpoint: tags, protocol state and (store-owned) copies."""

    version: int
    tag: Any
    taken_at: float
    buddy_of: dict[int, int]
    #: Copy kept in the owner's own memory: ``owner -> window -> data``.
    local: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)
    #: Copy held in the buddy's memory: ``owner -> window -> data``
    #: (populated by :class:`MemoryStore`; other stores place copies elsewhere).
    remote: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)
    #: Per-rank epoch state at checkpoint time (restored on rollback so
    #: survivors do not keep post-checkpoint epochs/pending operations).
    epoch_states: list | None = None
    #: Per-rank counter state (EC/GC/SC/GNC/LC and held locks) at checkpoint
    #: time; restoring it releases locks acquired after the checkpoint.
    counter_states: list | None = None

    def payload_for(self, owner: int) -> tuple[str, dict[str, np.ndarray]] | None:
        """The surviving in-memory copy of ``owner``'s windows.

        ``None`` when both copies were lost (owner and its buddy both failed
        since the checkpoint was taken).  Only meaningful for versions placed
        by :class:`MemoryStore`; other stores answer through
        :meth:`CheckpointStore.fetch`.
        """
        if owner in self.local:
            return ("local", self.local[owner])
        if owner in self.remote:
            return ("buddy", self.remote[owner])
        return None

    def drop_rank(self, rank: int) -> None:
        """Lose every copy stored in ``rank``'s memory (it failed)."""
        self.local.pop(rank, None)
        for owner, buddy in self.buddy_of.items():
            if buddy == rank:
                self.remote.pop(owner, None)

    def usable_for(self, ranks: list[int]) -> bool:
        """Whether every rank of ``ranks`` still has at least one in-memory copy."""
        return all(self.payload_for(rank) is not None for rank in ranks)

    def nbytes(self) -> int:
        """Total memory held by this version's in-memory copies."""
        total = 0
        for copies in (self.local, self.remote):
            for windows in copies.values():
                total += sum(int(data.nbytes) for data in windows.values())
        return total


@dataclass(frozen=True)
class RestorePayload:
    """One rank's recovered window contents, with the cost of obtaining them."""

    #: Where the copy came from: ``"local"``, ``"buddy"``, ``"disk"``, ``"parity"``.
    source: str
    #: ``window -> data`` for the restoring rank.
    windows: dict[str, np.ndarray]
    #: Bytes restored into the rank's windows.
    nbytes: int
    #: Virtual-time cost charged on the restoring rank's clock.
    seconds: float
    #: Ranks participating in the transfer, charged the same cost (the buddy
    #: serving its copy, the group members serving a parity reconstruction).
    peers: tuple[int, ...] = ()


class CheckpointStore(abc.ABC):
    """Placement strategy for checkpoint copies.

    Lifecycle: the :class:`~repro.ft.checkpoint.CoordinatedCheckpointer`
    binds the store to a runtime, then — between the two barriers of every
    coordinated checkpoint — calls :meth:`prepare` (place copies, charge
    their cost) and, only after the closing barrier confirmed every rank
    completed, :meth:`commit` (publish the version, evict beyond the limit).
    A failure firing during the checkpoint therefore never publishes a
    half-placed version.
    """

    #: Registry name of the store ("memory", "disk", "parity", ...).
    name: str = "abstract"

    def __init__(self, keep_versions: int = 2) -> None:
        if keep_versions < 1:
            raise CheckpointError("the store must keep at least one version")
        self.keep_versions = keep_versions
        self.versions: list[CheckpointVersion] = []
        self._next_version = 0
        self._runtime: RmaRuntime | None = None
        self._placement_listeners: list = []

    def add_placement_listener(self, listener) -> None:
        """Observe every placement: ``(store, level, rank, nbytes, incremental)``.

        The trace bus registers here to attribute checkpoint bytes to store
        levels; :meth:`_account` notifies listeners alongside the
        ``ft.checkpoint_bytes`` metric, so both views always agree.
        """
        self._placement_listeners.append(listener)

    def _account(
        self, rank: int, nbytes: int, *, level: str, incremental: bool = False
    ) -> None:
        """Charge ``nbytes`` placed for ``rank`` at ``level`` (single funnel)."""
        self.runtime.cluster.metrics.incr("ft.checkpoint_bytes", nbytes, rank=rank)
        for listener in self._placement_listeners:
            listener(self.name, level, rank, nbytes, incremental)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, runtime: "RmaRuntime", *, level: int = 1) -> None:
        """Attach the store to a runtime; compute placement structures.

        A store instance belongs to exactly one job: it holds that job's
        committed versions (and possibly scratch files), so rebinding would
        leak one job's checkpoints into another.  Construct a fresh instance
        per job instead — the same contract as
        :meth:`repro.backends.base.Backend.bind`.
        """
        if self._runtime is not None and self._runtime is not runtime:
            raise CheckpointError(
                f"store {self.name!r} is already bound to a job; stores hold "
                f"checkpoint state and cannot be reused — construct a fresh "
                f"instance per job"
            )
        self._runtime = runtime

    def attach_log(self, log: Any) -> None:
        """Offer the job's :class:`~repro.ft.checkpoint.ActionLog` to the store.

        Most placements ignore it; :class:`MultiLevelStore` reads the log's
        dirty-region map to ship only changed bytes to its upper levels.
        """

    @property
    def runtime(self) -> "RmaRuntime":
        if self._runtime is None:
            raise CheckpointError(f"store {self.name!r} is not bound to a runtime")
        return self._runtime

    def close(self) -> None:
        """Release external resources (scratch directories); idempotent."""

    # ------------------------------------------------------------------
    # Placement (template methods)
    # ------------------------------------------------------------------
    def prepare(
        self,
        *,
        tag: Any,
        snapshots: Snapshots,
        epoch_states: list | None,
        counter_states: list | None,
    ) -> CheckpointVersion:
        """Place copies of ``snapshots`` and charge their cost; do not publish."""
        version = CheckpointVersion(
            version=self._next_version,
            tag=tag,
            taken_at=self.runtime.cluster.elapsed(),
            buddy_of={},
            epoch_states=epoch_states,
            counter_states=counter_states,
        )
        self._place(version, snapshots)
        return version

    def commit(self, version: CheckpointVersion) -> CheckpointVersion:
        """Publish a fully-placed version; evict the oldest beyond the limit."""
        version.version = self._next_version
        self._next_version += 1
        self.versions.append(version)
        while len(self.versions) > self.keep_versions:
            self._evict(self.versions.pop(0))
        return version

    @abc.abstractmethod
    def _place(self, version: CheckpointVersion, snapshots: Snapshots) -> None:
        """Store every rank's snapshot copies and charge their virtual cost."""

    def _evict(self, version: CheckpointVersion) -> None:
        """Release whatever an evicted version held (disk files, parity)."""

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def available(self, version: CheckpointVersion, rank: int) -> bool:
        """Whether ``rank``'s windows can still be recovered from ``version``."""

    @abc.abstractmethod
    def fetch(self, version: CheckpointVersion, rank: int) -> RestorePayload | None:
        """Recover ``rank``'s windows from ``version`` (``None`` if lost)."""

    def latest(self) -> CheckpointVersion | None:
        """The newest committed version."""
        return self.versions[-1] if self.versions else None

    def latest_usable(self, ranks: list[int]) -> CheckpointVersion | None:
        """The newest version that can still recover every rank of ``ranks``."""
        for version in reversed(self.versions):
            if all(self.available(version, rank) for rank in ranks):
                return version
        return None

    # ------------------------------------------------------------------
    # Failure propagation and accounting
    # ------------------------------------------------------------------
    def drop_rank(self, rank: int) -> None:
        """Propagate a rank failure: lose every copy held in its memory."""
        for version in self.versions:
            self._drop(version, rank)

    def _drop(self, version: CheckpointVersion, rank: int) -> None:
        """Per-version failure propagation (default: nothing store-held is lost)."""

    def nbytes(self) -> int:
        """Total memory held by the store across all versions."""
        return sum(version.nbytes() for version in self.versions)

    def __len__(self) -> int:
        return len(self.versions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(versions={len(self.versions)}, "
            f"keep={self.keep_versions})"
        )


class MemoryStore(CheckpointStore):
    """The paper's diskless scheme: a local copy plus a buddy copy (§3.1, §5).

    Buddies are spread across level-``level`` failure domains by
    :func:`~repro.ft.groups.buddy_assignment`, so a copy survives exactly the
    failures its original does not.  2x memory overhead; restoring a failed
    rank pulls from its buddy over the network, survivors read locally.
    """

    name = "memory"

    def __init__(self, keep_versions: int = 2) -> None:
        super().__init__(keep_versions)
        self.buddies: dict[int, int] = {}

    def bind(self, runtime: "RmaRuntime", *, level: int = 1) -> None:
        super().bind(runtime, level=level)
        self.buddies = buddy_assignment(runtime.cluster.placement, level)

    def _place(self, version: CheckpointVersion, snapshots: Snapshots) -> None:
        cluster = self.runtime.cluster
        costs = cluster.costs
        excised = self.runtime.excised
        version.buddy_of = {
            rank: buddy for rank, buddy in self.buddies.items() if rank in snapshots
        }
        for rank, windows in snapshots.items():
            buddy = self.buddies[rank]
            copied_bytes = sum(int(data.nbytes) for data in windows.values())
            version.local[rank] = dict(windows)
            cluster.advance(rank, costs.local_copy(copied_bytes), kind="protocol")
            self._account(rank, copied_bytes, level="local")
            if buddy in excised:
                # The buddy was removed by a degraded continuation: only the
                # local copy exists (and nothing is charged to dead memory).
                continue
            version.remote[rank] = {name: data.copy() for name, data in windows.items()}
            # The transfer of the buddy copy, charged on both ends.
            cluster.advance(rank, costs.remote_transfer(copied_bytes), kind="protocol")
            cluster.advance(buddy, costs.local_copy(copied_bytes), kind="protocol")
            self._account(rank, copied_bytes, level="buddy")

    def available(self, version: CheckpointVersion, rank: int) -> bool:
        return version.payload_for(rank) is not None

    def fetch(self, version: CheckpointVersion, rank: int) -> RestorePayload | None:
        payload = version.payload_for(rank)
        if payload is None:
            return None
        source, windows = payload
        nbytes = sum(int(data.nbytes) for data in windows.values())
        costs = self.runtime.cluster.costs
        if source == "local":
            return RestorePayload("local", windows, nbytes, costs.local_copy(nbytes))
        buddy = version.buddy_of[rank]
        return RestorePayload(
            "buddy", windows, nbytes, costs.remote_transfer(nbytes), peers=(buddy,)
        )

    def _drop(self, version: CheckpointVersion, rank: int) -> None:
        version.drop_rank(rank)


class DiskStore(CheckpointStore):
    """Spill snapshots to a directory — the SCR-PFS baseline of §7.

    Copies survive arbitrary node loss (including a rank together with its
    buddy, the :class:`MemoryStore`'s catastrophic case), at parallel-file-
    system cost: every checkpoint and restore is charged through the cost
    model's shared-bandwidth :meth:`~repro.simulator.costs.CostModel.pfs_write`.
    With ``directory=None`` a scratch directory is created at bind time and
    removed by :meth:`close`.
    """

    name = "disk"

    def __init__(self, keep_versions: int = 2, directory: str | Path | None = None) -> None:
        super().__init__(keep_versions)
        self.directory = Path(directory) if directory is not None else None
        self._owns_directory = False
        self._layout: dict[tuple[int, int], dict[str, Path]] = {}
        self._closed = False

    def bind(self, runtime: "RmaRuntime", *, level: int = 1) -> None:
        if self._closed:
            raise CheckpointError(
                "this DiskStore was closed (its scratch directory is gone); "
                "construct a fresh instance per job"
            )
        super().bind(runtime, level=level)
        if self.directory is None:
            self.directory = Path(tempfile.mkdtemp(prefix="repro-ckpt-"))
            self._owns_directory = True
        else:
            self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, version: int, rank: int, window: str) -> Path:
        assert self.directory is not None
        return self.directory / f"v{version}_r{rank}_{window}.npy"

    def _place(self, version: CheckpointVersion, snapshots: Snapshots) -> None:
        cluster = self.runtime.cluster
        costs = cluster.costs
        nprocs = cluster.nprocs
        for rank, windows in snapshots.items():
            files: dict[str, Path] = {}
            rank_bytes = 0
            for name, data in windows.items():
                path = self._path(version.version, rank, name)
                np.save(path, data)
                files[name] = path
                rank_bytes += int(data.nbytes)
            self._layout[(version.version, rank)] = files
            # Every rank writes concurrently; the PFS bandwidth is shared.
            cluster.advance(
                rank, costs.pfs_write(rank_bytes, concurrent_writers=nprocs),
                kind="protocol",
            )
            self._account(rank, rank_bytes, level="pfs")

    def available(self, version: CheckpointVersion, rank: int) -> bool:
        return (version.version, rank) in self._layout

    def fetch(self, version: CheckpointVersion, rank: int) -> RestorePayload | None:
        files = self._layout.get((version.version, rank))
        if files is None:
            return None
        windows = {name: np.load(path) for name, path in files.items()}
        nbytes = sum(int(data.nbytes) for data in windows.values())
        seconds = self.runtime.cluster.costs.pfs_read(nbytes)
        return RestorePayload("disk", windows, nbytes, seconds)

    def _evict(self, version: CheckpointVersion) -> None:
        for key in [k for k in self._layout if k[0] == version.version]:
            for path in self._layout.pop(key).values():
                path.unlink(missing_ok=True)

    def nbytes(self) -> int:
        # Nothing is held in job memory; the spill lives on "disk".
        return 0

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._layout.clear()
        if self._owns_directory and self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


class ParityStore(CheckpointStore):
    """Diskless XOR erasure coding across t-aware groups (§3.3, Eq. 6).

    Ranks are partitioned into groups of ``k`` spread over pairwise-distinct
    failure domains (:func:`~repro.ft.groups.t_aware_groups`).  Each rank
    keeps its local snapshot; each group additionally XORs its members'
    snapshots into one parity stripe, split into ``k`` chunks held by the
    members of the *next* group (different failure domains again).  Memory
    overhead is ``~1 + 1/k`` of the window footprint — against the
    :class:`MemoryStore`'s 2x — and any single failure per group is
    reconstructed as ``parity XOR (surviving members' copies)``.  Two
    failures in one group (or a failure plus a lost parity chunk) make the
    version unusable for those ranks, the analogue of losing a rank and its
    buddy.
    """

    name = "parity"

    #: Upper bound on the automatically-chosen group size.
    DEFAULT_MAX_GROUP = 4

    def __init__(self, keep_versions: int = 2, group_size: int | None = None) -> None:
        super().__init__(keep_versions)
        self.group_size = group_size
        self.groups: list[list[int]] = []
        self.group_of: dict[int, int] = {}
        #: ``version -> (group, window) -> k parity byte-chunks (None = lost)``.
        self._parity: dict[int, dict[tuple[int, str], list[np.ndarray | None]]] = {}

    # ------------------------------------------------------------------
    def bind(self, runtime: "RmaRuntime", *, level: int = 1) -> None:
        super().bind(runtime, level=level)
        placement = runtime.cluster.placement
        nprocs = placement.nprocs
        domains = len({placement.element(r, level) for r in range(nprocs)})
        if self.group_size is not None:
            k = self.group_size
        else:
            k = next(
                (
                    cand
                    for cand in range(min(self.DEFAULT_MAX_GROUP, domains), 1, -1)
                    if nprocs % cand == 0 and nprocs // cand >= 2
                ),
                0,
            )
        if k < 2 or nprocs % k != 0 or nprocs // k < 2:
            raise CheckpointError(
                f"parity checkpointing needs at least two groups of >=2 ranks "
                f"spread over level-{level} domains; {nprocs} ranks over "
                f"{domains} domains admit no such grouping (group_size="
                f"{self.group_size}) — use the 'memory' or 'disk' store"
            )
        self.groups = t_aware_groups(placement, k, level)
        self.group_of = {
            rank: gidx for gidx, group in enumerate(self.groups) for rank in group
        }

    def _holders(self, gidx: int) -> list[int]:
        """Ranks holding group ``gidx``'s parity chunks (the next group)."""
        return self.groups[(gidx + 1) % len(self.groups)]

    # ------------------------------------------------------------------
    def _place(self, version: CheckpointVersion, snapshots: Snapshots) -> None:
        cluster = self.runtime.cluster
        costs = cluster.costs
        k = len(self.groups[0])
        parity: dict[tuple[int, str], list[np.ndarray | None]] = {}
        for rank, windows in snapshots.items():
            rank_bytes = sum(int(data.nbytes) for data in windows.values())
            version.local[rank] = dict(windows)
            # The local duplicate plus this rank's contribution to the
            # group-wide XOR reduction (one transfer of its snapshot).
            cluster.advance(rank, costs.local_copy(rank_bytes), kind="protocol")
            cluster.advance(rank, costs.remote_transfer(rank_bytes), kind="protocol")
            self._account(rank, rank_bytes, level="local")
        excised = self.runtime.excised
        for gidx, group in enumerate(self.groups):
            holders = self._holders(gidx)
            # Members excised by a degraded continuation are absent from the
            # snapshots and contribute nothing to the XOR (the identity).
            present = [member for member in group if member in snapshots]
            if not present:
                continue
            for name in snapshots[present[0]]:
                stripe = np.zeros(snapshots[present[0]][name].nbytes, dtype=np.uint8)
                for member in present:
                    stripe ^= np.ascontiguousarray(snapshots[member][name]).view(np.uint8)
                chunks: list[np.ndarray | None] = [
                    chunk.copy() for chunk in np.array_split(stripe, k)
                ]
                for idx, chunk in enumerate(chunks):
                    if holders[idx] in excised:
                        # No memory to hold this chunk in; it is lost at birth.
                        chunks[idx] = None
                        continue
                    cluster.advance(
                        holders[idx], costs.local_copy(int(chunk.nbytes)),
                        kind="protocol",
                    )
                    self._account(holders[idx], int(chunk.nbytes), level="parity")
                parity[(gidx, name)] = chunks
        self._parity[version.version] = parity

    # ------------------------------------------------------------------
    def available(self, version: CheckpointVersion, rank: int) -> bool:
        if rank in version.local:
            return True
        parity = self._parity.get(version.version)
        if parity is None:
            return False
        gidx = self.group_of[rank]
        others_alive = all(
            member in version.local for member in self.groups[gidx] if member != rank
        )
        stripes_complete = all(
            all(chunk is not None for chunk in chunks)
            for (g, _), chunks in parity.items()
            if g == gidx
        )
        return others_alive and stripes_complete

    def fetch(self, version: CheckpointVersion, rank: int) -> RestorePayload | None:
        costs = self.runtime.cluster.costs
        if rank in version.local:
            windows = version.local[rank]
            nbytes = sum(int(d.nbytes) for d in windows.values())
            return RestorePayload("local", windows, nbytes, costs.local_copy(nbytes))
        if not self.available(version, rank):
            return None
        gidx = self.group_of[rank]
        group = self.groups[gidx]
        parity = self._parity[version.version]
        windows: dict[str, np.ndarray] = {}
        nbytes = 0
        for (g, name), chunks in parity.items():
            if g != gidx:
                continue
            stripe = np.concatenate([c for c in chunks if c is not None]).copy()
            for member in group:
                if member != rank:
                    stripe ^= np.ascontiguousarray(
                        version.local[member][name]
                    ).view(np.uint8)
            reference = self.runtime.windows.get(name)
            windows[name] = stripe.view(reference.dtype).copy()
            nbytes += int(stripe.nbytes)
        peers = tuple(
            sorted({m for m in group if m != rank} | set(self._holders(gidx)))
        )
        return RestorePayload(
            "parity", windows, nbytes, costs.remote_transfer(nbytes), peers=peers
        )

    # ------------------------------------------------------------------
    def _drop(self, version: CheckpointVersion, rank: int) -> None:
        version.local.pop(rank, None)
        parity = self._parity.get(version.version)
        if parity is None:
            return
        holder_group = self.group_of.get(rank)
        if holder_group is None:
            return
        # ``rank`` holds chunk[i] of the *previous* group's stripes, where i
        # is its position within its own group.
        held_for = (holder_group - 1) % len(self.groups)
        idx = self.groups[holder_group].index(rank)
        for (g, _), chunks in parity.items():
            if g == held_for:
                chunks[idx] = None

    def _evict(self, version: CheckpointVersion) -> None:
        self._parity.pop(version.version, None)

    def nbytes(self) -> int:
        total = super().nbytes()
        for parity in self._parity.values():
            for chunks in parity.values():
                total += sum(int(c.nbytes) for c in chunks if c is not None)
        return total


@dataclass
class _Level:
    """One upper level of a :class:`MultiLevelStore`."""

    #: Redundancy class of the level: ``"parity"`` (cross-domain transfer
    #: costs) or ``"disk"`` (shared-bandwidth PFS costs).
    kind: str
    #: Capture cadence: update the mirror every ``every``-th committed
    #: checkpoint (the first checkpoint always seeds a full image).
    every: int
    #: Full window mirrors at the last capture: ``rank -> window -> data``.
    mirrors: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)
    #: Version number the mirrors correspond to (``None`` before any capture).
    captured_version: int | None = None
    #: Dirty write-set accumulated since the last capture, merged from the
    #: action log at every base checkpoint: ``(rank, window) -> [(off, cnt)]``.
    dirty: dict[tuple[int, str], list[tuple[int, int]]] = field(default_factory=dict)
    #: Captures performed (first is full, the rest incremental).
    captures: int = 0


class MultiLevelStore(CheckpointStore):
    """Hierarchical multi-level checkpointing with incremental upper levels.

    The paper's cost model (§5–§7) prices a *hierarchy* of failure domains:
    cheap in-memory copies guard single-node loss, while rarer, larger
    failures (a rank **and** its buddy, a whole domain) need copies placed
    further away — at a cost that would be ruinous to pay every checkpoint.
    This store composes the existing placements into such a hierarchy:

    * the **base** child store (default :class:`MemoryStore`) places every
      coordinated checkpoint exactly as today;
    * each **upper level** (``kind`` ``"parity"`` or ``"disk"``) keeps a full
      mirror of every rank's windows, refreshed only every ``every``-th
      committed checkpoint — and refreshed *incrementally*: the action log's
      :meth:`~repro.ft.checkpoint.ActionLog.dirty_regions` write-set, merged
      across the checkpoints since the level's last capture, determines which
      bytes move; a content diff against the mirror catches local stores the
      log never sees.  Moved bytes are metered as ``ft.multilevel_moved_bytes``
      against the ``ft.multilevel_full_bytes`` a non-incremental level would
      have shipped.

    A version whose base copies were lost (buddy pair failed together — the
    :class:`MemoryStore`'s catastrophic case) or evicted stays recoverable as
    long as an upper level captured it: evicted captured versions are kept as
    stripped archives (protocol state only, window data served from the
    mirrors), extending restore reach beyond ``keep_versions``.
    """

    name = "multilevel"

    #: Default hierarchy: a parity-class level every 2nd checkpoint and a
    #: disk-class level every 4th.
    DEFAULT_LEVELS: tuple[tuple[str, int], ...] = (("parity", 2), ("disk", 4))

    #: Level kinds with a defined cost mapping.
    LEVEL_KINDS = ("parity", "disk")

    def __init__(
        self,
        keep_versions: int = 2,
        base: "str | CheckpointStore | None" = "memory",
        levels: "tuple[tuple[str, int], ...] | None" = None,
    ) -> None:
        super().__init__(keep_versions)
        self.base = make_store(base, keep_versions=keep_versions)
        if isinstance(self.base, MultiLevelStore):
            raise CheckpointError("multilevel stores do not nest")
        specs = tuple(levels) if levels is not None else self.DEFAULT_LEVELS
        if not specs:
            raise CheckpointError(
                "a multilevel store needs at least one upper level; use the "
                "base store directly instead"
            )
        self.levels: list[_Level] = []
        for kind, every in specs:
            if kind not in self.LEVEL_KINDS:
                raise CheckpointError(
                    f"unknown multilevel level kind {kind!r}; choose from "
                    f"{list(self.LEVEL_KINDS)}"
                )
            if int(every) < 1:
                raise CheckpointError("level capture cadence must be at least 1")
            self.levels.append(_Level(kind=kind, every=int(every)))
        #: Evicted-but-captured versions, stripped of base copies: the upper
        #: mirrors still serve their window data.
        self.archived: dict[int, CheckpointVersion] = {}
        self._log: Any = None
        self._committed = 0

    # ------------------------------------------------------------------
    def bind(self, runtime: "RmaRuntime", *, level: int = 1) -> None:
        super().bind(runtime, level=level)
        self.base.bind(runtime, level=level)

    def add_placement_listener(self, listener) -> None:
        # The base store accounts its own placements; forward so listeners
        # see every level of the hierarchy through one registration.
        super().add_placement_listener(listener)
        self.base.add_placement_listener(listener)

    def attach_log(self, log: Any) -> None:
        self._log = log

    @property
    def buddies(self) -> dict[int, int]:
        return getattr(self.base, "buddies", {})

    def set_level_intervals(self, intervals: "list[int]") -> None:
        """Install capture cadences, e.g. resolved by the analytic model
        (:meth:`repro.study.model.IntervalModel.multilevel_intervals`)."""
        if len(intervals) != len(self.levels):
            raise CheckpointError(
                f"expected {len(self.levels)} cadences, got {len(intervals)}"
            )
        for lvl, every in zip(self.levels, intervals):
            if int(every) < 1:
                raise CheckpointError("level capture cadence must be at least 1")
            lvl.every = int(every)

    def close(self) -> None:
        self.base.close()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _place(self, version: CheckpointVersion, snapshots: Snapshots) -> None:
        self.base._place(version, snapshots)
        dirty = self._log.dirty_regions() if self._log is not None else {}
        for lvl in self.levels:
            for key, spans in dirty.items():
                lvl.dirty.setdefault(key, []).extend(spans)
        # Cadence counts *committed* checkpoints so that a retried attempt
        # (failure between the barriers) makes the same capture decision and
        # the last attempt before the commit wins.
        slot = self._committed + 1
        for lvl in self.levels:
            if slot == 1 or slot % lvl.every == 0:
                self._capture(lvl, version, snapshots)

    def _capture(
        self, lvl: _Level, version: CheckpointVersion, snapshots: Snapshots
    ) -> None:
        cluster = self.runtime.cluster
        costs = cluster.costs
        writers = max(1, len(snapshots))
        for rank, windows in snapshots.items():
            mirrors = lvl.mirrors.setdefault(rank, {})
            moved = 0
            full = 0
            for name, data in windows.items():
                full += int(data.nbytes)
                mirror = mirrors.get(name)
                if (
                    mirror is None
                    or mirror.shape != data.shape
                    or mirror.dtype != data.dtype
                ):
                    mirrors[name] = np.array(data, copy=True)
                    moved += int(data.nbytes)
                    continue
                flat = data.reshape(-1)
                mirror_flat = mirror.reshape(-1)
                mask = np.zeros(flat.shape[0], dtype=bool)
                for offset, count in lvl.dirty.get((rank, name), ()):
                    mask[offset : offset + count] = True
                # Local stores bypass the completion stream; diff the rest
                # against the mirror so the capture is always bit-exact.
                mask |= (flat != mirror_flat) & ~mask
                changed = int(np.count_nonzero(mask))
                if changed:
                    mirror_flat[mask] = flat[mask]
                moved += changed * int(data.dtype.itemsize)
            if lvl.kind == "disk":
                seconds = costs.pfs_write(moved, concurrent_writers=writers)
            else:
                seconds = costs.remote_transfer(moved)
            cluster.advance(rank, seconds, kind="protocol")
            cluster.metrics.incr("ft.multilevel_moved_bytes", moved, rank=rank)
            cluster.metrics.incr("ft.multilevel_full_bytes", full, rank=rank)
            self._account(
                rank, moved, level=lvl.kind, incremental=lvl.captures > 0
            )
        # Drop mirrors of ranks excised since the previous capture.
        for rank in [r for r in lvl.mirrors if r not in snapshots]:
            del lvl.mirrors[rank]
        lvl.dirty.clear()
        lvl.captured_version = version.version
        lvl.captures += 1

    def commit(self, version: CheckpointVersion) -> CheckpointVersion:
        committed = super().commit(version)
        self._committed += 1
        self._prune_archive()
        return committed

    def _evict(self, version: CheckpointVersion) -> None:
        self.base._evict(version)
        if any(lvl.captured_version == version.version for lvl in self.levels):
            # An upper level still serves this version's window data; keep
            # the protocol state, drop the (already-evicted) base copies.
            version.local = {}
            version.remote = {}
            self.archived[version.version] = version

    def _prune_archive(self) -> None:
        live = {lvl.captured_version for lvl in self.levels}
        for vnum in [v for v in self.archived if v not in live]:
            del self.archived[vnum]

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def available(self, version: CheckpointVersion, rank: int) -> bool:
        if self.base.available(version, rank):
            return True
        return any(
            lvl.captured_version == version.version and rank in lvl.mirrors
            for lvl in self.levels
        )

    def fetch(self, version: CheckpointVersion, rank: int) -> RestorePayload | None:
        payload = self.base.fetch(version, rank)
        if payload is not None:
            return payload
        costs = self.runtime.cluster.costs
        for lvl in self.levels:
            if lvl.captured_version != version.version or rank not in lvl.mirrors:
                continue
            windows = {name: data.copy() for name, data in lvl.mirrors[rank].items()}
            nbytes = sum(int(data.nbytes) for data in windows.values())
            if lvl.kind == "disk":
                seconds = costs.pfs_read(nbytes)
            else:
                seconds = costs.remote_transfer(nbytes)
            return RestorePayload(f"multilevel-{lvl.kind}", windows, nbytes, seconds)
        return None

    def latest_usable(self, ranks: list[int]) -> CheckpointVersion | None:
        found = super().latest_usable(ranks)
        if found is not None:
            return found
        for version in sorted(
            self.archived.values(), key=lambda v: v.version, reverse=True
        ):
            if all(self.available(version, rank) for rank in ranks):
                return version
        return None

    # ------------------------------------------------------------------
    def _drop(self, version: CheckpointVersion, rank: int) -> None:
        # Base copies in the failed rank's memory are lost; the upper-level
        # mirrors live across the failure domain the level guards and survive.
        self.base._drop(version, rank)

    def nbytes(self) -> int:
        total = super().nbytes() + self.base.nbytes()
        for lvl in self.levels:
            for windows in lvl.mirrors.values():
                total += sum(int(data.nbytes) for data in windows.values())
        return total


#: Registry of constructable checkpoint stores, by name.
STORES: dict[str, type[CheckpointStore]] = {
    MemoryStore.name: MemoryStore,
    DiskStore.name: DiskStore,
    ParityStore.name: ParityStore,
    MultiLevelStore.name: MultiLevelStore,
}
register_kind("store", STORES)


def make_store(
    spec: "str | CheckpointStore | None",
    *,
    keep_versions: int = 2,
    error: type[Exception] = CheckpointError,
) -> CheckpointStore:
    """Resolve a store specification into a fresh (or given) instance.

    ``None`` means the default (``"memory"``); a string is looked up in
    :data:`STORES` (an unknown name raises ``error`` listing the registered
    choices); a :class:`CheckpointStore` instance passes through unchanged,
    its own configuration winning over ``keep_versions``.
    """
    return resolve_component(
        "store", spec, STORES, CheckpointStore, error,
        default=MemoryStore.name, keep_versions=keep_versions,
    )
