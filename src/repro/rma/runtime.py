"""The SPMD RMA runtime — the coordination layer of the reproduction (§6).

:class:`RmaRuntime` binds the formal model (:mod:`repro.rma`) to the virtual
cluster (:mod:`repro.simulator`) and to a pluggable execution
:class:`~repro.backends.base.Backend` that owns window storage:

* every ``put``/``get``/atomic is materialized as a
  :class:`~repro.rma.actions.CommAction` stamped with the recovery counters
  (EC, GC, SC, GNC), announced to the registered
  :class:`~repro.rma.interceptor.RmaInterceptor` chain and handed to the
  backend as an :class:`~repro.rma.handles.OpHandle`.  Nonblocking variants
  (``put_nb``/``get_nb``/``accumulate_nb``) stop there — their effects and
  buffers materialize when a completion point (``flush``/``unlock``/
  ``gsync``) closes the epoch; the blocking calls are the same issue path
  followed by an immediate completion of the ``src -> trg`` queue;
* every ``lock``/``unlock``/``flush``/``gsync`` maintains the epoch and
  counter state exactly as §2.2 and §4.1 prescribe (unlock and flush complete
  outstanding operations and close the ``src -> trg`` epoch, a gsync
  completes and closes everything everywhere and bumps GNC);
* interceptors observe the *completion stream*: ``before_comm`` fires at
  issue, ``after_comm`` when the operation completes — so fault-tolerance
  logging sees exactly the operations whose effects are part of the
  consistent state, independent of how the backend batches or reorders
  execution internally;
* fail-stop failures surface as
  :class:`~repro.errors.ProcessFailedError` the moment an action touches a
  dead process or a collective observes one — the fault-tolerance layer
  (:mod:`repro.ft`) catches it and drives recovery.

The driver is SPMD-by-iteration: a single thread issues actions on behalf of
each rank (``src`` is an explicit argument), which keeps the simulation
deterministic while preserving per-rank timing.  Determinism is
backend-independent: costs, counter stamps, interceptor calls and failure
observation all happen here, so two backends given the same program produce
bit-identical traces and clocks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import (
    LockError,
    ProcessFailedError,
    RankSuspendedError,
    SynchronizationError,
)
from repro.rma.actions import (
    AccumulateOp,
    CommAction,
    Counters,
    OpKind,
    SyncAction,
    SyncKind,
)
from repro.rma.counters import CounterBoard
from repro.rma.epoch import EpochTracker
from repro.rma.handles import OpHandle
from repro.rma.interceptor import InterceptorChain, RmaInterceptor
from repro.rma.replay import ReplayCursor, replay_apply
from repro.rma.window import Window, WindowRegistry
from repro.simulator.cluster import Cluster

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.backends.base import Backend
    from repro.qos.delivery import DeliveryMode

__all__ = ["RmaRuntime"]

#: The suspended set of every delivery mode that tolerates no failures.
_NONE_SUSPENDED: frozenset[int] = frozenset()


class _Accrual:
    """Virtual cost and metrics of issued-but-uncompleted ops of one (src, trg).

    Nonblocking issues are cheap on purpose: instead of advancing the origin
    clock and bumping metrics once per operation, the runtime accrues both
    here and charges them in one stroke when the pair's queue completes —
    the accounting analogue of the backend's batched execution.  Totals are
    identical to per-op charging; only the number of bookkeeping calls drops.
    """

    __slots__ = ("cost", "nbytes", "kinds")

    def __init__(self) -> None:
        self.cost = 0.0
        self.nbytes = 0
        self.kinds: dict[str, int] = defaultdict(int)


class RmaRuntime:
    """Coordinates RMA programs of an SPMD job over a backend and a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        backend: "str | Backend | None" = None,
    ) -> None:
        # Deferred import: repro.backends needs the rma model modules, which
        # this module's package pulls in — importing it lazily keeps every
        # entry-point import order (repro, repro.rma, repro.backends) valid.
        from repro.backends import make_backend

        self.cluster = cluster
        self.nprocs = cluster.nprocs
        self.backend = make_backend(backend)
        self.backend.bind(cluster.nprocs)
        self.epochs = EpochTracker(cluster.nprocs)
        self.counters = CounterBoard(cluster.nprocs)
        self.interceptors = InterceptorChain()
        self._finalized = False
        #: Failures already propagated to windows and interceptors.
        self._known_failed: set[int] = set()
        #: Uncharged cost/metrics of outstanding nonblocking ops, indexed
        #: ``[src][trg]``; each origin's dict keeps first-issue order, which
        #: fixes the order charges reach its clock.
        self._accrued: list[dict[int, _Accrual]] = [{} for _ in range(self.nprocs)]
        #: Active log-driven replay of a localized recovery (None = normal).
        self._replay: ReplayCursor | None = None
        #: Ranks permanently removed by a degraded continuation: they are
        #: never respawned, their kernels are skipped, operations targeting
        #: them are dropped and reads observe zeroed buffers.
        self.excised: frozenset[int] = frozenset()
        #: Installed delivery mode (:mod:`repro.qos`); ``None`` behaves
        #: exactly like the reliable mode — every failure path is fatal.
        self.delivery: "DeliveryMode | None" = None

    @property
    def windows(self) -> WindowRegistry:
        """The backend-owned window registry (storage lives with the backend)."""
        return self.backend.windows

    # ------------------------------------------------------------------
    # Interceptors (the PMPI-interposition analogue, §6.1)
    # ------------------------------------------------------------------
    def add_interceptor(self, interceptor: RmaInterceptor) -> None:
        """Register ``interceptor``; its hooks fire on every subsequent action."""
        self.interceptors.add(interceptor, self)

    def remove_interceptor(self, interceptor: RmaInterceptor) -> None:
        """Unregister ``interceptor``."""
        self.interceptors.remove(interceptor)

    # ------------------------------------------------------------------
    # Delivery modes (repro.qos)
    # ------------------------------------------------------------------
    def set_delivery(self, mode: "DeliveryMode | None") -> None:
        """Install the delivery mode consulted on every failure path.

        ``None`` (the default) and the reliable mode are indistinguishable:
        any touch of a failed rank raises.  A tolerant mode (best-effort)
        turns failed non-excised ranks into *suspended* ones — operations
        toward them drop or serve stale data, the suspended rank's own calls
        raise :class:`~repro.errors.RankSuspendedError` (which the scheduler
        catches per rank), and the session repairs them at step boundaries.
        """
        self.delivery = mode

    def suspended_ranks(self) -> frozenset[int]:
        """Failed ranks the installed delivery mode tolerates (usually empty).

        Backend-independent at every point of the program: the failed set
        only changes at injector-controlled completion-stream positions,
        which are identical across sim/proc by construction.
        """
        delivery = self.delivery
        if delivery is None or not delivery.tolerates_failures:
            return _NONE_SUSPENDED
        return delivery.suspended(self)

    # ------------------------------------------------------------------
    # Window lifecycle
    # ------------------------------------------------------------------
    def win_allocate(self, name: str, size: int, dtype: np.dtype = np.float64) -> Window:
        """Collectively allocate a window on every rank (MPI_Win_allocate).

        Charged as a barrier plus the local allocation cost at each rank.
        """
        self._ensure_all_alive("win_allocate")
        window = self.backend.create_window(name, size, np.dtype(dtype))
        alloc_cost = self.cluster.costs.local_copy(window.nbytes_per_rank)
        for rank in self.cluster.alive_ranks():
            self.cluster.advance(rank, alloc_cost, kind="comm")
        self.cluster.barrier()
        self.interceptors.on_window_create(window)
        self.cluster.metrics.incr("rma.windows_allocated")
        return window

    def window(self, name: str) -> Window:
        """Look up a window by name."""
        return self.windows.get(name)

    def local(self, rank: int, window: str) -> np.ndarray:
        """The local window buffer of ``rank`` (direct load/store access).

        An excised rank's buffer stays readable (it was reallocated to zeros
        when the rank was removed), so degraded jobs can still gather results.
        """
        if rank not in self.excised:
            if rank in self.suspended_ranks():
                raise RankSuspendedError(rank)
            self.cluster.ensure_alive(rank)
        return self.windows.get(window).local(rank)

    def local_view(
        self, rank: int, window: str, offset: int = 0, count: int | None = None
    ) -> np.ndarray:
        """A mutable view of ``count`` elements of ``rank``'s own buffer.

        Context-friendly entry point used by :mod:`repro.api`: per-rank
        contexts hand kernels numpy views of their own window slice so local
        loads/stores need no runtime call at all.  ``count=None`` means "to
        the end of the window".
        """
        if rank not in self.excised:
            if rank in self.suspended_ranks():
                raise RankSuspendedError(rank)
            self.cluster.ensure_alive(rank)
        win = self.windows.get(window)
        if count is None:
            count = win.size - offset
        return win.view(rank, offset, count)

    # ------------------------------------------------------------------
    # Nonblocking communication actions
    # ------------------------------------------------------------------
    def put_nb(
        self, src: int, trg: int, window: str, offset: int, data: np.ndarray
    ) -> OpHandle:
        """Issue a nonblocking write into ``trg``'s window (MPI_Put).

        The write becomes visible when the next ``flush``/``unlock``/``gsync``
        completes the ``src -> trg`` epoch.
        """
        win = self.windows.get(window)
        payload = self._coerce_payload(data, win)
        action = self._make_comm(
            OpKind.PUT, src, trg, win, offset, payload.size, combine=False,
            data=payload,
        )
        return self._issue_nb(action, win)

    def get_nb(
        self, src: int, trg: int, window: str, offset: int, count: int
    ) -> OpHandle:
        """Issue a nonblocking read of ``trg``'s window (MPI_Get).

        The handle's buffer (:meth:`~repro.rma.handles.OpHandle.result`)
        materializes at the next completion point; reading it earlier raises.
        """
        win = self.windows.get(window)
        action = self._make_comm(
            OpKind.GET, src, trg, win, offset, count, combine=False,
        )
        return self._issue_nb(action, win)

    def accumulate_nb(
        self,
        src: int,
        trg: int,
        window: str,
        offset: int,
        data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> OpHandle:
        """Issue a nonblocking combining put into ``trg`` (MPI_Accumulate)."""
        win = self.windows.get(window)
        payload = self._coerce_payload(data, win)
        action = self._make_comm(
            OpKind.ACCUMULATE, src, trg, win, offset, payload.size,
            combine=op.combining, data=payload, op=op,
        )
        return self._issue_nb(action, win)

    # ------------------------------------------------------------------
    # Blocking communication actions (issue + immediate completion)
    # ------------------------------------------------------------------
    def put(
        self,
        src: int,
        trg: int,
        window: str,
        offset: int,
        data: np.ndarray,
    ) -> CommAction:
        """Write ``data`` into ``trg``'s window at ``offset`` (MPI_Put)."""
        handle = self.put_nb(src, trg, window, offset, data)
        self._complete_pair(handle.action.src, handle.action.trg)
        return handle.action

    def get(
        self, src: int, trg: int, window: str, offset: int, count: int
    ) -> np.ndarray:
        """Read ``count`` elements from ``trg``'s window at ``offset`` (MPI_Get)."""
        handle = self.get_nb(src, trg, window, offset, count)
        self._complete_pair(src, trg)
        data = handle.result()
        assert data is not None
        return data

    def accumulate(
        self,
        src: int,
        trg: int,
        window: str,
        offset: int,
        data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> CommAction:
        """Combine ``data`` into ``trg``'s window (MPI_Accumulate)."""
        handle = self.accumulate_nb(src, trg, window, offset, data, op)
        self._complete_pair(src, trg)
        return handle.action

    def get_accumulate(
        self,
        src: int,
        trg: int,
        window: str,
        offset: int,
        data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> np.ndarray:
        """Atomically combine ``data`` and return the previous target values."""
        win = self.windows.get(window)
        payload = self._coerce_payload(data, win)
        action = self._make_comm(
            OpKind.GET_ACCUMULATE, src, trg, win, offset, payload.size,
            combine=op.combining, data=payload, op=op,
        )
        handle = self._issue_nb(action, win)
        self._complete_pair(src, trg)
        data = handle.result()
        assert data is not None
        return data

    def fetch_and_op(
        self,
        src: int,
        trg: int,
        window: str,
        offset: int,
        value: float,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> float:
        """Single-element atomic fetch-and-op (MPI_Fetch_and_op)."""
        win = self.windows.get(window)
        payload = np.asarray([value], dtype=win.dtype)
        action = self._make_comm(
            OpKind.FETCH_AND_OP, src, trg, win, offset, 1,
            combine=op.combining, data=payload, op=op,
        )
        handle = self._issue_nb(action, win)
        self._complete_pair(src, trg)
        data = handle.result()
        assert data is not None
        return data[0]

    def compare_and_swap(
        self,
        src: int,
        trg: int,
        window: str,
        offset: int,
        compare: float,
        value: float,
    ) -> float:
        """Single-element atomic CAS; returns the previous target value."""
        win = self.windows.get(window)
        payload = np.asarray([value], dtype=win.dtype)
        cmp = np.asarray([compare], dtype=win.dtype)
        action = self._make_comm(
            OpKind.COMPARE_AND_SWAP, src, trg, win, offset, 1,
            combine=True, data=payload, compare=cmp,
        )
        handle = self._issue_nb(action, win)
        self._complete_pair(src, trg)
        data = handle.result()
        assert data is not None
        return data[0]

    # ------------------------------------------------------------------
    # Synchronization actions
    # ------------------------------------------------------------------
    def lock(self, src: int, trg: int, structure: str | None = None) -> SyncAction:
        """Acquire a lock on ``trg``; fetches-and-increments ``SC_trg`` (§4.1 C).

        Toward a rank suspended by a tolerant delivery mode the sync *drops*:
        there is no lock manager to talk to on dead hardware, no ``SC`` is
        consumed, and the caller proceeds against stale/zero data (counted in
        the mode's :class:`~repro.qos.delivery.QosMetrics`).
        """
        self._pre_action(src, trg)
        if self.delivery is not None and trg in self.suspended_ranks():
            action = SyncAction(
                kind=SyncKind.LOCK, src=src, trg=trg,
                counters=self._stamp(src, trg), structure=structure,
            )
            self.delivery.metrics.count("dropped_syncs", src)
            self.cluster.metrics.incr("qos.dropped_syncs", rank=src)
            return action
        sc = self.counters.on_lock(src, trg, structure)
        action = SyncAction(
            kind=SyncKind.LOCK, src=src, trg=trg,
            counters=self._stamp(src, trg, sc=sc), structure=structure,
        )
        return self._issue_sync(action, cost=self.cluster.costs.lock())

    def unlock(self, src: int, trg: int, structure: str | None = None) -> SyncAction:
        """Release a lock on ``trg``; completes and closes the epoch (§2.2).

        Toward a suspended rank the release degrades gracefully: a lock
        acquired before the target died is released locally, one whose
        acquisition was itself dropped unwinds without error, and the pair's
        in-flight operations resolve through the delivery mode.
        """
        self._pre_action(src, trg)
        if self.delivery is not None and trg in self.suspended_ranks():
            try:
                self.counters.on_unlock(src, trg, structure)
            except LockError:
                pass  # the matching lock itself was dropped
            self._complete_pair(src, trg)  # resolves in-flights via the mode
            self.epochs.close_epoch(src, trg)
            action = SyncAction(
                kind=SyncKind.UNLOCK, src=src, trg=trg,
                counters=self._stamp(src, trg), structure=structure,
            )
            self.delivery.metrics.count("dropped_syncs", src)
            self.cluster.metrics.incr("qos.dropped_syncs", rank=src)
            return action
        self.counters.on_unlock(src, trg, structure)
        self._complete_pair(src, trg)
        action = SyncAction(
            kind=SyncKind.UNLOCK, src=src, trg=trg,
            counters=self._stamp(src, trg), structure=structure,
        )
        result = self._issue_sync(action, cost=self.cluster.costs.unlock())
        self.epochs.close_epoch(src, trg)
        return result

    def flush(self, src: int, trg: int) -> SyncAction:
        """Complete all outstanding ``src -> trg`` operations (MPI_Win_flush).

        Completes the pair's queued operations at the backend, closes the
        epoch and increments ``GC_src`` (§4.1 B).
        """
        self._pre_action(src, trg)
        self._complete_pair(src, trg)
        pending = self.epochs.pending(src, trg)
        self.counters.on_flush(src)
        action = SyncAction(
            kind=SyncKind.FLUSH, src=src, trg=trg,
            counters=self._stamp(src, trg),
        )
        result = self._issue_sync(action, cost=self.cluster.costs.flush(pending))
        self.epochs.close_epoch(src, trg)
        return result

    def flush_all(self, src: int) -> SyncAction:
        """Complete all outstanding operations of ``src`` (MPI_Win_flush_all)."""
        self.observe_failures()
        suspended = self.suspended_ranks()
        if src in suspended:
            raise RankSuspendedError(src)
        self.cluster.ensure_alive(src)
        # Completing towards a dead target must fail *before* any effect is
        # applied, on every backend alike — the in-process apply would raise
        # only on reaching the dead target's invalidated buffer, after earlier
        # ops of the batch landed, and a proc worker writes a dead rank's slab
        # without noticing — so the liveness check (not the apply) has to be
        # the common failure point.  Suspended targets are exempt: their
        # in-flight operations resolve through the delivery mode.
        for trg in self._accrued[src]:
            if trg not in suspended:
                self.cluster.ensure_alive(trg)
        self._complete_rank(src)
        pending = self.epochs.pending(src)
        gc = self.counters.on_flush(src)
        action = SyncAction(
            kind=SyncKind.FLUSH_ALL, src=src, trg=None,
            counters=Counters(gc=gc, gnc=self.counters.gnc(src)),
        )
        result = self._issue_sync(action, cost=self.cluster.costs.flush(pending))
        self.epochs.close_all_epochs(src)
        return result

    def gsync(self) -> list[SyncAction]:
        """Global window synchronization (MPI_Win_fence / upc_barrier).

        Collective over all ranks: completes every outstanding operation,
        closes every epoch at every process and increments every ``GNC``
        (§4.1 E).  Raises :class:`~repro.errors.ProcessFailedError` if any
        participant has failed — this is where failures are usually observed.
        """
        self._ensure_all_alive("gsync")
        if any(self.counters.holds_any_lock(r) for r in self.cluster.alive_ranks()):
            raise SynchronizationError("gsync while a lock is held")
        for rank in range(self.nprocs):
            self._complete_rank(rank)
        # A failure that fired *during* the completion loop (an injected kill
        # counts completions) must surface here, before any rank resumes past
        # the collective: the closing barrier below only synchronizes ranks
        # alive at its entry, so it cannot observe this one — and a rank that
        # resumed would perform post-sync local stores the action log never
        # sees, which a localized replay could then not reconstruct.
        failed = self._fatal_failures()
        if failed:
            raise ProcessFailedError(
                failed[0], f"gsync observed failed ranks {failed} (fail-stop)"
            )
        cost = self.cluster.costs.gsync(self.nprocs)
        self._collective_barrier(cost=cost)  # raises on failed participants
        self.counters.on_gsync()
        self.epochs.close_global_epoch()
        actions = []
        for rank in self.cluster.alive_ranks():
            counters = self.counters.states[rank]
            action = SyncAction(
                kind=SyncKind.GSYNC, src=rank, trg=None,
                counters=Counters(gc=counters.gc, gnc=counters.gnc),
            )
            self.interceptors.before_sync(action)
            self.interceptors.after_sync(action)
            actions.append(action)
        self.cluster.metrics.incr("rma.gsyncs")
        return actions

    def barrier(self) -> float:
        """Plain barrier (no window synchronization, no epoch effect)."""
        self._ensure_all_alive("barrier")
        return self._collective_barrier()

    def _collective_barrier(self, cost: float | None = None) -> float:
        """Cluster barrier that tolerates mid-barrier suspensions.

        Advancing the survivors' clocks to the barrier point can itself fire
        a time-scheduled failure, which :meth:`~repro.simulator.cluster.
        Cluster.barrier` reports as :class:`ProcessFailedError`.  Under a
        tolerant delivery mode a participant that merely became *suspended*
        must not abort the collective: the failure is folded into the
        suspended set and the survivors re-synchronize without it.  The
        retry's time points are injector-controlled, hence identical across
        backends — determinism is unaffected.
        """
        while True:
            try:
                return self.cluster.barrier(cost=cost)
            except ProcessFailedError:
                fatal = self._fatal_failures()
                if not self.suspended_ranks() or fatal:
                    raise

    # ------------------------------------------------------------------
    # Compute and lifecycle
    # ------------------------------------------------------------------
    def compute(self, rank: int, flops: float) -> float:
        """Charge ``flops`` of application compute on ``rank``'s clock.

        During a log-driven replay only the *restoring* ranks do real work
        (their lost computation is re-executed); survivors merely re-derive
        values they already hold, so their charge is suppressed — in a real
        system they would be waiting for the recovering processes (§4.2).
        """
        if rank in self.suspended_ranks():
            raise RankSuspendedError(rank)
        self.cluster.ensure_alive(rank)
        if self._replay is not None and rank not in self._replay.restoring:
            return self.cluster.now(rank)
        return self.cluster.advance(rank, self.cluster.costs.compute(flops))

    def finalize(self) -> None:
        """Finish the run: flush interceptor statistics, release the backend.

        Idempotent.  Backend teardown (worker processes, shared-memory
        segments of the real-process backend) happens here; window contents
        stay readable afterwards so results can still be gathered.
        """
        if not self._finalized:
            self._finalized = True
            self.interceptors.on_finalize()
            self.backend.close()

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def observe_failures(self, now: float | None = None) -> list[int]:
        """Fire scheduled failures and propagate them to windows/interceptors.

        Diffing against the runtime's own known-failed set also catches ranks
        killed directly with :meth:`~repro.simulator.cluster.Cluster.fail_rank`
        (not just time-scheduled events): their window buffers are invalidated
        and every interceptor's ``on_failure_detected`` fires exactly once.

        Backends whose ranks have a *real* execution vehicle (the OS worker
        processes of the ``proc`` backend) report vehicle deaths here too —
        folded into the cluster's failed set first, so a SIGKILLed worker
        surfaces through exactly the same path as a scheduled failure.
        """
        cluster = self.cluster
        for rank in self.backend.poll_failures():
            if cluster.is_alive(rank):
                cluster.fail_rank(rank)
        if cluster.injector.has_pending():
            cluster.check_failures(now if now is not None else cluster.elapsed())
        failed = cluster.injector.failed_ranks
        if failed <= self._known_failed:
            return []
        newly = sorted(failed - self._known_failed)
        for rank in newly:
            self._known_failed.add(rank)
            self.backend.invalidate_rank(rank)
            self.interceptors.on_failure_detected(rank)
        return newly

    def notify_respawn(self, rank: int) -> None:
        """Tell the runtime a replacement process took over ``rank``.

        Called by the recovery path (:mod:`repro.ft.recovery`) after the
        cluster respawned the rank: resets the rank's epoch and counter state,
        gives the backend a chance to provide a fresh execution vehicle (a new
        worker process on the ``proc`` backend) and notifies interceptors.
        """
        self._known_failed.discard(rank)
        self.epochs.reset_rank(rank)
        self.counters.reset_rank(rank)
        self.backend.respawn_rank(rank)
        self.interceptors.on_respawn(rank)

    def pending_nb_ops(self, src: int | None = None) -> int:
        """Issued-but-uncompleted nonblocking operations of ``src`` (or all)."""
        return self.backend.pending_ops(src)

    def discard_pending(self) -> int:
        """Drop every outstanding nonblocking operation (recovery rollback).

        The dropped operations were issued after the checkpoint being restored
        and never completed, so no committed state reflects them; their
        handles are poisoned so a later ``result()`` raises instead of
        reporting rolled-back data.  Returns the number of discarded ops.
        """
        discarded = self.backend.discard_pending()
        for handle in discarded:
            handle._mark_discarded()
        for accrued in self._accrued:
            accrued.clear()
        self.epochs.clear_pending()
        return len(discarded)

    def quiesce_suspended(self) -> None:
        """Drain in-flight operations involving suspended ranks, effect-free.

        Called by the session immediately before *repairing* suspended ranks
        (:mod:`repro.qos`): an operation still queued toward a rank about to
        be respawned-and-restored would otherwise land on top of the restored
        checkpoint at its origin's next completion point, so the repaired
        state would depend on that completion's timing instead of on the
        delivery mode's decision.  Survivor operations toward the suspended
        ranks resolve through the delivery mode (drop/stale, same
        deterministic hash as post-failure issues); the suspended ranks' own
        queues are abandoned.
        """
        suspended = self.suspended_ranks()
        if not suspended:
            return
        for src in range(self.cluster.nprocs):
            if src in suspended:
                self._discard_from(src)
            elif self.backend.pending_ops(src):
                self._discard_toward(src, suspended)

    # ------------------------------------------------------------------
    # Log-driven replay (localized recovery, §7)
    # ------------------------------------------------------------------
    @property
    def replaying(self) -> bool:
        """Whether a localized recovery's replay is currently active."""
        return self._replay is not None

    @property
    def replay_restoring(self) -> frozenset[int]:
        """Ranks being reconstructed by the active replay (empty when none).

        During a localized replay only these ranks perform real work;
        survivors re-derive values they already hold.  Instrumented kernels
        (e.g. the KV service's latency recorder) use this to keep survivors'
        original measurements instead of overwriting them with replay-time
        clocks.
        """
        return self._replay.restoring if self._replay is not None else frozenset()

    def begin_replay(self, cursor: ReplayCursor) -> None:
        """Enter replay mode: issued actions matching ``cursor`` are suppressed.

        Installed by :class:`~repro.ft.protocols.LocalizedReplay` after it
        restored the failed ranks; the deterministic re-execution then drains
        the cursor and the runtime drops back to normal execution by itself.
        """
        if cursor.exhausted:
            return
        self._replay = cursor

    def end_replay(self) -> ReplayCursor | None:
        """Abort replay mode (a further failure interrupted it); return the cursor."""
        cursor, self._replay = self._replay, None
        return cursor

    def replay_step_boundary(self) -> None:
        """Advance the replay across a job-step boundary (session-driven).

        Step boundaries are where the cursor's phases align with the original
        execution: the survivors' crash-time windows are restored once the
        fully-completed steps have drained, and replay mode ends when the
        partial crash step has drained too.
        """
        if self._replay is None:
            return
        if self._replay.step_boundary(self):
            self._replay = None
            self.cluster.metrics.incr("ft.replays_completed")

    # ------------------------------------------------------------------
    # Degraded continuation (best-effort mode)
    # ------------------------------------------------------------------
    def excise_rank(self, rank: int) -> None:
        """Permanently remove a failed rank from the job (best-effort mode).

        The rank is *not* respawned: its window buffers are reallocated to
        zeros so survivors' reads observe a defined value, operations
        targeting it are silently dropped, and the scheduler skips its
        kernels.  Used by :class:`~repro.ft.protocols.ContinueDegraded`.
        """
        if self.cluster.is_alive(rank):
            raise ProcessFailedError(rank, f"rank {rank} is alive; cannot excise it")
        self.backend.reallocate_rank(rank)
        self.counters.release_all_locks(rank)
        self.excised = self.excised | {rank}
        self.cluster.metrics.incr("ft.excised_ranks", rank=rank)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_all_alive(self, what: str) -> None:
        """Collectives observe pending failures and fail when any rank is dead.

        A collective involves every rank, so a process that already failed —
        even one whose failure was observed earlier — makes it raise; this is
        how the paper's applications learn they must recover before
        synchronizing again (§2.4).  Excised ranks are no longer members of
        the (shrunk) job and do not count — and neither do ranks a tolerant
        delivery mode merely *suspends* (they are repaired at the next step
        boundary; the survivors' collective proceeds without them).
        """
        dead = self._fatal_failures()
        if dead:
            raise ProcessFailedError(dead[0], f"{what} observed failed ranks {dead}")

    def _fatal_failures(self) -> list[int]:
        """Observe failures; return the failed ranks that are members and not suspended."""
        self.observe_failures()
        failed = self.cluster.injector.failed_ranks
        if not failed:
            return []
        suspended = self.suspended_ranks()
        return [r for r in sorted(failed) if r not in self.excised and r not in suspended]

    def _pre_action(self, src: int, trg: int) -> None:
        """Failure check before any targeted action: src then trg must be alive.

        A target excised by a degraded continuation is exempt — operations
        towards it are dropped later rather than raising, which is what lets
        survivors keep running without recovery code.  A target *suspended*
        by a tolerant delivery mode is likewise exempt (the issue path will
        resolve the operation as a drop or stale read); a suspended *source*
        raises :class:`~repro.errors.RankSuspendedError` so the scheduler
        skips just that rank's turn.
        """
        cluster = self.cluster
        # A pending time-scheduled failure fires against the origin's clock.
        self.observe_failures(cluster.now(src) if cluster.injector.has_pending() else None)
        suspended = self.suspended_ranks()
        if src in suspended:
            raise RankSuspendedError(src)
        cluster.ensure_alive(src)
        if trg not in self.excised and trg not in suspended:
            cluster.ensure_alive(trg)

    @staticmethod
    def _coerce_payload(data: np.ndarray, win: Window) -> np.ndarray:
        """Copy a user payload into a flat array of the window's dtype.

        The copy decouples the action from the caller's buffer: a nonblocking
        operation applied only at flush time, and actions retained by
        interceptors, must keep the values the operation was
        issued with even if the caller mutates its array afterwards (the
        stencil passes live window slices, for example).
        """
        return np.array(data, dtype=win.dtype, copy=True).ravel()

    def _stamp(self, src: int, trg: int, *, sc: int | None = None) -> Counters:
        """Counters a fresh ``src -> trg`` action carries (Eq. 1/3)."""
        counters = self.counters.states[src]
        return Counters(
            ec=self.epochs.states[src].epoch_of_target[trg],
            gc=counters.gc,
            sc=counters.sc_held.get(trg, 0) if sc is None else sc,
            gnc=counters.gnc,
        )

    def _make_comm(
        self,
        kind: OpKind,
        src: int,
        trg: int,
        win: Window,
        offset: int,
        count: int,
        *,
        combine: bool,
        data: np.ndarray | None = None,
        compare: np.ndarray | None = None,
        op: AccumulateOp = AccumulateOp.REPLACE,
    ) -> CommAction:
        # Window-addressing errors first (they name the rank and window), then
        # liveness: a malformed nonblocking op must fail at its call site,
        # identically on every backend, not at the flush that would apply it.
        win.check_access(trg, offset, count)
        self._pre_action(src, trg)
        window = win.name
        return CommAction(
            kind=kind, src=src, trg=trg, window=window, offset=offset,
            count=count, combine=combine, counters=self._stamp(src, trg),
            op=op, data=data, compare=compare,
        )

    def _issue_nb(self, action: CommAction, win: Window) -> OpHandle:
        """Issue one communication action: interceptors, backend, accrual.

        The action's network cost and metrics are *accrued*, not charged —
        they hit the origin's clock when the pair's queue completes, mirroring
        how the backend may defer execution itself.

        Two special paths bypass the normal pipeline entirely (no
        interceptors, no backend, no accrual — the action is not part of new
        committed state):

        * a target excised by a degraded continuation: the operation is
          *dropped* — the handle completes immediately, get-like results
          observe the excised rank's zeroed buffer (best-effort semantics);
        * an active :class:`~repro.rma.replay.ReplayCursor` that matches the
          action: the operation already happened before the crash — its
          logged effect is re-applied only to restoring ranks' windows and
          logged get data is served, so survivors are never touched twice.
        """
        if action.trg in self.excised:
            handle = OpHandle(action)
            if action.kind.is_get_like:
                action.data = np.zeros(action.count, dtype=win.dtype)
            handle._mark_completed()
            self.cluster.metrics.incr("ft.dropped_ops", rank=action.src)
            return handle
        if self.delivery is not None and action.trg in self.suspended_ranks():
            # Tolerated by the delivery mode: resolved right here (drop or
            # stale service) — the operation never reaches the backend, the
            # action log, the epochs or the accrual, exactly like the excised
            # path above; it is not part of any committed state.
            handle = OpHandle(action)
            self.delivery.resolve(action, win, self)
            handle._mark_completed()
            return handle
        if self._replay is not None:
            logged = self._replay.consume(action)
            if logged is not None:
                return self._suppress_replayed(action, logged, win)
        self.interceptors.before_comm(action)
        handle = OpHandle(action)
        self.backend.issue(handle, win)
        accrued = self._accrued[action.src]
        accrual = accrued.get(action.trg)
        if accrual is None:
            accrual = accrued[action.trg] = _Accrual()
        kind = action.kind
        nbytes = action.count * win.itemsize
        accrual.cost += self.cluster.costs.remote_transfer(nbytes, atomic=kind.is_atomic)
        accrual.nbytes += nbytes
        accrual.kinds[kind.value] += 1
        self.epochs.record_access(action.src, action.trg)
        return handle

    def _suppress_replayed(
        self, action: CommAction, logged: CommAction, win: Window
    ) -> OpHandle:
        """Complete a re-issued action from its logged twin instead of executing it."""
        assert self._replay is not None
        handle = OpHandle(action)
        if action.kind.is_get_like and logged.data is not None:
            action.data = np.array(logged.data, copy=True)
        if action.kind.is_put_like and logged.trg in self._replay.restoring:
            nbytes = replay_apply(logged, win)
            self.cluster.advance(
                logged.trg, self.cluster.costs.local_copy(nbytes), kind="protocol"
            )
            self.cluster.metrics.incr("ft.replayed_bytes", nbytes, rank=logged.trg)
        handle._mark_completed()
        return handle

    def _complete_pair(self, src: int, trg: int) -> None:
        """Complete all outstanding ``src -> trg`` ops: apply, notify, charge."""
        if trg in self.suspended_ranks():
            self._discard_toward(src, frozenset((trg,)))
            return
        self._retire(self.backend.complete(src, trg))
        self._charge_accrued(src, trg)

    def _complete_rank(self, src: int) -> None:
        """Complete all outstanding ops of ``src`` across every target.

        Fail-stop: a process that died after issuing but before completing
        performs no further operations — its queue stays pending for
        recovery's discard.  The real-process backend enforces this naturally
        (the dead worker cannot apply its batch); raising here makes the
        in-process backends refuse at the exact same point, so completion
        streams — and everything downstream, like the action log a localized
        replay trusts — stay bit-identical across backends.

        Under a tolerant delivery mode the same two situations resolve
        without raising: a suspended origin's queue is abandoned (poisoned
        handles, like a rollback's discard), and a surviving origin's
        in-flight operations toward suspended targets are resolved through
        the mode (drop or stale service) instead of being applied.
        """
        suspended = self.suspended_ranks()
        if src in suspended:
            self._discard_from(src)
            return
        if suspended:
            self._discard_toward(src, suspended)
        if (
            src not in self.excised
            and not self.cluster.is_alive(src)
            and self.backend.pending_ops(src)
        ):
            raise ProcessFailedError(src)
        self._retire(self.backend.complete_rank(src))
        for trg in list(self._accrued[src]):
            self._charge_accrued(src, trg)

    def _discard_toward(self, src: int, trgs: frozenset[int]) -> None:
        """Resolve ``src``'s in-flight ops toward suspended targets, effect-free.

        The operations were issued while their target was still alive; under
        a tolerant delivery mode their completion becomes a drop/stale
        resolution (there is no memory to apply them to) with the same
        deterministic hash as operations issued after the failure.  Their
        accrued network cost is dropped with them: the message was never
        delivered.
        """
        assert self.delivery is not None
        for handle in self.backend.discard_targeting(src, trgs):
            action = handle.action
            self.delivery.resolve(action, self.windows.get(action.window), self)
            handle._mark_completed()
        accrued = self._accrued[src]
        for trg in trgs:
            accrued.pop(trg, None)

    def _discard_from(self, src: int) -> None:
        """Abandon a suspended origin's whole in-flight queue (fail-stop).

        The dead rank performs no further operations: its handles are
        poisoned exactly as a rollback's discard poisons them, and nothing
        is charged to its clock — the repair at the next step boundary
        restores it from the newest checkpoint instead.
        """
        assert self.delivery is not None
        handles = self.backend.discard_rank(src)
        for handle in handles:
            handle._mark_discarded()
        if handles:
            self.delivery.metrics.count("discarded_inflight", src, len(handles))
            self.cluster.metrics.incr(
                "qos.discarded_inflight", len(handles), rank=src
            )
        self._accrued[src].clear()

    def _retire(self, handles: list[OpHandle]) -> None:
        """Mark completed handles and emit the completion stream to interceptors."""
        for handle in handles:
            handle._mark_completed()
            self.interceptors.after_comm(handle.action)

    def _charge_accrued(self, src: int, trg: int) -> None:
        """Charge the accrued cost/metrics of a completed ``(src, trg)`` batch."""
        accrual = self._accrued[src].pop(trg, None)
        if accrual is None:
            return
        self.cluster.advance(src, accrual.cost, kind="comm")
        metrics = self.cluster.metrics
        for kind, count in accrual.kinds.items():
            metrics.incr(f"rma.{kind}", count, rank=src)
        metrics.incr("rma.bytes_moved", accrual.nbytes, rank=src)

    def _issue_sync(self, action: SyncAction, *, cost: float) -> SyncAction:
        self.interceptors.before_sync(action)
        self.cluster.advance(action.src, cost, kind="comm")
        self.interceptors.after_sync(action)
        self.cluster.metrics.incr(f"rma.{action.kind.value}", rank=action.src)
        return action

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RmaRuntime(nprocs={self.nprocs}, backend={self.backend.name!r}, "
            f"windows={len(self.windows)}, interceptors={len(self.interceptors)})"
        )
