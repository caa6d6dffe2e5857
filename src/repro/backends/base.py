"""The RMA backend protocol: who owns window storage and executes operations.

The runtime (:class:`~repro.rma.runtime.RmaRuntime`) is a *coordinator*: it
stamps actions with the recovery counters, runs the interceptor chain, tracks
epochs and charges virtual-time costs — but it never touches window memory
itself.  All storage and data movement belong to a :class:`Backend`:

* :meth:`Backend.issue` receives every communication action (wrapped in an
  :class:`~repro.rma.handles.OpHandle`) the moment it is issued and queues it
  per origin, in issue order;
* :meth:`Backend.complete` / :meth:`Backend.complete_rank` are called by the
  runtime's completion points (flush, unlock, flush_all, gsync, and the
  blocking wrappers); they hand the completing batch to the backend's one
  apply hook, :meth:`Backend._apply`, and return the handles in issue order
  — with every effect applied to the window buffers by the time they return.

Deferring every effect to the completion point is always legal because
actions within one epoch are unordered (§2.2).  It also makes every discard
effect-free by construction: an operation dropped from the queue never
touched memory.  The queue is shared by all backends, so the *completion
stream* — the issue-ordered sequence of handles returned from the completion
hooks — is identical across them, which is what keeps fault-tolerance
interceptors (who observe that stream) and recorded traces bit-identical.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import BackendError, RmaError
from repro.rma.actions import CommAction, OpKind, apply_accumulate
from repro.rma.handles import OpHandle
from repro.rma.window import Window, WindowRegistry

__all__ = ["Backend", "apply_action"]


def apply_action(action: CommAction, win: Window) -> None:
    """Execute one communication action against ``win``, in place.

    Get-like actions deposit the fetched values into ``action.data`` (the
    handle exposes them after completion); put-like actions mutate the
    target's buffer.  Before a get-like atomic overwrites ``data`` with the
    fetched previous values, the issued operand is preserved in
    ``action.operand`` so the fault-tolerance log can later re-apply the
    action to a restored window (log-based recovery, §7).  Shared by all
    backends so the per-op semantics cannot drift between them.
    """
    if action.kind.is_put_like and action.operand is None:
        action.operand = action.data
    if action.kind is OpKind.PUT:
        win.write(action.trg, action.offset, action.data)
    elif action.kind is OpKind.GET:
        action.data = win.read(action.trg, action.offset, action.count)
    elif action.kind is OpKind.COMPARE_AND_SWAP:
        view = win.view(action.trg, action.offset, action.count)
        previous = view.copy()
        if np.array_equal(previous, action.compare):
            view[...] = action.data
        action.data = previous
    elif action.kind.is_atomic:
        view = win.view(action.trg, action.offset, action.count)
        previous = apply_accumulate(view, action.data, action.op)
        if action.kind.is_get_like:
            action.data = previous
    else:  # pragma: no cover - defensive
        raise RmaError(f"unknown operation kind {action.kind!r}")


class Backend(abc.ABC):
    """Owner of window storage and operation execution for one runtime."""

    #: Registry name of the backend ("sim", "proc", ...).
    name: str = "abstract"

    def __init__(self) -> None:
        self.windows = WindowRegistry()
        self.nprocs = 0
        #: Issued-but-unapplied (handle, window) pairs per origin, issue order.
        self._queues: dict[int, list[tuple[OpHandle, Window]]] = {}

    # ------------------------------------------------------------------
    # Lifecycle and window storage
    # ------------------------------------------------------------------
    def bind(self, nprocs: int) -> None:
        """Attach the backend to a job of ``nprocs`` ranks.

        A backend instance belongs to exactly one runtime: it owns that job's
        window storage and pending queues, so rebinding would leak one job's
        state into another.  Construct a fresh instance per job instead.
        """
        if self.nprocs:
            raise BackendError(
                f"backend {self.name!r} is already bound to a {self.nprocs}-rank "
                f"job; backends hold job state (windows, queues) and cannot be "
                f"reused — construct a fresh instance per job"
            )
        self.nprocs = nprocs

    def create_window(self, name: str, size: int, dtype: np.dtype) -> Window:
        """Allocate one window (a buffer per rank) in backend-owned storage."""
        return self.windows.create(name, size, dtype, self.nprocs)

    def invalidate_rank(self, rank: int) -> None:
        """A rank failed: its buffers are lost in every window."""
        self.windows.invalidate_rank(rank)

    def reallocate_rank(self, rank: int) -> None:
        """A replacement process arrived: give it fresh buffers everywhere."""
        self.windows.reallocate_rank(rank)

    # ------------------------------------------------------------------
    # Real-failure plumbing (no-ops for in-process backends)
    # ------------------------------------------------------------------
    def poll_failures(self) -> list[int]:
        """Ranks whose *execution vehicle* died since the last poll.

        In-process backends have no vehicle to lose — failures only ever
        enter through the cluster's injector — so the default reports
        nothing.  A backend that runs ranks as real OS processes reports
        each dead worker exactly once per incarnation here; the runtime
        folds the report into :meth:`~repro.rma.runtime.RmaRuntime.
        observe_failures`, so real deaths surface through the *same*
        fail-stop path (window invalidation, interceptor notification,
        :class:`~repro.errors.ProcessFailedError`) as simulated ones.
        """
        return []

    def respawn_rank(self, rank: int) -> None:
        """Provide a fresh execution vehicle for a respawned ``rank``.

        Called by the runtime's respawn notification (the recovery path) —
        *not* by :meth:`reallocate_rank`, which also serves excised ranks
        that must never get a new process.
        """

    def close(self) -> None:
        """Release backend-owned resources (processes, shared memory).

        Called by :meth:`~repro.rma.runtime.RmaRuntime.finalize`.  Must be
        idempotent.  Window buffers must stay readable afterwards (results
        are often gathered after a session closed), so a backend with
        external storage swaps in private copies before releasing it.
        """

    def describe_rank(self, rank: int) -> str:
        """One-line execution-vehicle state of ``rank`` for diagnostics."""
        return "in-process"

    # ------------------------------------------------------------------
    # Operation execution: one per-origin queue, one apply hook
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _apply(self, src: int, batch: list[tuple[OpHandle, Window]]) -> None:
        """Apply a completing batch of ``src``'s queued ops, in issue order.

        Raising leaves the batch queued: the queue pops it only after this
        returns, so recovery's discard still finds (and poisons) the handles
        of a completion aborted by a failure.
        """

    def issue(self, handle: OpHandle, win: Window) -> None:
        """Queue one issued operation; its effect waits for completion."""
        self._queues.setdefault(handle.action.src, []).append((handle, win))

    def complete(self, src: int, trg: int) -> list[OpHandle]:
        """Complete all outstanding ``src -> trg`` operations, in issue order."""
        queue = self._queues.get(src)
        if not queue:
            return []
        batch = [(h, w) for h, w in queue if h.action.trg == trg]
        if not batch:
            return []
        self._apply(src, batch)
        self._queues[src] = [(h, w) for h, w in queue if h.action.trg != trg]
        return [h for h, _ in batch]

    def complete_rank(self, src: int) -> list[OpHandle]:
        """Complete all outstanding operations of ``src``, in issue order."""
        batch = self._queues.get(src)
        if not batch:
            return []
        self._apply(src, batch)
        del self._queues[src]
        return [h for h, _ in batch]

    def pending_ops(self, src: int | None = None) -> int:
        """Outstanding (issued, not completed) operations of ``src`` (or all)."""
        if src is not None:
            return len(self._queues.get(src, ()))
        return sum(len(queue) for queue in self._queues.values())

    def discard_pending(self) -> list[OpHandle]:
        """Drop every outstanding operation without applying it (rollback).

        Returns the discarded handles so the runtime can poison them.
        """
        discarded = [h for queue in self._queues.values() for h, _ in queue]
        self._queues.clear()
        return discarded

    def discard_rank(self, src: int) -> list[OpHandle]:
        """Drop every outstanding operation of origin ``src``, effect-free.

        Used by failure-tolerant delivery modes (:mod:`repro.qos`): a
        suspended rank's in-flight queue is abandoned without application.
        """
        return [h for h, _ in self._queues.pop(src, ())]

    def discard_targeting(self, src: int, trgs: frozenset[int]) -> list[OpHandle]:
        """Drop ``src``'s outstanding operations toward the ranks in ``trgs``.

        The complement of :meth:`discard_rank`: a *surviving* origin's
        in-flight operations toward freshly-suspended targets must leave the
        queue without being applied (there is no memory to apply them to),
        so the runtime can resolve them through the delivery mode instead.
        Returns the removed handles in issue order.
        """
        queue = self._queues.get(src)
        if not queue:
            return []
        dropped = [h for h, _ in queue if h.action.trg in trgs]
        if dropped:
            self._queues[src] = [(h, w) for h, w in queue if h.action.trg not in trgs]
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nprocs={self.nprocs}, "
            f"windows={len(self.windows)}, pending={self.pending_ops()})"
        )
