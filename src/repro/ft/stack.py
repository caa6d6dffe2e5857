"""Policy-driven construction of the fault-tolerance stack.

Hand-wiring the ftRMA protocol takes four objects in the right order: an
:class:`~repro.ft.checkpoint.ActionLog` interceptor, a
:class:`~repro.ft.stores.CheckpointStore` placement strategy, a
:class:`~repro.ft.checkpoint.CoordinatedCheckpointer` registered *after* the
log, and a :class:`~repro.ft.recovery.RecoveryManager` bound to both plus a
:class:`~repro.ft.protocols.RecoveryProtocol` strategy.
:func:`build_ft_stack` performs that wiring once, from plain keyword
parameters, so higher layers (notably the declarative
:class:`~repro.api.policy.FaultTolerancePolicy` of :mod:`repro.api`) can
install the whole protocol with one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ft.checkpoint import ActionLog, CoordinatedCheckpointer
from repro.ft.protocols import RecoveryProtocol, make_protocol
from repro.ft.recovery import RecoveryManager
from repro.ft.stores import CheckpointStore, make_store
from repro.qos.delivery import DeliveryMode, make_delivery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = ["FtStack", "build_ft_stack"]


@dataclass
class FtStack:
    """The fully-wired fault-tolerance protocol of one job."""

    #: Put/get log driving demand checkpoints; ``None`` when logging is off.
    log: ActionLog | None
    checkpointer: CoordinatedCheckpointer
    recovery: RecoveryManager
    #: Delivery mode installed on the runtime (reliable unless declared).
    delivery: DeliveryMode

    @property
    def store(self) -> CheckpointStore:
        """The checkpoint store shared by checkpointer and recovery."""
        return self.checkpointer.store

    @property
    def protocol(self) -> RecoveryProtocol:
        """The recovery protocol strategy of this stack."""
        return self.recovery.protocol

    def uninstall(self, runtime: "RmaRuntime") -> None:
        """Fully detach the stack from ``runtime``.  Idempotent.

        Removes the interceptors, closes the store (releasing scratch
        directories and the like), uninstalls the delivery mode and detaches
        the recovery manager, so nothing in the stack keeps a live reference
        into a runtime it no longer observes.  The store close runs even when an earlier teardown
        step raises: a leaked scratch directory outlives the process, a
        dangling interceptor does not.
        """
        try:
            if self.log is not None:
                runtime.remove_interceptor(self.log)
            runtime.remove_interceptor(self.checkpointer)
            runtime.set_delivery(None)
        finally:
            try:
                self.checkpointer.store.close()
            finally:
                self.recovery.detach()


def build_ft_stack(
    runtime: "RmaRuntime",
    *,
    buddy_level: int = 1,
    demand_threshold_bytes: int | None = None,
    keep_versions: int = 2,
    log_actions: bool = True,
    store: CheckpointStore | str | None = None,
    recovery: RecoveryProtocol | str | None = None,
    delivery: DeliveryMode | str | None = None,
) -> FtStack:
    """Install the ftRMA protocol on ``runtime`` and return its pieces.

    Parameters
    ----------
    buddy_level:
        FDH level across which checkpoint copies are spread (§5).
    demand_threshold_bytes:
        Per-rank logged volume that triggers a demand checkpoint (§6.2);
        ``None`` disables demand checkpoints.
    keep_versions:
        How many committed checkpoint versions the store retains (ignored
        when a ready store instance is given — its own configuration wins).
    log_actions:
        Whether to install the put/get :class:`ActionLog`.  Forced on when
        ``demand_threshold_bytes`` is set (the threshold is measured on the
        log) or when the recovery protocol is the log-based
        :class:`~repro.ft.protocols.LocalizedReplay` (the log is what it
        replays).
    store:
        Checkpoint placement: ``"memory"`` (default; local + buddy copies),
        ``"disk"`` (spill to a directory), ``"parity"`` (XOR stripe across
        t-aware groups), or a ready
        :class:`~repro.ft.stores.CheckpointStore` instance.
    recovery:
        Recovery strategy: ``"global"`` (default; coordinated rollback of
        every rank), ``"localized"`` (restore only the failed ranks, replay
        the log), ``"degraded"`` (excise failed ranks, continue
        best-effort), or a ready
        :class:`~repro.ft.protocols.RecoveryProtocol` instance.
    delivery:
        Delivery mode under failure: ``"reliable"`` (default; any touch of a
        failed rank raises and a recovery protocol runs), ``"best_effort"``
        (failed ranks are suspended — operations toward them drop or serve
        stale checkpoint data, the session repairs them at step boundaries),
        or a ready :class:`~repro.qos.delivery.DeliveryMode` instance.
    """
    protocol = make_protocol(recovery)
    log: ActionLog | None = None
    if log_actions or demand_threshold_bytes is not None or protocol.needs_log:
        # Retaining completed actions (payloads included) is only needed by
        # log-replaying protocols; everyone else keeps byte counts only, so
        # the log's memory stays bounded between truncations.
        log = ActionLog(retain_actions=protocol.needs_log)
        runtime.add_interceptor(log)
    checkpointer = CoordinatedCheckpointer(
        level=buddy_level,
        store=make_store(store, keep_versions=keep_versions),
        log=log,
        demand_threshold_bytes=demand_threshold_bytes,
    )
    runtime.add_interceptor(checkpointer)
    manager = RecoveryManager(runtime, checkpointer, protocol)
    mode = make_delivery(delivery)
    mode.bind(runtime, checkpointer.store)
    runtime.set_delivery(mode)
    return FtStack(
        log=log,
        checkpointer=checkpointer,
        recovery=manager,
        delivery=mode,
    )
