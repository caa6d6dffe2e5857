"""Backends and the nonblocking operation API.

Covers the epoch semantics of :class:`~repro.rma.handles.OpHandle` (buffers
materialize only at flush/unlock/gsync), the counter transitions of the
completion points, the coalescing correctness of the in-process backend, the
effect-free discards of the shared op queue, and the bit-identity of canonical
traces between ``SimBackend`` and ``ProcBackend`` with and without injected
failures.
"""

import numpy as np
import pytest

import repro
from repro.backends import (
    Backend,
    ProcBackend,
    SimBackend,
    make_backend,
    proc_available,
)
from repro.errors import BackendError, EpochError, OpHandleError, WindowError
from repro.rma import RmaRuntime
from repro.rma.actions import OpKind
from repro.simulator import Cluster, FailureSchedule
from repro.trace import Tracer, event_lines

PROC_SKIP = pytest.mark.skipif(
    not proc_available(), reason="proc backend needs fork + POSIX shared memory"
)
BACKENDS = ["sim", pytest.param("proc", marks=PROC_SKIP)]

#: Runtimes built by :func:`_runtime`, finalized after each test.
_RUNTIMES: list[RmaRuntime] = []


@pytest.fixture(autouse=True)
def _finalize_runtimes(proc_hygiene):
    # Depends on proc_hygiene so the workers are gone before its leak check.
    yield
    while _RUNTIMES:
        _RUNTIMES.pop().finalize()


def _runtime(backend: str, nprocs: int = 4, **kwargs) -> RmaRuntime:
    rt = RmaRuntime(Cluster.simple(nprocs, procs_per_node=2), backend=backend, **kwargs)
    _RUNTIMES.append(rt)
    rt.win_allocate("w", 16)
    return rt


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------
def test_make_backend_resolves_names_and_instances():
    assert isinstance(make_backend(None), SimBackend)
    assert isinstance(make_backend("sim"), SimBackend)
    custom = SimBackend()
    assert make_backend(custom) is custom
    with pytest.raises(BackendError):
        make_backend("warp-drive")
    with pytest.raises(BackendError):
        make_backend(42)


def test_runtime_and_launch_accept_backend_knob():
    # "vector" stays a registered name of the one in-process backend.
    assert isinstance(make_backend("vector"), SimBackend)
    assert "vector" in repro.available("backend")
    rt = RmaRuntime(Cluster.simple(2), backend="vector")
    assert isinstance(rt.backend, SimBackend)
    with repro.launch(2, backend="vector") as job:
        assert isinstance(job.runtime.backend, SimBackend)


def test_backend_instance_cannot_be_rebound_across_jobs():
    backend = SimBackend()
    with repro.launch(2, backend=backend) as job:
        job.allocate("w", 4)
    # The instance owns the first job's windows/queues: a second job must
    # refuse it instead of inheriting stale state.
    with pytest.raises(BackendError):
        repro.launch(4, backend=backend)


# ---------------------------------------------------------------------------
# Handle epoch semantics
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_unflushed_get_nb_buffer_raises_on_read(backend):
    rt = _runtime(backend)
    rt.put(0, 1, "w", 3, [7.0, 8.0])
    handle = rt.get_nb(0, 1, "w", 3, 2)
    assert not handle.completed
    with pytest.raises(OpHandleError):
        handle.result()
    rt.flush(0, 1)
    assert handle.completed
    assert np.array_equal(handle.result(), [7.0, 8.0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_put_nb_completes_at_flush_and_result_is_none(backend):
    rt = _runtime(backend)
    handle = rt.put_nb(0, 2, "w", 0, [1.0, 2.0, 3.0])
    assert not handle.completed
    rt.flush(0, 2)
    assert handle.completed
    assert handle.result() is None  # puts carry no fetched buffer
    assert np.array_equal(rt.local(2, "w")[:3], [1.0, 2.0, 3.0])


def test_sim_backend_defers_effects_until_completion():
    rt = _runtime("sim")
    rt.put_nb(0, 1, "w", 0, [5.0])
    assert rt.local(1, "w")[0] == 0.0  # not applied yet
    assert rt.pending_nb_ops() == 1
    rt.flush(0, 1)
    assert rt.local(1, "w")[0] == 5.0
    assert rt.pending_nb_ops() == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_get_nb_reads_at_completion_on_every_backend(backend):
    # The target legally stores into its *own* buffer while the origin's epoch
    # is open; the get's read happens at the completion point on every
    # backend, so it must observe the store.
    rt = _runtime(backend)
    handle = rt.get_nb(0, 1, "w", 0, 1)
    rt.local(1, "w")[0] = 42.0
    rt.flush(0, 1)
    assert handle.result()[0] == 42.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_unlock_and_gsync_complete_nonblocking_ops(backend):
    rt = _runtime(backend)
    rt.lock(0, 1)
    locked = rt.put_nb(0, 1, "w", 0, [1.0])
    rt.unlock(0, 1)
    assert locked.completed
    synced = rt.accumulate_nb(2, 3, "w", 5, [4.0])
    rt.gsync()
    assert synced.completed
    assert rt.local(1, "w")[0] == 1.0
    assert rt.local(3, "w")[5] == 4.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_flush_closes_epoch_and_bumps_gc_for_nb_ops(backend):
    rt = _runtime(backend)
    first = rt.put_nb(0, 1, "w", 0, [1.0])
    assert first.action.EC == 0 and first.action.GC == 0
    assert rt.epochs.pending(0, 1) == 1
    rt.flush(0, 1)
    assert rt.epochs.epoch(0, 1) == 1
    assert rt.counters.gc(0) == 1
    assert rt.epochs.pending(0, 1) == 0
    later = rt.put_nb(0, 1, "w", 0, [2.0])
    assert later.action.EC == 1 and later.action.GC == 1
    rt.flush(0, 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_blocking_op_completes_queued_nb_ops_to_same_target(backend):
    rt = _runtime(backend)
    queued = rt.accumulate_nb(0, 1, "w", 0, [2.0])
    # The blocking get towards the same target is issue+completion: it must
    # land *after* the queued accumulate in issue order.
    got = rt.get(0, 1, "w", 0, 1)
    assert queued.completed
    assert got[0] == 2.0


def test_flush_only_completes_the_named_target_pair():
    rt = _runtime("sim")
    to_one = rt.put_nb(0, 1, "w", 0, [1.0])
    to_two = rt.put_nb(0, 2, "w", 0, [2.0])
    rt.flush(0, 1)
    assert to_one.completed and not to_two.completed
    assert rt.local(2, "w")[0] == 0.0
    rt.flush_all(0)
    assert to_two.completed
    assert rt.local(2, "w")[0] == 2.0


# ---------------------------------------------------------------------------
# Coalescing correctness
# ---------------------------------------------------------------------------
def test_sim_coalesces_contiguous_puts_correctly():
    rt = _runtime("sim")
    for m in range(4):  # one contiguous stream, chunked
        rt.put_nb(0, 1, "w", 3 * m, np.full(3, float(m)))
    rt.flush(0, 1)
    expected = np.repeat(np.arange(4.0), 3)
    assert np.array_equal(rt.local(1, "w")[:12], expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_overlapping_puts_apply_in_issue_order(backend):
    rt = _runtime(backend)
    rt.put_nb(0, 1, "w", 0, [1.0, 1.0, 1.0])
    rt.put_nb(0, 1, "w", 1, [2.0, 2.0])  # overlaps: later op wins
    rt.flush(0, 1)
    assert np.array_equal(rt.local(1, "w")[:3], [1.0, 2.0, 2.0])


def test_sim_batch_mixing_puts_and_atomics_preserves_order():
    rt = _runtime("sim")
    rt.put_nb(0, 1, "w", 0, [10.0])
    rt.accumulate_nb(0, 1, "w", 0, [5.0])
    rt.put_nb(0, 1, "w", 1, [1.0])
    rt.put_nb(0, 1, "w", 2, [2.0])  # contiguous with the previous put
    rt.flush(0, 1)
    assert np.array_equal(rt.local(1, "w")[:3], [15.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# Determinism: identical traces, clocks and metrics across backends
# ---------------------------------------------------------------------------
def _stencil_like_kernel(ctx, step):
    u = ctx.win("w")
    if ctx.rank > 0:
        u.put_nb(ctx.rank - 1, 7, u.local[1:2])
    if ctx.rank < ctx.nranks - 1:
        u.put_nb(ctx.rank + 1, 0, u.local[6:7])
    yield ctx.gsync()
    u.local[1:7] += 0.5 * ctx.rank
    ctx.compute(8.0)


def _run_traced(backend, failures=None):
    ft = repro.FaultTolerancePolicy(interval=3)
    tracer = Tracer()
    with repro.launch(
        4, ft=ft, failures=failures, sync_each_step=False, backend=backend,
        trace=tracer,
    ) as job:
        job.allocate("w", 8)
        for ctx in job.contexts:
            ctx.local("w")[:] = np.arange(8.0) + ctx.rank
        job.run(_stencil_like_kernel, steps=8)
        field = np.stack([job.local(r, "w").copy() for r in range(4)])
        clocks = [job.runtime.cluster.now(r) for r in range(4)]
    # Canonical op/sync events carry the Eq. 2 determinant minus the
    # process-global seq, so equal traces mean equal determinants.
    return field, event_lines(tracer.events, canonical=True), clocks


@pytest.mark.parametrize(
    "failures",
    [None, {2: 0.00012}, {1: 0.00008, 3: 0.00025}],
    ids=["failure-free", "one-failure", "two-failures"],
)
@PROC_SKIP
def test_traces_fields_and_clocks_bit_identical_across_backends(failures):
    schedule = FailureSchedule.ranks(failures) if failures else None
    sim = _run_traced("sim", schedule)
    schedule = FailureSchedule.ranks(failures) if failures else None
    proc = _run_traced("proc", schedule)
    assert np.array_equal(sim[0], proc[0])  # window contents
    assert sim[1] == proc[1]  # canonical traces
    assert sim[2] == proc[2]  # per-rank virtual clocks


@pytest.mark.parametrize("backend", BACKENDS)
def test_metrics_totals_are_backend_independent(backend):
    rt = _runtime(backend)
    for m in range(4):
        rt.put_nb(0, 1, "w", m, [1.0])
    rt.get_nb(0, 1, "w", 0, 2)
    rt.flush(0, 1)
    metrics = rt.cluster.metrics
    assert metrics.get("rma.put") == 4
    assert metrics.get("rma.get") == 1
    assert metrics.get("rma.bytes_moved") == 6 * 8


# ---------------------------------------------------------------------------
# Fault tolerance integration
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_refuses_unflushed_nb_ops(backend):
    from repro.ft.stack import build_ft_stack

    rt = _runtime(backend)
    stack = build_ft_stack(rt)
    rt.put_nb(0, 1, "w", 0, [1.0])
    with pytest.raises(EpochError):
        stack.checkpointer.checkpoint(tag=0)
    rt.flush(0, 1)
    stack.checkpointer.checkpoint(tag=0)  # epoch boundary: fine now


@pytest.mark.parametrize("backend", BACKENDS)
def test_recovery_discards_pending_handles(backend):
    from repro.ft.stack import build_ft_stack

    rt = _runtime(backend)
    stack = build_ft_stack(rt)
    stack.checkpointer.checkpoint(tag=0)
    pending = rt.put_nb(0, 1, "w", 0, [9.0])
    rt.cluster.fail_rank(3)
    rt.observe_failures()
    stack.recovery.recover()
    assert pending.discarded
    with pytest.raises(OpHandleError):
        pending.result()
    # The rolled-back put must not have survived into the restored state.
    assert rt.local(1, "w")[0] == 0.0
    assert rt.pending_nb_ops() == 0


DISCARDS = {
    "pending": lambda backend: backend.discard_pending(),
    "rank": lambda backend: backend.discard_rank(0),
    "targeting": lambda backend: backend.discard_targeting(0, frozenset({1})),
}


@pytest.mark.parametrize("discard", sorted(DISCARDS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_discard_is_effect_free_and_poisons_handles(backend, discard):
    # No capture flag: a discarded op never reached window memory, whichever
    # of the shared queue's three discards dropped it.
    rt = _runtime(backend)
    rt.local(1, "w")[:] = np.arange(16.0)
    before = rt.local(1, "w").copy()
    win = rt.window("w")
    cas = rt._make_comm(
        OpKind.COMPARE_AND_SWAP, 0, 1, win, 6, 1, combine=True,
        data=np.array([-1.0]), compare=np.array([6.0]),
    )
    issued = [
        rt.put_nb(0, 1, "w", 0, [9.0, 9.0]),
        rt.accumulate_nb(0, 1, "w", 4, [5.0]),
        rt._issue_nb(cas, win),
    ]
    assert DISCARDS[discard](rt.backend) == issued
    assert rt.pending_nb_ops() == 0
    rt.flush_all(0)  # nothing left to apply
    assert np.array_equal(rt.local(1, "w"), before)
    for handle in issued:
        assert not handle.completed
        with pytest.raises(OpHandleError):
            handle.result()


# ---------------------------------------------------------------------------
# The shared op queue: one implementation in Backend, one apply hook each
# ---------------------------------------------------------------------------
QUEUE_METHODS = (
    "issue", "complete", "complete_rank", "pending_ops",
    "discard_pending", "discard_rank", "discard_targeting",
)


@pytest.mark.parametrize("cls", [SimBackend, ProcBackend], ids=["sim", "proc"])
def test_backends_share_the_queue_and_override_only_the_apply_hook(cls):
    for method in QUEUE_METHODS:
        assert getattr(cls, method) is getattr(Backend, method), method
    assert cls._apply is not Backend._apply
    assert not getattr(cls, "__abstractmethods__", None)


@pytest.mark.parametrize("backend", BACKENDS)
def test_queue_counts_per_origin_and_completes_in_issue_order(backend):
    rt = _runtime(backend)
    ops = [rt.put_nb(0, t, "w", t, [float(t)]) for t in (2, 1, 3, 1)]
    rt.get_nb(1, 0, "w", 0, 1)
    queue = rt.backend
    assert [queue.pending_ops(r) for r in range(4)] == [4, 1, 0, 0]
    assert queue.pending_ops() == 5
    assert queue.complete(0, 1) == [ops[1], ops[3]]
    assert queue.complete(0, 1) == []
    assert queue.complete_rank(0) == [ops[0], ops[2]]
    assert queue.pending_ops() == 1
    assert [rt.local(t, "w")[t] for t in (1, 2, 3)] == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_completion_with_nothing_queued_skips_the_apply_hook(backend, monkeypatch):
    rt = _runtime(backend)
    calls = []
    apply = rt.backend._apply

    def spy(src, batch):
        calls.append((src, len(batch)))
        apply(src, batch)

    monkeypatch.setattr(rt.backend, "_apply", spy)
    assert rt.backend.complete(0, 1) == []
    assert rt.backend.complete_rank(0) == []
    rt.put_nb(0, 2, "w", 0, [1.0])
    assert rt.backend.complete(0, 1) == []  # the queued op goes elsewhere
    assert calls == []
    rt.flush(0, 2)
    assert calls == [(0, 1)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_aborted_apply_keeps_the_batch_queued(backend, monkeypatch):
    # The queue pops a batch only after the apply hook returned, so recovery
    # can still find (and poison) the handles of an aborted completion.
    rt = _runtime(backend)
    first = rt.put_nb(0, 1, "w", 0, [1.0])
    second = rt.put_nb(0, 2, "w", 0, [2.0])

    def abort(src, batch):
        raise RuntimeError("apply aborted")

    monkeypatch.setattr(rt.backend, "_apply", abort)
    with pytest.raises(RuntimeError):
        rt.backend.complete(0, 1)
    with pytest.raises(RuntimeError):
        rt.backend.complete_rank(0)
    assert rt.backend.pending_ops(0) == 2
    assert rt.local(1, "w")[0] == 0.0 and rt.local(2, "w")[0] == 0.0
    monkeypatch.undo()
    assert rt.backend.complete_rank(0) == [first, second]
    assert rt.local(1, "w")[0] == 1.0 and rt.local(2, "w")[0] == 2.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_discard_targeting_keeps_the_other_targets_queued(backend):
    rt = _runtime(backend)
    to_one = rt.put_nb(0, 1, "w", 0, [1.0])
    to_two = rt.put_nb(0, 2, "w", 0, [2.0])
    again = rt.accumulate_nb(0, 1, "w", 0, [3.0])
    to_three = rt.put_nb(0, 3, "w", 0, [4.0])
    assert rt.backend.discard_targeting(0, frozenset({1})) == [to_one, again]
    assert rt.backend.discard_targeting(0, frozenset({1})) == []
    assert rt.backend.discard_targeting(2, frozenset({1})) == []  # empty origin
    assert rt.backend.pending_ops(0) == 2
    rt.flush_all(0)
    assert to_two.completed and to_three.completed
    assert [rt.local(r, "w")[0] for r in (1, 2, 3)] == [0.0, 2.0, 4.0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_discard_rank_leaves_other_origins_queued(backend):
    rt = _runtime(backend)
    dropped = [rt.put_nb(0, 1, "w", 0, [1.0]), rt.put_nb(0, 2, "w", 0, [1.0])]
    kept = rt.put_nb(3, 1, "w", 1, [5.0])
    assert rt.backend.discard_rank(0) == dropped
    assert rt.backend.discard_rank(0) == []
    assert rt.backend.pending_ops() == 1
    rt.flush_all(3)
    assert kept.completed
    assert np.array_equal(rt.local(1, "w")[:2], [0.0, 5.0])
    assert rt.local(2, "w")[0] == 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_discard_pending_drops_every_origin_and_the_queue_stays_usable(backend):
    rt = _runtime(backend)
    dropped = [
        rt.put_nb(0, 1, "w", 0, [1.0]),
        rt.put_nb(2, 3, "w", 0, [1.0]),
        rt.get_nb(3, 0, "w", 0, 1),
    ]
    assert rt.backend.discard_pending() == dropped
    assert rt.backend.pending_ops() == 0
    assert rt.backend.complete_rank(0) == []
    later = rt.put_nb(2, 3, "w", 1, [7.0])
    rt.flush(2, 3)
    assert later.completed
    assert np.array_equal(rt.local(3, "w")[:2], [0.0, 7.0])
    assert rt.local(1, "w")[0] == 0.0


def test_recovery_respawn_goes_through_the_backend_hook():
    from repro.ft.stack import build_ft_stack

    class SpyBackend(SimBackend):
        def __init__(self):
            super().__init__()
            self.invalidated, self.reallocated = [], []

        def invalidate_rank(self, rank):
            self.invalidated.append(rank)
            super().invalidate_rank(rank)

        def reallocate_rank(self, rank):
            self.reallocated.append(rank)
            super().reallocate_rank(rank)

    backend = SpyBackend()
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend=backend)
    rt.win_allocate("w", 8)
    stack = build_ft_stack(rt)
    stack.checkpointer.checkpoint(tag=0)
    rt.cluster.fail_rank(2)
    rt.observe_failures()
    stack.recovery.recover()
    # A custom backend sees the full failure lifecycle, not just half of it.
    assert backend.invalidated == [2]
    assert backend.reallocated == [2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_flush_all_towards_dead_target_raises_on_every_backend(backend):
    from repro.errors import ProcessFailedError

    rt = _runtime(backend)
    rt.put_nb(0, 1, "w", 0, [1.0])
    rt.cluster.fail_rank(1)
    rt.observe_failures()
    # The liveness check, not the apply, must be the failure point — before
    # any op of the batch lands, on every backend alike.
    with pytest.raises(ProcessFailedError):
        rt.flush_all(0)


# ---------------------------------------------------------------------------
# WindowHandle edge cases (rank and window named in every error)
# ---------------------------------------------------------------------------
def test_window_handle_names_rank_and_window_in_errors():
    with repro.launch(2) as job:
        job.allocate("edge", 8)
        w = job.contexts[0].win("edge")
        with pytest.raises(WindowError, match=r"edge.*rank 0|rank 0.*edge"):
            w.put_nb(1, -3, [1.0])  # negative offset
        with pytest.raises(WindowError, match=r"edge"):
            w.get_nb(1, 0, 0)  # zero-length access
        with pytest.raises(WindowError, match=r"target rank 5.*edge"):
            w.put_nb(5, 0, [1.0])  # out-of-range target
        with pytest.raises(WindowError, match=r"target rank -1.*edge"):
            w[-1, 0:2]
        with pytest.raises(WindowError, match=r"edge"):
            w[1, 3:3]  # zero-length slice
        with pytest.raises(WindowError, match=r"edge"):
            w[1, 99]  # out-of-bounds scalar index
        with pytest.raises(WindowError, match=r"edge"):
            w.accumulate_nb(1, 4, np.zeros(0))  # empty payload


@pytest.mark.parametrize("backend", BACKENDS)
def test_runtime_rejects_out_of_bounds_nb_ops_at_issue(backend):
    rt = _runtime(backend)
    with pytest.raises(WindowError, match=r"w"):
        rt.put_nb(0, 1, "w", 12, np.zeros(8))  # tail out of bounds
    with pytest.raises(WindowError, match=r"rank 9"):
        rt.get_nb(0, 9, "w", 0, 1)  # bad target rank
    # Nothing was queued: the malformed ops failed at their call site.
    assert rt.pending_nb_ops() == 0
