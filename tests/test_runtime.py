"""RmaRuntime semantics: dispatch, costs, epochs/counters, failure surfacing."""

import numpy as np
import pytest

from repro.errors import LockError, ProcessFailedError, SynchronizationError
from repro.rma import AccumulateOp, RmaInterceptor, RmaRuntime
from repro.simulator import Cluster, FailureSchedule


@pytest.fixture
def runtime():
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2))
    rt.win_allocate("w", 8)
    return rt


def test_put_get_round_trip(runtime):
    runtime.put(0, 3, "w", 2, [1.0, 2.0, 3.0])
    assert np.array_equal(runtime.get(1, 3, "w", 2, 3), [1.0, 2.0, 3.0])


def test_accumulate_combines_into_target(runtime):
    runtime.put(0, 1, "w", 0, [10.0, 10.0])
    runtime.accumulate(0, 1, "w", 0, [1.0, 2.0], op=AccumulateOp.SUM)
    assert np.array_equal(runtime.local(1, "w")[:2], [11.0, 12.0])


def test_fetch_and_op_returns_previous_value(runtime):
    runtime.put(0, 2, "w", 5, [7.0])
    assert runtime.fetch_and_op(1, 2, "w", 5, 3.0) == 7.0
    assert runtime.local(2, "w")[5] == 10.0


def test_compare_and_swap_swaps_only_on_match(runtime):
    runtime.put(0, 2, "w", 0, [5.0])
    assert runtime.compare_and_swap(1, 2, "w", 0, compare=5.0, value=9.0) == 5.0
    assert runtime.local(2, "w")[0] == 9.0
    assert runtime.compare_and_swap(1, 2, "w", 0, compare=5.0, value=1.0) == 9.0
    assert runtime.local(2, "w")[0] == 9.0


def test_flush_closes_epoch_and_bumps_gc(runtime):
    assert runtime.epochs.epoch(0, 1) == 0
    action = runtime.put(0, 1, "w", 0, [1.0])
    assert action.EC == 0 and action.GC == 0
    runtime.flush(0, 1)
    assert runtime.epochs.epoch(0, 1) == 1
    assert runtime.counters.gc(0) == 1
    later = runtime.put(0, 1, "w", 0, [2.0])
    assert later.EC == 1 and later.GC == 1
    # co holds between the two epochs (§2.3): same origin and target, and
    # the earlier action carries the smaller epoch stamp.
    assert (action.src, action.trg) == (later.src, later.trg)
    assert action.EC < later.EC


def test_lock_fetch_increments_sc_and_unlock_closes_epoch(runtime):
    a = runtime.lock(0, 2)
    b_sc = runtime.counters.sc_local(2)
    assert a.counters.sc == 1 and b_sc == 1
    with pytest.raises(LockError):
        runtime.lock(0, 2)  # double lock on the same structure
    epoch_before = runtime.epochs.epoch(0, 2)
    runtime.unlock(0, 2)
    assert runtime.epochs.epoch(0, 2) == epoch_before + 1
    with pytest.raises(LockError):
        runtime.unlock(0, 2)
    # The next locker fetches the incremented counter.
    assert runtime.lock(1, 2).counters.sc == 2


def test_gsync_bumps_gnc_everywhere_and_closes_all_epochs(runtime):
    runtime.put(0, 1, "w", 0, [1.0])
    runtime.put(2, 3, "w", 0, [1.0])
    runtime.gsync()
    assert all(runtime.counters.gnc(r) == 1 for r in range(4))
    assert runtime.epochs.epoch(0, 1) == 1
    assert runtime.epochs.epoch(2, 3) == 1
    assert not runtime.epochs.has_pending(0)


def test_gsync_while_holding_a_lock_is_illegal(runtime):
    runtime.lock(0, 1)
    with pytest.raises(SynchronizationError):
        runtime.gsync()


def test_actions_advance_the_origin_clock(runtime):
    before = runtime.cluster.now(0)
    runtime.put(0, 1, "w", 0, np.zeros(4))
    assert runtime.cluster.now(0) > before
    assert runtime.cluster.now(2) == runtime.cluster.now(3)  # untouched ranks


def test_scheduled_failure_surfaces_as_process_failed_error():
    schedule = FailureSchedule.single_rank(2, 0.0)
    rt = RmaRuntime(Cluster.simple(4, failure_schedule=schedule))
    with pytest.raises(ProcessFailedError):
        rt.win_allocate("w", 4)


def test_direct_fail_rank_is_observed_and_propagated():
    rt = RmaRuntime(Cluster.simple(4))
    rt.win_allocate("w", 4)

    class Spy(RmaInterceptor):
        def __init__(self):
            self.failed, self.respawned = [], []

        def on_failure_detected(self, rank):
            self.failed.append(rank)

        def on_respawn(self, rank):
            self.respawned.append(rank)

    spy = Spy()
    rt.add_interceptor(spy)
    rt.cluster.fail_rank(3)
    with pytest.raises(ProcessFailedError):
        rt.put(0, 3, "w", 0, [1.0])
    assert spy.failed == [3]
    assert rt.windows.get("w").is_invalidated(3)
    # A second observation does not re-fire the hook.
    with pytest.raises(ProcessFailedError):
        rt.get(1, 3, "w", 0, 1)
    assert spy.failed == [3]
    rt.cluster.respawn_rank(3)
    rt.notify_respawn(3)
    assert spy.respawned == [3]


class _DeathSpy(RmaInterceptor):
    """Records every ``on_failure_detected`` the runtime fires."""

    def __init__(self):
        self.failed = []

    def on_failure_detected(self, rank):
        self.failed.append(rank)


def _spied_runtime(schedule=None):
    rt = RmaRuntime(Cluster.simple(4, failure_schedule=schedule))
    rt.win_allocate("w", 4)
    spy = _DeathSpy()
    rt.add_interceptor(spy)
    return rt, spy


def test_direct_fail_rank_surfaces_on_the_next_targeted_action():
    rt, spy = _spied_runtime()
    rt.put(0, 1, "w", 0, [1.0])
    assert spy.failed == []
    rt.cluster.fail_rank(2)
    # An action between two survivors still observes the death, once.
    rt.put(0, 1, "w", 0, [2.0])
    assert spy.failed == [2]
    rt.lock(1, 0)
    rt.unlock(1, 0)
    rt.flush(0, 1)
    assert spy.failed == [2]


def test_kill_respawn_kill_of_one_rank_is_reported_twice():
    rt, spy = _spied_runtime()
    rt.cluster.fail_rank(3)
    with pytest.raises(ProcessFailedError):
        rt.put(0, 3, "w", 0, [1.0])
    assert spy.failed == [3]
    rt.cluster.respawn_rank(3)
    rt.backend.reallocate_rank(3)
    rt.notify_respawn(3)
    rt.put(0, 3, "w", 0, [1.0])
    assert spy.failed == [3]
    rt.cluster.fail_rank(3)
    rt.put(0, 1, "w", 0, [1.0])
    rt.put(1, 2, "w", 0, [1.0])
    assert spy.failed == [3, 3]


def test_scheduled_failure_fires_at_its_time():
    rt, spy = _spied_runtime(FailureSchedule.single_rank(2, 1.0))
    rt.cluster.advance(0, 0.5)
    rt.put(0, 1, "w", 0, [1.0])
    assert spy.failed == []
    assert rt.cluster.is_alive(2)
    # The origin's clock passes the failure time: its next action fires it.
    rt.cluster.advance(0, 1.0)
    rt.put(0, 1, "w", 0, [1.0])
    assert spy.failed == [2]
    assert not rt.cluster.is_alive(2)
    assert rt.cluster.metrics.get("cluster.failures") == 1
    rt.put(0, 1, "w", 0, [1.0])
    assert spy.failed == [2]


def test_failed_origin_cannot_issue_actions():
    rt = RmaRuntime(Cluster.simple(4))
    rt.win_allocate("w", 4)
    rt.cluster.fail_rank(1)
    with pytest.raises(ProcessFailedError):
        rt.put(1, 0, "w", 0, [1.0])


def test_gsync_observes_scheduled_failures():
    # Rank 2 dies at t=1s (virtual), long after window allocation completes.
    schedule = FailureSchedule.single_rank(2, 1.0)
    rt = RmaRuntime(Cluster.simple(4, failure_schedule=schedule))
    rt.win_allocate("w", 4)
    rt.cluster.advance(0, 2.0)  # push virtual time past the failure
    with pytest.raises(ProcessFailedError):
        rt.gsync()


def test_put_payload_is_decoupled_from_caller_buffer(runtime):
    buf = np.array([1.0, 2.0])
    action = runtime.put(0, 1, "w", 0, buf)
    buf[0] = 99.0  # caller reuses its buffer after the put
    assert np.array_equal(action.data, [1.0, 2.0])  # recorded history is stable
    assert np.array_equal(runtime.local(1, "w")[:2], [1.0, 2.0])


def test_metrics_track_operations(runtime):
    runtime.put(0, 1, "w", 0, [1.0, 2.0])
    runtime.get(1, 0, "w", 0, 2)
    runtime.gsync()
    metrics = runtime.cluster.metrics
    assert metrics.get("rma.put") == 1
    assert metrics.get("rma.get") == 1
    assert metrics.get("rma.gsyncs") == 1
    assert metrics.get("rma.bytes_moved") == 32
