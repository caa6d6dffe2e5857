"""Fault-tolerant random-access key-value updates, via the workload catalog.

The GUPS-style workload — lock-protected atomic ``fetch_and_op(SUM)`` updates
drawn from deterministic per-``(seed, step, rank)`` batches — lives in the
registry-resolved catalog as :class:`repro.study.workloads.KvUpdate`
(``"kv"``), where the resilience-study engine can sweep it.  It exercises the
Locks scheme: lock/unlock drive the SC counter and the checkpoint guard (no
checkpoint while a lock is held), and the put/get log drives *demand*
checkpoints (``interval=None``: besides the initial one, checkpoints happen
only when the logged volume passes the threshold, §6.2).

No recovery logic appears below: the session rolls the table back to the last
committed checkpoint and replays, and because the batches are pure functions
of ``(step, rank)`` the recovered table is **bit-identical** to the
failure-free run — and to a plain numpy replay of all updates.

Run with::

    PYTHONPATH=src python examples/kv_update_ft.py
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro
from repro.simulator import FailureSchedule
from repro.study.workloads import KvUpdate

SLOTS = 24  # table slots owned by each rank
UPDATES_PER_STEP = 8  # updates drawn by each rank per step


def expected_table(seed: int, nprocs: int, steps: int) -> np.ndarray:
    """Replay every batch locally, in the scheduler's (step, rank) order."""
    return KvUpdate(
        nprocs=nprocs, slots=SLOTS, updates_per_step=UPDATES_PER_STEP,
        steps=steps, seed=seed,
    ).expected()


@dataclass
class KvResult:
    """Outcome of one key-value run."""

    table: np.ndarray  # the concatenated global table
    steps_executed: int
    recoveries: int
    checkpoints: int
    demand_checkpoints: int
    elapsed: float

    def describe(self) -> str:
        return (
            f"{self.steps_executed} steps executed, "
            f"{self.checkpoints} checkpoints ({self.demand_checkpoints} on demand), "
            f"{self.recoveries} recoveries, "
            f"makespan {self.elapsed * 1e3:.3f} ms (virtual)"
        )


def run_kv(
    *,
    nprocs: int = 8,
    steps: int = 24,
    seed: int = 11,
    demand_threshold_bytes: int = 512,
    procs_per_node: int = 2,
    failure_schedule: FailureSchedule | None = None,
    backend: str = "sim",
    store: str = "memory",
    recovery: str = "global",
    kill_plan: repro.KillPlan | None = None,
) -> KvResult:
    """Run the catalog workload; the session recovers injected failures on demand."""
    workload = KvUpdate(
        nprocs=nprocs, slots=SLOTS, updates_per_step=UPDATES_PER_STEP,
        steps=steps, seed=seed,
    )
    policy = repro.FaultTolerancePolicy(
        interval=None,  # demand checkpoints only (plus the initial one)
        demand_threshold_bytes=demand_threshold_bytes,
        store=store,
        recovery=recovery,
    )
    run = workload.run(
        ft=policy,
        failures=failure_schedule,
        backend=backend,
        procs_per_node=procs_per_node,
        kill_plan=kill_plan,
    )
    return KvResult(
        table=run.result,
        steps_executed=run.report.steps_executed,
        recoveries=run.report.recoveries,
        checkpoints=run.report.checkpoints,
        demand_checkpoints=run.report.demand_checkpoints,
        elapsed=run.report.elapsed,
    )


def main() -> None:
    nprocs, steps, seed = 8, 24, 11

    baseline = run_kv(nprocs=nprocs, steps=steps, seed=seed)
    print(f"failure-free run : {baseline.describe()}")
    assert np.array_equal(baseline.table, expected_table(seed, nprocs, steps))

    schedule = FailureSchedule.ranks(
        {1: 0.3 * baseline.elapsed, 4: 0.75 * baseline.elapsed}
    )
    print(f"injected failures: {[ev.describe() for ev in schedule]}")
    recovered = run_kv(nprocs=nprocs, steps=steps, seed=seed, failure_schedule=schedule)
    print(f"recovered run    : {recovered.describe()}")

    identical = np.array_equal(baseline.table, recovered.table)
    print(f"final tables bit-identical: {identical}")
    if not identical:
        raise SystemExit(1)

    # A failure here usually lands mid-step, with half a batch of blocking
    # lock-protected atomics already committed — the hardest case for
    # log-based recovery: localized replay must suppress exactly the
    # committed prefix (serving the logged fetch results) and re-execute the
    # rest, finishing bit-identical to the global rollback.
    localized = run_kv(
        nprocs=nprocs, steps=steps, seed=seed,
        failure_schedule=schedule, recovery="localized",
    )
    identical = np.array_equal(recovered.table, localized.table)
    print(f"localized recovery: bit-identical to global = {identical}")
    if not identical:
        raise SystemExit(1)

    # Real processes, real kills: SIGKILL a real worker mid-run — most
    # offsets land inside a lock-protected atomic batch — and demand the
    # recovered table match the exception-injected sim run bit for bit on
    # every (store x recovery) cell.
    if repro.proc_available():
        plan = repro.KillPlan.single(rank=4, after_ops=300)
        for store in ("memory", "disk", "parity"):
            for recovery in ("global", "localized"):
                simulated = run_kv(
                    nprocs=nprocs, steps=steps, seed=seed, backend="sim",
                    store=store, recovery=recovery, kill_plan=plan,
                )
                killed = run_kv(
                    nprocs=nprocs, steps=steps, seed=seed, backend="proc",
                    store=store, recovery=recovery, kill_plan=plan,
                )
                identical = killed.recoveries >= 1 and (
                    np.array_equal(simulated.table, killed.table)
                    and np.array_equal(baseline.table, killed.table)
                )
                print(
                    f"real SIGKILL (proc/{store}/{recovery}): bit-identical "
                    f"to simulated kill = {identical}"
                )
                if not identical:
                    raise SystemExit(1)
    else:  # pragma: no cover - platform dependent
        print("real-process backend unavailable here; skipping SIGKILL runs")


if __name__ == "__main__":
    main()
