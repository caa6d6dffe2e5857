"""Fault-tolerant ring allreduce, driven through the workload catalog.

The algorithm — a classic two-phase ring allreduce whose reduce-scatter hops
*accumulate* chunks into the right neighbour (exactly the combining
operations the paper's ``M`` flag guards against double-applying, §3.2.3) —
lives in the registry-resolved workload catalog as
:class:`repro.study.workloads.RingAllreduce` (``"allreduce"``), where the
resilience-study engine can sweep it.  This example drives that entry and
asserts the transparency claims: injected fail-stop failures roll the ring
back a few hops and replay them, finishing **bit-identical** to the
failure-free run on every backend, under both global rollback and localized
log-based replay — with zero recovery logic in this file.

Run with::

    PYTHONPATH=src python examples/ring_allreduce_ft.py
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro
from repro.simulator import FailureSchedule
from repro.study.workloads import RingAllreduce

CHUNK = 16  # elements per ring chunk


def _initial_vector(rank: int, nranks: int) -> np.ndarray:
    """Deterministic per-rank input vector (catalog-defined)."""
    return RingAllreduce(nprocs=nranks, chunk=CHUNK).initial_vector(rank)


@dataclass
class AllreduceResult:
    """Outcome of one ring-allreduce run."""

    vectors: np.ndarray  # (nranks, nranks * CHUNK) — final vector of each rank
    steps_executed: int
    recoveries: int
    checkpoints: int
    elapsed: float

    def describe(self) -> str:
        return (
            f"{self.steps_executed} ring hops executed, "
            f"{self.checkpoints} checkpoints, {self.recoveries} recoveries, "
            f"makespan {self.elapsed * 1e3:.3f} ms (virtual)"
        )


def run_allreduce(
    *,
    nprocs: int = 8,
    ckpt_interval: int | str | None = 4,
    procs_per_node: int = 2,
    failure_schedule: FailureSchedule | None = None,
    backend: str = "sim",
    store: str = "memory",
    recovery: str = "global",
    kill_plan: repro.KillPlan | None = None,
) -> AllreduceResult:
    """Run the catalog allreduce; the session recovers injected failures."""
    workload = RingAllreduce(nprocs=nprocs, chunk=CHUNK)
    policy = repro.FaultTolerancePolicy(
        interval=ckpt_interval, store=store, recovery=recovery
    )
    run = workload.run(
        ft=policy,
        failures=failure_schedule,
        backend=backend,
        procs_per_node=procs_per_node,
        kill_plan=kill_plan,
    )
    return AllreduceResult(
        vectors=run.result,
        steps_executed=run.report.steps_executed,
        recoveries=run.report.recoveries,
        checkpoints=run.report.checkpoints,
        elapsed=run.report.elapsed,
    )


def main() -> None:
    nprocs = 8

    baseline = run_allreduce(nprocs=nprocs)
    print(f"failure-free run : {baseline.describe()}")

    expected = RingAllreduce(nprocs=nprocs, chunk=CHUNK).expected()
    assert np.allclose(baseline.vectors, expected[None, :])
    # Every rank ends with the same reduced vector, bit-for-bit.
    assert all(np.array_equal(baseline.vectors[0], v) for v in baseline.vectors)

    schedule = FailureSchedule.ranks(
        {3: 0.35 * baseline.elapsed, 6: 0.7 * baseline.elapsed}
    )
    print(f"injected failures: {[ev.describe() for ev in schedule]}")
    recovered = run_allreduce(nprocs=nprocs, failure_schedule=schedule)
    print(f"recovered run    : {recovered.describe()}")

    identical = np.array_equal(baseline.vectors, recovered.vectors)
    print(f"final vectors bit-identical: {identical}")
    if not identical:
        raise SystemExit(1)

    # The ring's combining accumulates are exactly the operations a naive
    # log re-application would double-apply (the paper's M flag, §3.2.3);
    # localized replay suppresses them against survivors and must still end
    # bit-identical to the global rollback.
    localized = run_allreduce(
        nprocs=nprocs, failure_schedule=schedule, recovery="localized"
    )
    identical = np.array_equal(recovered.vectors, localized.vectors)
    print(f"localized recovery: bit-identical to global = {identical}")
    if not identical:
        raise SystemExit(1)

    # Real processes, real kills: a mid-reduce-scatter SIGKILL of a real
    # worker process must land the ring exactly where the exception-injected
    # sim run lands it — the combining accumulates make this the sharpest
    # bit-identity test of the real-process backend.
    if repro.proc_available():
        plan = repro.KillPlan.single(rank=3, after_ops=40)
        for store in ("memory", "disk", "parity"):
            for recovery in ("global", "localized"):
                simulated = run_allreduce(
                    nprocs=nprocs, backend="sim", store=store,
                    recovery=recovery, kill_plan=plan,
                )
                killed = run_allreduce(
                    nprocs=nprocs, backend="proc", store=store,
                    recovery=recovery, kill_plan=plan,
                )
                identical = killed.recoveries >= 1 and (
                    np.array_equal(simulated.vectors, killed.vectors)
                    and np.array_equal(baseline.vectors, killed.vectors)
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
