"""Resilience benchmark: checkpoint and recovery cost across stores × protocols.

Runs one stencil-shaped SPMD job (8 ranks, 2 per node — a multi-node layout,
so buddy and parity placement have domains to spread over) under every
checkpoint store (``memory``, ``disk``, ``parity``) crossed with the two
roll-back-capable recovery protocols (``global``, ``localized``), injecting a
mid-run fail-stop failure scaled to each configuration's own failure-free
makespan.  For each cell it reports:

* ``checkpoint_bytes`` — bytes placed into checkpoint copies over the run
  (the store's placement overhead: ~2x windows for memory, ~1x for disk,
  ~1+1/k for parity);
* ``restored_bytes`` — bytes read back out of checkpoint copies by recovery
  (the protocol's restore traffic: all ranks for a global rollback, only the
  failed ranks for localized replay);
* ``checkpoint_wall_s`` / ``recovery_wall_s`` — wall-clock cost of the
  failure-free run and the extra wall-clock the failure run paid;
* ``virtual_makespan_s`` — the simulated makespan of the failure run.

Every failure run is verified bit-identical to the failure-free field before
anything is reported.  Results land in ``BENCH_ft.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_ft.py                 # full run
    PYTHONPATH=src python benchmarks/bench_ft.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/bench_ft.py --quick \\
        --check-baseline benchmarks/BENCH_ft_baseline.json       # regression gate

The regression gate fails (exit 1) when any configuration's wall time
regressed by more than ``--max-regression`` (default 2x) against the
checked-in baseline, or when localized replay no longer restores strictly
fewer bytes than the global rollback for some store.
"""

from __future__ import annotations

import argparse
import platform
import time
from dataclasses import dataclass

import numpy as np
from common import add_gate_arguments, run_gate, write_report

import repro
from repro.simulator import FailureSchedule

NPROCS = 8
PROCS_PER_NODE = 2  # multi-node: 4 nodes
N_LOCAL = 256  # interior cells per rank (+2 ghosts)
ALPHA = 0.1

STORES = ("memory", "disk", "parity")
PROTOCOLS = ("global", "localized")


def _kernel(ctx: repro.RankContext, step: int):
    """One Jacobi step: nonblocking halo exchange, gsync, interior update."""
    u = ctx.win("u")
    mine = u.local
    if ctx.rank > 0:
        u.put_nb(ctx.rank - 1, N_LOCAL + 1, mine[1:2])
    if ctx.rank < ctx.nranks - 1:
        u.put_nb(ctx.rank + 1, 0, mine[N_LOCAL : N_LOCAL + 1])
    yield ctx.gsync()
    interior = mine[1 : N_LOCAL + 1]
    mine[1 : N_LOCAL + 1] = interior + ALPHA * (
        mine[0:N_LOCAL] - 2.0 * interior + mine[2 : N_LOCAL + 2]
    )
    ctx.compute(4.0 * N_LOCAL)


@dataclass(frozen=True)
class RunResult:
    field: np.ndarray
    wall_s: float
    elapsed: float
    checkpoint_bytes: float
    restored_bytes: float
    recoveries: float
    fallbacks: float


def _run(
    *,
    iters: int,
    store: str,
    recovery: str,
    schedule: FailureSchedule | None = None,
) -> RunResult:
    policy = repro.FaultTolerancePolicy(
        interval=max(1, iters // 6), store=store, recovery=recovery
    )
    start = time.perf_counter()
    with repro.launch(
        NPROCS,
        topology=repro.Topology(procs_per_node=PROCS_PER_NODE),
        ft=policy,
        failures=schedule,
        sync_each_step=False,
        backend="sim",
    ) as job:
        job.allocate("u", N_LOCAL + 2)
        x = np.arange(NPROCS * N_LOCAL, dtype=np.float64)
        init = np.sin(2.0 * np.pi * x / x.size)
        for ctx in job.contexts:
            ctx.local("u")[1 : N_LOCAL + 1] = init[
                ctx.rank * N_LOCAL : (ctx.rank + 1) * N_LOCAL
            ]
        report = job.run(_kernel, steps=iters)
        field = job.gather("u", part=slice(1, N_LOCAL + 1))
    wall = time.perf_counter() - start
    return RunResult(
        field=field,
        wall_s=wall,
        elapsed=report.elapsed,
        checkpoint_bytes=report.metrics.total("ft.checkpoint_bytes"),
        restored_bytes=report.metrics.total("ft.restored_bytes"),
        recoveries=report.recoveries,
        fallbacks=report.recovery_fallbacks,
    )


def run_benchmarks(iters: int) -> dict:
    """Run every store × protocol cell and assemble the result document."""
    results: dict[str, dict[str, float]] = {}
    reference: np.ndarray | None = None
    for store in STORES:
        free = _run(iters=iters, store=store, recovery="global")
        if reference is None:
            reference = free.field
        elif not np.array_equal(reference, free.field):
            raise AssertionError(f"store {store}: failure-free field diverged")
        schedule = FailureSchedule.single_rank(3, free.elapsed * 0.6)
        for protocol in PROTOCOLS:
            failed = _run(
                iters=iters, store=store, recovery=protocol, schedule=schedule
            )
            if not np.array_equal(reference, failed.field):
                raise AssertionError(
                    f"{store}/{protocol}: recovered field is not bit-identical "
                    f"to the failure-free run"
                )
            if failed.recoveries < 1:
                raise AssertionError(f"{store}/{protocol}: no recovery happened")
            results[f"{store}/{protocol}"] = {
                "checkpoint_bytes": failed.checkpoint_bytes,
                "restored_bytes": failed.restored_bytes,
                "checkpoint_wall_s": round(free.wall_s, 4),
                "recovery_wall_s": round(max(0.0, failed.wall_s - free.wall_s), 4),
                "wall_s": round(failed.wall_s, 4),
                "virtual_makespan_s": failed.elapsed,
                "recoveries": failed.recoveries,
                "fallbacks": failed.fallbacks,
            }
    return {
        "meta": {
            "nprocs": NPROCS,
            "procs_per_node": PROCS_PER_NODE,
            "n_local": N_LOCAL,
            "iters": iters,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "configs": results,
    }


def check_against_baseline(report: dict, baseline: dict, max_regression: float) -> list[str]:
    """Compare wall times and invariants against the baseline; return failures."""
    failures: list[str] = []
    for name, base in baseline.get("configs", {}).items():
        current = report["configs"].get(name)
        if current is None:
            failures.append(f"{name}: configuration missing from current run")
            continue
        base_wall = base["wall_s"]
        if base_wall > 0 and current["wall_s"] / base_wall > max_regression:
            failures.append(
                f"{name}: wall time {current['wall_s']:.3f}s is "
                f"{current['wall_s'] / base_wall:.2f}x slower than baseline "
                f"{base_wall:.3f}s (allowed {max_regression:.1f}x)"
            )
    for store in STORES:
        glob = report["configs"].get(f"{store}/global")
        loc = report["configs"].get(f"{store}/localized")
        if not glob or not loc:
            continue
        if loc["restored_bytes"] >= glob["restored_bytes"]:
            failures.append(
                f"{store}: localized replay restored {loc['restored_bytes']:.0f} "
                f"bytes, not strictly fewer than the global rollback's "
                f"{glob['restored_bytes']:.0f}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=240, help="job steps per run")
    parser.add_argument(
        "--quick", action="store_true", help="short run for CI smoke (96 steps)"
    )
    add_gate_arguments(parser, default_output="BENCH_ft.json")
    args = parser.parse_args(argv)

    iters = 96 if args.quick else args.iters
    report = run_benchmarks(iters)
    write_report(args.output, report)

    for name, row in report["configs"].items():
        print(
            f"{name:20s} ckpt {row['checkpoint_bytes']:>12,.0f} B   "
            f"restored {row['restored_bytes']:>10,.0f} B   "
            f"wall {row['wall_s']:.3f}s   recoveries {row['recoveries']:.0f}"
        )
    print(f"report written to {args.output}")

    return run_gate(args, report, check_against_baseline)


if __name__ == "__main__":
    raise SystemExit(main())
