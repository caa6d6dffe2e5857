"""Hot-path RMA benchmark: blocking vs batched nonblocking data plane.

Measures *wall-clock* operations per second of the runtime's two execution
paths on the communication patterns of the shipped examples:

* ``heat_stencil`` — every rank streams contiguous chunks into its right
  neighbour's window each epoch (a chunked halo exchange).  The nonblocking
  path lets the in-process backend coalesce the whole stream into one numpy
  slice write per epoch.
* ``ring_allreduce`` — every rank issues combining accumulates into its right
  neighbour each epoch.  Atomics cannot be coalesced (each must read its
  target), so this isolates the issue/accounting savings of the nonblocking
  path.

Both paths run the identical operation sequence; the benchmark verifies the
final window contents match bit-for-bit before reporting.  Results land in
``BENCH_rma.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_rma.py                 # full run
    PYTHONPATH=src python benchmarks/bench_rma.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/bench_rma.py --quick \\
        --check-baseline benchmarks/BENCH_rma_baseline.json       # regression gate
    PYTHONPATH=src python benchmarks/bench_rma.py --quick --backend proc \\
        --check-baseline benchmarks/BENCH_rma_proc_baseline.json  # real processes

The regression gate fails (exit 1) when any measured ops/sec regressed by
more than ``--max-regression`` (default 2x) against the checked-in baseline,
or when the batched nonblocking path no longer beats blocking on the
in-process backend on the stencil workload.
"""

from __future__ import annotations

import argparse
import platform
import time
from dataclasses import dataclass

import numpy as np
from common import add_gate_arguments, run_gate, write_report

from repro.rma.runtime import RmaRuntime
from repro.simulator import Cluster

NPROCS = 4
WINDOW = 4096  # elements per rank


@dataclass(frozen=True)
class Workload:
    """One benchmark pattern: a stream of ops per (src, trg) epoch."""

    name: str
    #: Contiguous chunks issued per rank per epoch.
    msgs_per_epoch: int
    #: Elements per chunk.
    msg_elems: int
    #: "put" or "accumulate" — the operation every chunk performs.
    op: str


WORKLOADS = (
    Workload(name="heat_stencil", msgs_per_epoch=64, msg_elems=8, op="put"),
    Workload(name="ring_allreduce", msgs_per_epoch=32, msg_elems=16, op="accumulate"),
)


def _make_runtime(backend: str) -> RmaRuntime:
    rt = RmaRuntime(Cluster.simple(NPROCS, procs_per_node=2), backend=backend)
    rt.win_allocate("w", WINDOW)
    for rank in range(NPROCS):
        rt.local(rank, "w")[:] = np.arange(WINDOW, dtype=np.float64) * (rank + 1)
    return rt


def _run_epochs(rt: RmaRuntime, wl: Workload, epochs: int, nonblocking: bool) -> int:
    """Drive ``epochs`` epochs of the workload; return the number of comm ops."""
    ops = 0
    span = wl.msgs_per_epoch * wl.msg_elems
    assert span <= WINDOW, "workload does not fit in the window"
    for epoch in range(epochs):
        payload_base = float(epoch + 1)
        for src in range(NPROCS):
            trg = (src + 1) % NPROCS
            for m in range(wl.msgs_per_epoch):
                offset = m * wl.msg_elems
                data = np.full(wl.msg_elems, payload_base + m, dtype=np.float64)
                if wl.op == "put":
                    if nonblocking:
                        rt.put_nb(src, trg, "w", offset, data)
                    else:
                        rt.put(src, trg, "w", offset, data)
                else:
                    if nonblocking:
                        rt.accumulate_nb(src, trg, "w", offset, data)
                    else:
                        rt.accumulate(src, trg, "w", offset, data)
                ops += 1
            if nonblocking:
                rt.flush(src, trg)
    return ops


def _bench_mode(
    wl: Workload, epochs: int, *, nonblocking: bool, backend: str = "vector"
) -> tuple[float, np.ndarray]:
    """Time one mode; return (ops_per_sec, final window contents).

    The blocking reference always runs blocking on the in-process backend;
    the nonblocking path runs on ``backend`` (``"vector"``, the in-process
    backend's registry alias, by default; ``"proc"`` to push the stream
    through real worker processes over shared memory).
    """
    backend = backend if nonblocking else "sim"
    rt = _make_runtime(backend)
    try:
        # Warm up caches and allocator outside the timed region.
        _run_epochs(rt, wl, min(2, epochs), nonblocking)
    finally:
        rt.finalize()
    rt = _make_runtime(backend)
    try:
        start = time.perf_counter()
        ops = _run_epochs(rt, wl, epochs, nonblocking)
        elapsed = time.perf_counter() - start
        state = np.stack([rt.local(r, "w").copy() for r in range(NPROCS)])
    finally:
        rt.finalize()
    return ops / elapsed, state


def run_benchmarks(epochs: int, backend: str = "vector") -> dict:
    """Run every workload in both modes and assemble the result document."""
    results: dict[str, dict[str, float]] = {}
    for wl in WORKLOADS:
        blocking_ops, blocking_state = _bench_mode(wl, epochs, nonblocking=False)
        nonblocking_ops, nonblocking_state = _bench_mode(
            wl, epochs, nonblocking=True, backend=backend
        )
        if not np.array_equal(blocking_state, nonblocking_state):
            raise AssertionError(
                f"{wl.name}: blocking and nonblocking paths diverged — "
                f"the backends are not equivalent"
            )
        results[wl.name] = {
            "ops": epochs * NPROCS * wl.msgs_per_epoch,
            "blocking_ops_per_sec": round(blocking_ops, 1),
            "nonblocking_ops_per_sec": round(nonblocking_ops, 1),
            "speedup": round(nonblocking_ops / blocking_ops, 3),
        }
    return {
        "meta": {
            "nprocs": NPROCS,
            "window_elems": WINDOW,
            "epochs": epochs,
            "backend": backend,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": results,
    }


def check_against_baseline(
    report: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Compare ops/sec against the baseline; return failure messages."""
    failures: list[str] = []
    for name, base in baseline.get("workloads", {}).items():
        current = report["workloads"].get(name)
        if current is None:
            failures.append(f"{name}: workload missing from current run")
            continue
        for key in ("blocking_ops_per_sec", "nonblocking_ops_per_sec"):
            ratio = base[key] / current[key]
            if ratio > max_regression:
                failures.append(
                    f"{name}.{key}: {current[key]:.0f} ops/s is {ratio:.2f}x "
                    f"slower than baseline {base[key]:.0f} ops/s "
                    f"(allowed {max_regression:.1f}x)"
                )
    # The batched-beats-blocking invariant is a claim about the in-process
    # backend only; real worker processes pay IPC per batch and are gated
    # purely by the ops/sec baseline above.
    stencil = report["workloads"].get("heat_stencil", {})
    if (
        report.get("meta", {}).get("backend", "vector") == "vector"
        and stencil
        and stencil["speedup"] < 1.0
    ):
        failures.append(
            f"heat_stencil: batched nonblocking path no longer beats blocking "
            f"on the in-process backend (speedup {stencil['speedup']:.3f} < 1.0)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=150, help="epochs per mode")
    parser.add_argument(
        "--quick", action="store_true", help="short run for CI smoke (30 epochs)"
    )
    parser.add_argument(
        "--backend", choices=("vector", "proc"), default="vector",
        help="backend driving the nonblocking path (default: vector)",
    )
    # Default output path is backend-dependent (BENCH_rma.json vs
    # BENCH_rma_proc.json) and filled in below.
    add_gate_arguments(parser, default_output=None)
    args = parser.parse_args(argv)

    if args.backend == "proc":
        from repro.backends import proc_available

        if not proc_available():
            print("proc backend unavailable on this platform; nothing to measure")
            return 0
    if args.output is None:
        args.output = (
            "BENCH_rma_proc.json" if args.backend == "proc" else "BENCH_rma.json"
        )

    epochs = 30 if args.quick else args.epochs
    report = run_benchmarks(epochs, backend=args.backend)
    write_report(args.output, report)

    for name, row in report["workloads"].items():
        print(
            f"{name:16s} blocking {row['blocking_ops_per_sec']:>12,.0f} ops/s   "
            f"nonblocking {row['nonblocking_ops_per_sec']:>12,.0f} ops/s   "
            f"speedup {row['speedup']:.2f}x"
        )
    print(f"report written to {args.output}")

    return run_gate(args, report, check_against_baseline)


if __name__ == "__main__":
    raise SystemExit(main())
