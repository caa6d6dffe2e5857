"""Trace overhead benchmark: what does instrumentation cost when it's off?

The observability bargain only holds if a job that nobody traces pays
(essentially) nothing for the seams the tracer hooks into — the interceptor
dispatch guard, the store placement-listener list, the delivery-metrics
listener check.  This benchmark runs one stencil-shaped SPMD job (8 ranks,
in-process backend, no failures) three ways and reports best-of-``--repeats``
wall times:

* ``untraced_wall_s`` / ``disabled_wall_s`` — an interleaved A/A pair of
  identical tracing-disabled runs, both measured after a fully traced run
  has exercised (and warmed) the machinery: any state the trace layer leaks
  into untraced runs shows up as a gap between them, and interleaving the
  samples — with the pair's order swapped every round, so neither member
  always follows the traced run — exposes both sides to the same machine
  noise;
* ``traced_wall_s`` — a full-detail tracer installed, so the per-op cost of
  tracing *enabled* is on record too (reported, not gated — enabling the
  firehose is allowed to cost).

Gates (with ``--check-baseline``):

* ``disabled_overhead_ratio = disabled_wall_s / untraced_wall_s`` must stay
  ≤ 1.05 — the machine-independent "tracing off costs ≤5%" contract;
* ``untraced_wall_s`` must not regress more than ``--max-regression``
  against the recorded baseline (machine-variance-tolerant, like every
  other wall gate in this directory).

The script also asserts, unconditionally, that two traced runs of the same
seed produce byte-identical canonical traces — the determinism contract the
whole trace layer stands on.  Results land in ``BENCH_trace.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_trace.py                # full run
    PYTHONPATH=src python benchmarks/bench_trace.py --quick        # CI smoke
    PYTHONPATH=src python benchmarks/bench_trace.py --quick \\
        --check-baseline benchmarks/BENCH_trace_baseline.json      # gate
"""

from __future__ import annotations

import argparse
import platform
import time

import numpy as np
from common import add_gate_arguments, run_gate, wall_regression, write_report

import repro
from repro.trace import Tracer, event_lines

NPROCS = 8
PROCS_PER_NODE = 2
N_LOCAL = 256
ALPHA = 0.1
INTERVAL_DIV = 6  # checkpoint every iters//6 steps, like bench_ft


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


def _run(iters: int, *, tracer: Tracer | None = None) -> tuple[float, Tracer | None]:
    """One job; returns (wall seconds, the tracer that rode along)."""
    policy = repro.FaultTolerancePolicy(
        interval=max(1, iters // INTERVAL_DIV), store="memory"
    )
    start = time.perf_counter()
    with repro.launch(
        NPROCS,
        topology=repro.Topology(procs_per_node=PROCS_PER_NODE),
        ft=policy,
        sync_each_step=False,
        backend="sim",
        trace=tracer,
    ) as job:
        job.allocate("u", N_LOCAL + 2)
        x = np.arange(NPROCS * N_LOCAL, dtype=np.float64)
        init = np.sin(2.0 * np.pi * x / x.size)
        for ctx in job.contexts:
            ctx.local("u")[1 : N_LOCAL + 1] = init[
                ctx.rank * N_LOCAL : (ctx.rank + 1) * N_LOCAL
            ]
        job.run(_kernel, steps=iters)
    return time.perf_counter() - start, tracer


def run_benchmarks(iters: int, repeats: int) -> dict:
    """Measure the three variants and assert trace determinism."""
    # Warm-up: exercise the trace machinery fully, twice — and pin the
    # determinism contract while we are at it: identical seeds must produce
    # identical canonical traces.  One untraced warm-up too, so the measured
    # loop below starts with allocator pools and code caches hot either way.
    _, tracer_a = _run(iters, tracer=Tracer())
    _, tracer_b = _run(iters, tracer=Tracer())
    lines_a = event_lines(tracer_a.events, canonical=True)
    lines_b = event_lines(tracer_b.events, canonical=True)
    if lines_a != lines_b:
        raise AssertionError(
            "two traced runs of the same seed produced different canonical "
            "traces — the determinism contract is broken"
        )
    _run(iters)

    # Best-of-``repeats``, sampled in rotation so the untraced reference, its
    # A/A twin and the traced variant all face the same machine conditions.
    # The A/A pair swaps order every round: run back to back, the member that
    # always follows the traced run (or always follows its twin) would see
    # different neighbours than the other, and the "identical" pair would
    # read a gap that is only its position.
    untraced = disabled = traced = float("inf")
    for round_ in range(repeats):
        if round_ % 2:
            disabled = min(disabled, _run(iters)[0])
            untraced = min(untraced, _run(iters)[0])
        else:
            untraced = min(untraced, _run(iters)[0])
            disabled = min(disabled, _run(iters)[0])
        traced = min(traced, _run(iters, tracer=Tracer())[0])

    return {
        "meta": {
            "nprocs": NPROCS,
            "procs_per_node": PROCS_PER_NODE,
            "n_local": N_LOCAL,
            "iters": iters,
            "repeats": repeats,
            "trace_events": len(tracer_a.events),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "untraced_wall_s": round(untraced, 4),
        "disabled_wall_s": round(disabled, 4),
        "traced_wall_s": round(traced, 4),
        "disabled_overhead_ratio": round(disabled / untraced, 4),
        "traced_overhead_ratio": round(traced / untraced, 4),
    }


#: The machine-independent contract: tracing *disabled* costs at most 5%.
MAX_DISABLED_OVERHEAD = 1.05


def check_against_baseline(report: dict, baseline: dict, max_regression: float) -> list[str]:
    """Gate the disabled-overhead contract and the wall time; return failures."""
    failures = wall_regression(
        report,
        baseline,
        key="untraced_wall_s",
        what="untraced run",
        baseline_path="benchmarks/BENCH_trace_baseline.json",
        max_regression=max_regression,
    )
    ratio = report["disabled_overhead_ratio"]
    if ratio > MAX_DISABLED_OVERHEAD:
        failures.append(
            f"tracing-disabled overhead is {(ratio - 1.0) * 100:.1f}% "
            f"(disabled {report['disabled_wall_s']:.3f}s vs untraced "
            f"{report['untraced_wall_s']:.3f}s); the contract allows "
            f"{(MAX_DISABLED_OVERHEAD - 1.0) * 100:.0f}%"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=240, help="job steps per run")
    parser.add_argument(
        "--repeats", type=int, default=5, help="take the best of this many runs"
    )
    parser.add_argument(
        "--quick", action="store_true", help="short run for CI smoke (96 steps)"
    )
    add_gate_arguments(parser, default_output="BENCH_trace.json")
    args = parser.parse_args(argv)

    iters = 96 if args.quick else args.iters
    report = run_benchmarks(iters, args.repeats)
    write_report(args.output, report)

    print(
        f"untraced {report['untraced_wall_s']:.3f}s   "
        f"disabled {report['disabled_wall_s']:.3f}s "
        f"({(report['disabled_overhead_ratio'] - 1.0) * 100:+.1f}%)   "
        f"traced {report['traced_wall_s']:.3f}s "
        f"({report['traced_overhead_ratio']:.2f}x, "
        f"{report['meta']['trace_events']} events)"
    )
    print(f"report written to {args.output}")

    return run_gate(args, report, check_against_baseline)


if __name__ == "__main__":
    raise SystemExit(main())
