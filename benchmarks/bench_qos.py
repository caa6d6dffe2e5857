"""QoS benchmark: the quality/robustness/speed trade-off, exactly reproduced.

Times the delivery × store sweep (``repro.qos.run_qos``: ``reliable`` vs
``best_effort`` delivery crossed with the ``memory`` and ``multilevel``
checkpoint stores, every cell facing the identical seeded kill plan), asserts
a repeated sweep produces a byte-identical report, and re-checks the engine's
trade-off invariants (reliable quality is 1.0; best-effort is strictly
faster; multilevel captures move strictly fewer bytes than full images).

Because every trial is a seeded virtual-time session, the headline quantities
are *schedule-shaped* — ``result_quality``, tolerated operations, recoveries
and incremental-capture bytes must match the recorded baseline **exactly**,
on any machine.  Only the wall clock gets a tolerance.

Usage::

    PYTHONPATH=src python benchmarks/bench_qos.py                    # full run
    PYTHONPATH=src python benchmarks/bench_qos.py \\
        --check-baseline benchmarks/BENCH_qos_baseline.json          # CI gate

The regression gate fails (exit 1) when the sweep wall time regressed by more
than ``--max-regression`` (default 2x) against the baseline, or when any
schedule-shaped quantity drifted from it at all — a seeded sweep that moved
is a behavior change, not noise.
"""

from __future__ import annotations

import argparse
import platform
import time

from common import add_gate_arguments, run_gate, wall_regression, write_report

from repro import experiment
from repro.qos import QosSpec, check_invariants, run_qos

#: Per-cell quantities that are fully determined by the seeds: any drift
#: against the baseline is gated at zero tolerance.
SCHEDULE_SHAPED = (
    "min_quality",
    "mean_quality",
    "mean_elapsed_s",
    "tolerated_ops",
    "recoveries",
    "repairs",
    "multilevel_moved_bytes",
    "multilevel_full_bytes",
)


def bench_spec() -> QosSpec:
    """The benchmark grid: simulated backend only, so the baseline's
    schedule-shaped quantities hold on every platform."""
    return QosSpec(
        backends=("sim",),
        trials=2,
        interval=3,
        workload_params={"slots": 16, "updates_per_step": 4, "steps": 12},
    )


def run_benchmark() -> dict:
    """Time the sweep; assert determinism and the trade-off invariants."""
    spec = bench_spec()
    start = time.perf_counter()
    full = run_qos(spec, executor="serial")
    wall = time.perf_counter() - start
    violations = check_invariants(full)
    if violations:
        raise AssertionError(
            "qos trade-off invariants broken:\n" + "\n".join(violations)
        )
    if experiment.report_json(run_qos(spec, executor="serial")) != experiment.report_json(
        full
    ):
        raise AssertionError(
            "repeated qos sweep produced a different report — "
            "seeded determinism is broken"
        )
    cells = {
        key: {field: cell[field] for field in SCHEDULE_SHAPED}
        for key, cell in full["cells"].items()
    }
    return {
        "meta": {
            "cells": len(cells),
            "trials": spec.trials,
            "seed": spec.seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "sweep_wall_s": round(wall, 4),
        "cells": cells,
        "report_byte_identical": True,
    }


def check_against_baseline(report: dict, baseline: dict, max_regression: float) -> list[str]:
    """Wall gate plus exact agreement on the schedule-shaped quantities."""
    return wall_regression(
        report, baseline,
        key="sweep_wall_s", what="qos sweep",
        baseline_path="benchmarks/BENCH_qos_baseline.json",
        max_regression=max_regression,
    ) + experiment.check_against_baseline(report, baseline, exact=SCHEDULE_SHAPED)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_gate_arguments(parser, default_output="BENCH_qos.json")
    args = parser.parse_args(argv)

    report = run_benchmark()
    write_report(args.output, report)
    for key, cell in sorted(report["cells"].items()):
        print(
            f"{key:28s} quality min {cell['min_quality']:.4f}   "
            f"elapsed {cell['mean_elapsed_s']:.4f}s   "
            f"tolerated {cell['tolerated_ops']:.0f}   "
            f"recoveries {cell['recoveries']:.0f}"
        )
    print(f"sweep wall {report['sweep_wall_s']:.3f}s")
    print(f"report written to {args.output}")

    return run_gate(args, report, check_against_baseline)


if __name__ == "__main__":
    raise SystemExit(main())
