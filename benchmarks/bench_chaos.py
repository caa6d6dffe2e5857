"""Soak-engine benchmark: wall-clock cost and virtual-time leverage.

Times the CI soak comparison (``repro.chaos.__main__.quick_spec``, three
countermeasures on the simulated backend against one identical kill plan) and
reports the *compression leverage* — how many virtual seconds of operation
each wall-clock second buys.  That leverage is the whole point of the soak
engine: an hour-equivalent campaign must stay a seconds-long CI job.

The run first asserts that a repeated comparison produces a byte-identical
report (seeded soaks are deterministic, so anything else is a bug), then
records wall times.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py                  # full run
    PYTHONPATH=src python benchmarks/bench_chaos.py \\
        --check-baseline benchmarks/BENCH_chaos_wall.json            # wall gate

The regression gate fails (exit 1) when the comparison wall time regressed by
more than ``--max-regression`` (default 2x) against the checked-in baseline's
``comparison_wall_s``.
"""

from __future__ import annotations

import argparse
import platform
import time

from common import add_gate_arguments, run_gate, wall_regression, write_report

from repro.chaos import report_document, run_comparison
from repro.chaos.__main__ import quick_spec
from repro.experiment import report_json


def run_benchmark() -> dict:
    """Time the quick comparison; assert determinism across repeats."""
    start = time.perf_counter()
    results = run_comparison(quick_spec())
    wall = time.perf_counter() - start
    if report_json(report_document(run_comparison(quick_spec()))) != report_json(
        report_document(results)
    ):
        raise AssertionError(
            "repeated soak comparison produced a different report — "
            "seeded determinism is broken"
        )
    virtual = sum(r.metrics.total_s for r in results)
    return {
        "meta": {
            "cells": len(results),
            "compression": quick_spec().compression,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "comparison_wall_s": round(wall, 4),
        "virtual_seconds_covered": round(virtual, 4),
        "leverage_virtual_per_wall": round(virtual / wall, 2) if wall > 0 else None,
        "report_byte_identical": True,
    }


def check_against_baseline(report: dict, baseline: dict, max_regression: float) -> list[str]:
    """Compare the comparison wall against the baseline; return failures."""
    return wall_regression(
        report, baseline,
        key="comparison_wall_s", what="soak comparison",
        baseline_path="benchmarks/BENCH_chaos_wall.json",
        max_regression=max_regression,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_gate_arguments(parser, default_output="BENCH_chaos_wall.json")
    args = parser.parse_args(argv)

    report = run_benchmark()
    write_report(args.output, report)
    print(
        f"comparison wall {report['comparison_wall_s']:.3f}s covering "
        f"{report['virtual_seconds_covered']:.1f} virtual seconds "
        f"({report['leverage_virtual_per_wall']:.0f}x leverage)"
    )
    print(f"report written to {args.output}")

    return run_gate(args, report, check_against_baseline)


if __name__ == "__main__":
    raise SystemExit(main())
