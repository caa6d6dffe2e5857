"""Campaign-engine benchmark: serial vs. concurrent executor wall-clock.

Runs the tiny CI campaign grid (``repro.study.campaign.quick_spec``) once per
executor — ``serial``, ``thread`` and ``process`` — and records the
wall-clock of each along with the speedup over the serial run.  Because every
trial is an isolated deterministic virtual-time session, the three executors
must produce **byte-identical** JSON reports; the benchmark asserts that
before reporting anything, so the speedup numbers are guaranteed to describe
the same computation.

On a single-core machine the concurrent executors can only add dispatch
overhead (speedup < 1); on the multi-core CI runners the process pool is
where the fan-out pays.  Results land in ``BENCH_study.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_study.py                 # full run
    PYTHONPATH=src python benchmarks/bench_study.py --quick         # smoke
    PYTHONPATH=src python benchmarks/bench_study.py \\
        --check-baseline benchmarks/BENCH_study.json                # wall gate

The regression gate fails (exit 1) when the serial campaign wall time
regressed by more than ``--max-regression`` (default 2x) against the
checked-in baseline's ``campaign_wall_s``.  Gate only against a baseline
recorded at the same ``--trials`` count (``benchmarks/BENCH_study.json``,
the default run's own artifact — *not* the campaign report
``BENCH_study_baseline.json``, which carries no wall times).
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from dataclasses import replace

from common import add_gate_arguments, run_gate, wall_regression, write_report

from repro.experiment import report_json
from repro.study import quick_spec, run_campaign

EXECUTORS = ("serial", "thread", "process")


def run_benchmarks(trials: int, jobs: int | None) -> dict:
    """Time the quick campaign under every executor; assert identical reports."""
    spec = replace(quick_spec(), trials=trials)
    walls: dict[str, float] = {}
    reports: dict[str, str] = {}
    for executor in EXECUTORS:
        start = time.perf_counter()
        report = run_campaign(spec, executor=executor, max_workers=jobs)
        walls[executor] = time.perf_counter() - start
        reports[executor] = report_json(report)
    reference = reports["serial"]
    for executor in EXECUTORS[1:]:
        if reports[executor] != reference:
            raise AssertionError(
                f"{executor} executor produced a report that differs from the "
                f"serial run — campaign determinism is broken"
            )
    serial = walls["serial"]
    return {
        "meta": {
            "trials": trials,
            "cells": len(json.loads(reference)["cells"]),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "campaign_wall_s": round(serial, 4),
        "executors": {
            executor: {
                "wall_s": round(wall, 4),
                "speedup_vs_serial": round(serial / wall, 3) if wall > 0 else None,
            }
            for executor, wall in walls.items()
        },
        "reports_byte_identical": True,
    }


def check_against_baseline(report: dict, baseline: dict, max_regression: float) -> list[str]:
    """Compare the serial campaign wall against the baseline; return failures."""
    return wall_regression(
        report, baseline,
        key="campaign_wall_s", what="serial campaign",
        baseline_path="benchmarks/BENCH_study.json",
        max_regression=max_regression,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=8, help="trials per campaign cell")
    parser.add_argument(
        "--quick", action="store_true", help="short run for CI smoke (4 trials)"
    )
    parser.add_argument("--jobs", type=int, default=None, help="max executor workers")
    add_gate_arguments(parser, default_output="BENCH_study.json")
    args = parser.parse_args(argv)

    trials = 4 if args.quick else args.trials
    report = run_benchmarks(trials, args.jobs)
    write_report(args.output, report)

    for executor, row in report["executors"].items():
        print(
            f"{executor:8s} wall {row['wall_s']:.3f}s   "
            f"speedup vs serial {row['speedup_vs_serial']:.2f}x"
        )
    print(f"report written to {args.output}")

    return run_gate(args, report, check_against_baseline)


if __name__ == "__main__":
    raise SystemExit(main())
