"""Serving-layer benchmark: wall-clock cost of the SLO comparison + invariant.

Times the CI serving comparison (``repro.serve.__main__.quick_spec``, three
recovery protocols on the simulated backend against one identical kill plan
and client population), asserts a repeated comparison produces a
byte-identical report (seeded serving runs are deterministic, so anything
else is a bug), and records the headline quantities the gate rides on — the
per-protocol recovery-window p99s.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py                  # full run
    PYTHONPATH=src python benchmarks/bench_serve.py \\
        --check-baseline benchmarks/BENCH_serve_baseline.json        # CI gate

The regression gate fails (exit 1) when the comparison wall time regressed by
more than ``--max-regression`` (default 2x) against the baseline, or when the
serving invariant breaks: **localized recovery-window p99 strictly below
global rollback's** on the same kill plan.
"""

from __future__ import annotations

import argparse
import platform
import time

from common import add_gate_arguments, run_gate, wall_regression, write_report

from repro.experiment import report_json
from repro.serve import report_document, run_slo_comparison
from repro.serve.__main__ import quick_spec
from repro.serve.slo import SEGMENT_RECOVERY


def _recovery_p99(result) -> float | None:
    latency = result.slo[SEGMENT_RECOVERY]["latency_ms"]
    return latency["p99"] if latency else None


def run_benchmark() -> dict:
    """Time the quick comparison; assert determinism across repeats."""
    start = time.perf_counter()
    results = run_slo_comparison(quick_spec())
    wall = time.perf_counter() - start
    if report_json(report_document(run_slo_comparison(quick_spec()))) != report_json(
        report_document(results)
    ):
        raise AssertionError(
            "repeated serve comparison produced a different report — "
            "seeded determinism is broken"
        )
    cells = {}
    for result in results:
        overall = result.slo["overall"]
        cells[result.spec.cell_key] = {
            "recovery_p99_ms": _recovery_p99(result),
            "overall_p99_ms": (
                overall["latency_ms"]["p99"] if overall["latency_ms"] else None
            ),
            "errors": overall["errors"],
            "requests": overall["requests"],
        }
    return {
        "meta": {
            "cells": len(results),
            "compression": quick_spec().compression,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "comparison_wall_s": round(wall, 4),
        "cells": cells,
        "report_byte_identical": True,
    }


def check_against_baseline(report: dict, baseline: dict, max_regression: float) -> list[str]:
    """Wall gate + the serving invariant; return human-readable failures."""
    failures = wall_regression(
        report, baseline,
        key="comparison_wall_s", what="serve comparison",
        baseline_path="benchmarks/BENCH_serve_baseline.json",
        max_regression=max_regression,
    )
    # The serving invariant reads only the current report, so it is checked
    # even when the wall gate (or its schema guard) already failed.
    cells = report["cells"]
    p99_global = cells.get("sim/memory/global", {}).get("recovery_p99_ms")
    p99_localized = cells.get("sim/memory/localized", {}).get("recovery_p99_ms")
    if p99_global is None or p99_localized is None:
        failures.append(
            f"recovery-window p99 missing (global={p99_global}, "
            f"localized={p99_localized}) — the kill plan must land mid-traffic"
        )
    elif p99_localized >= p99_global:
        failures.append(
            f"localized recovery-window p99 {p99_localized:.3f}ms is not "
            f"strictly below global rollback's {p99_global:.3f}ms on the same "
            f"kill plan"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_gate_arguments(parser, default_output="BENCH_serve.json")
    args = parser.parse_args(argv)

    report = run_benchmark()
    write_report(args.output, report)
    p99s = {
        key.rsplit("/", 1)[-1]: cell["recovery_p99_ms"]
        for key, cell in report["cells"].items()
    }
    print(
        f"comparison wall {report['comparison_wall_s']:.3f}s; "
        f"recovery-window p99 (ms): "
        + ", ".join(
            f"{name}={value:.3f}" if value is not None else f"{name}=—"
            for name, value in sorted(p99s.items())
        )
    )
    print(f"report written to {args.output}")

    return run_gate(args, report, check_against_baseline)


if __name__ == "__main__":
    raise SystemExit(main())
