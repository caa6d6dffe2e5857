"""``python -m repro.qos`` — quantify the quality/robustness/speed trade-off.

Examples::

    # The default comparison: sparse kv updates, reliable vs best-effort
    # delivery on memory vs multilevel stores, identical kill plans:
    python -m repro.qos

    # A bigger sweep on sim and proc, JSON artifact:
    python -m repro.qos --workload kv --backends sim,proc \\
        --stores memory,multilevel,parity --trials 4 --kills 2 \\
        --output qos.json

    # The CI gate: quick smoke (sim + proc when available), invariants +
    # baseline comparison:
    python -m repro.qos --quick \\
        --check-baseline benchmarks/BENCH_qos_baseline.json

    # What can I put on each axis?
    python -m repro.qos --list

Exit status 1 when a trade-off invariant is violated or the baseline gate
fails.
"""

from __future__ import annotations

import argparse

from repro.cli import (
    add_common_arguments,
    add_report_arguments,
    csv,
    handle_list,
    run_gates,
    trace_run,
    write_outputs,
)
from repro.experiment import report_json
from repro.qos.engine import QosSpec, check_invariants, quick_spec, run_qos
from repro.qos.report import BASELINE_EXACT, BASELINE_RATIO, render_markdown

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qos",
        description="delivery-mode × store-hierarchy comparison on identical "
                    "kill plans",
    )
    add_common_arguments(parser, default_seed=0)
    parser.add_argument(
        "--workload", default="kv",
        help="workload under test (sparse-write kernels show the trade-off best)",
    )
    parser.add_argument(
        "--deliveries", type=csv, default=("reliable", "best_effort"),
        help="comma-separated delivery modes to compare",
    )
    parser.add_argument(
        "--stores", type=csv, default=("memory", "multilevel"),
        help="comma-separated checkpoint stores to compare",
    )
    parser.add_argument(
        "--backends", type=csv, default=("sim",),
        help="comma-separated backends to run identical plans on",
    )
    parser.add_argument(
        "--kills", type=int, default=1, help="injected kills per trial"
    )
    parser.add_argument(
        "--trials", type=int, default=2, help="seeded kill plans per cell"
    )
    parser.add_argument("--nprocs", type=int, default=8, help="ranks per job")
    parser.add_argument(
        "--procs-per-node", type=int, default=2, help="ranks packed per node"
    )
    parser.add_argument(
        "--interval", type=int, default=4, help="checkpoint interval in steps"
    )
    parser.add_argument(
        "--stale-fraction", type=float, default=0.5,
        help="probability a tolerated get serves stale checkpoint data "
             "instead of dropping (default 0.5)",
    )
    parser.add_argument(
        "--executor", choices=("serial", "thread", "process"), default="thread",
        help="how cells/trials are dispatched (report is identical either way)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N", help="max executor workers"
    )
    add_report_arguments(parser, regression_metric="virtual-makespan")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if handle_list(args):
        return 0
    if args.quick:
        spec = quick_spec(args.seed)
    else:
        spec = QosSpec(
            workload=args.workload,
            deliveries=args.deliveries,
            stores=args.stores,
            backends=args.backends,
            kills=args.kills,
            trials=args.trials,
            seed=args.seed,
            nprocs=args.nprocs,
            procs_per_node=args.procs_per_node,
            interval=args.interval,
            stale_fraction=args.stale_fraction,
        )
    with trace_run(args):
        report = run_qos(spec, executor=args.executor, max_workers=args.jobs)
    json_text = report_json(report)
    write_outputs(args, render_markdown(report), json_text)
    return run_gates(
        args,
        json_text,
        check_invariants=lambda: check_invariants(report),
        invariants_message=(
            "invariants hold (reliable quality == 1.0; best-effort strictly "
            "faster; incremental < full; backends agree)"
        ),
        exact=BASELINE_EXACT,
        ratio=BASELINE_RATIO,
    )


if __name__ == "__main__":
    raise SystemExit(main())
