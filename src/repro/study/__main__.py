"""``python -m repro.study`` — run a Monte-Carlo resilience campaign.

Examples::

    # The default small campaign, markdown summary on stdout:
    python -m repro.study

    # A custom sweep, JSON + markdown artifacts, 8 worker threads:
    python -m repro.study --workloads stencil,allreduce,kv \\
        --stores memory,disk,parity --recoveries global,localized \\
        --rates 0,2,4 --intervals auto,4,12 --trials 8 --seed 7 \\
        --executor thread --jobs 8 --output report.json --markdown report.md

    # The CI gate: tiny grid, invariants + baseline comparison:
    python -m repro.study --quick \\
        --check-baseline benchmarks/BENCH_study_baseline.json

    # What can I put on each axis?
    python -m repro.study --list

Exit status 1 when an invariant is violated or the baseline gate fails.
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
from repro.registry import available
from repro.study.campaign import (
    BASELINE_EXACT,
    BASELINE_RATIO,
    CampaignSpec,
    check_invariants,
    quick_spec,
    render_markdown,
    run_campaign,
)

__all__ = ["main"]


def _intervals(value: str) -> tuple[int | str, ...]:
    out: list[int | str] = []
    for item in csv(value):
        out.append(item if item == "auto" else int(item))
    return tuple(out)


def _floats(value: str) -> tuple[float, ...]:
    return tuple(float(item) for item in csv(value))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study",
        description="Monte-Carlo resilience-study campaign runner",
    )
    add_common_arguments(parser, default_seed=0)
    parser.add_argument(
        "--workloads", type=csv, default=("stencil", "allreduce"),
        help=f"comma-separated workload names (registered: {', '.join(available('workload'))})",
    )
    parser.add_argument(
        "--backends", type=csv, default=("sim",),
        help=f"comma-separated backends (registered: {', '.join(available('backend'))})",
    )
    parser.add_argument(
        "--stores", type=csv, default=("memory",),
        help=f"comma-separated stores (registered: {', '.join(available('store'))})",
    )
    parser.add_argument(
        "--recoveries", type=csv, default=("global", "localized"),
        help=f"comma-separated protocols (registered: {', '.join(available('recovery'))})",
    )
    parser.add_argument(
        "--delivery", default="reliable",
        help=f"delivery mode every cell runs under "
             f"(registered: {', '.join(available('delivery'))})",
    )
    parser.add_argument(
        "--rates", type=_floats, default=(2.0,), metavar="MEANS",
        help="comma-separated expected failures per failure-free makespan (default 2)",
    )
    parser.add_argument(
        "--intervals", type=_intervals, default=("auto",),
        help="comma-separated checkpoint intervals: step counts and/or 'auto'",
    )
    parser.add_argument("--trials", type=int, default=4, help="seeded trials per cell")
    parser.add_argument("--nprocs", type=int, default=8, help="ranks per job")
    parser.add_argument(
        "--procs-per-node", type=int, default=2, help="ranks packed per node"
    )
    parser.add_argument(
        "--executor", choices=("serial", "thread", "process"), default="thread",
        help="how cells/trials are dispatched (report is identical either way)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N", help="max executor workers"
    )
    add_report_arguments(parser, regression_metric="overhead")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if handle_list(args):
        return 0
    if args.quick:
        spec = quick_spec(args.seed)
    else:
        spec = CampaignSpec(
            workloads=args.workloads,
            backends=args.backends,
            stores=args.stores,
            recoveries=args.recoveries,
            delivery=args.delivery,
            mean_failures=args.rates,
            intervals=args.intervals,
            trials=args.trials,
            seed=args.seed,
            nprocs=args.nprocs,
            procs_per_node=args.procs_per_node,
        )
    with trace_run(args):
        report = run_campaign(spec, executor=args.executor, max_workers=args.jobs)
    json_text = report_json(report)
    write_outputs(args, render_markdown(report), json_text)
    return run_gates(
        args,
        json_text,
        check_invariants=lambda: check_invariants(report),
        invariants_message=(
            "invariants hold (localized < global restored bytes; auto within 2x)"
        ),
        exact=BASELINE_EXACT,
        ratio=BASELINE_RATIO,
    )


if __name__ == "__main__":
    raise SystemExit(main())
