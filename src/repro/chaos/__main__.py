"""``python -m repro.chaos`` — run a long-horizon soak / chaos comparison.

Examples::

    # The default comparison: stencil under Poisson kills, all three
    # countermeasures on identical schedules, markdown table on stdout:
    python -m repro.chaos

    # An hour-equivalent soak of the kv workload under node-level failures
    # on the real-process backend, streaming the event log:
    python -m repro.chaos --workload kv --scenario correlated \\
        --backends proc --rounds 12 --compression 10000 \\
        --events soak.jsonl --output soak.json

    # The CI gate: sim + proc smoke, schema validation, baseline comparison:
    python -m repro.chaos --quick --backends sim,proc \\
        --check-baseline benchmarks/BENCH_chaos_baseline.json

    # What can I put on each axis?
    python -m repro.chaos --list

Exit status 1 when a comparison invariant is violated or the baseline gate
fails.
"""

from __future__ import annotations

import argparse

from repro.chaos.metrics import write_events
from repro.chaos.report import (
    BASELINE_EXACT,
    BASELINE_RATIO,
    check_chaos_invariants,
    render_markdown,
    report_document,
)
from repro.chaos.soak import SoakSpec, run_comparison
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

__all__ = ["main"]


def quick_spec(seed: int = 2026) -> SoakSpec:
    """The seconds-long CI soak: small rounds, modest fault load."""
    return SoakSpec(
        workload="stencil",
        scenario="poisson",
        rounds=4,
        interval=6,
        rate_per_round=0.75,
        seed=seed,
        workload_params={"n_local": 16, "iters": 24},
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="long-horizon soak engine with accelerated virtual time",
    )
    add_common_arguments(parser, default_seed=2026)
    parser.add_argument("--workload", default="stencil", help="workload to soak")
    parser.add_argument(
        "--scenario", default="poisson",
        help="failure scenario (poisson, correlated, cascade, flaky)",
    )
    parser.add_argument(
        "--backends", type=csv, default=("sim",),
        help="comma-separated backends to compare on identical schedules",
    )
    parser.add_argument(
        "--stores", type=csv, default=("memory",),
        help="comma-separated checkpoint stores to compare",
    )
    parser.add_argument(
        "--countermeasures", type=csv, default=("rollback", "replay", "excise"),
        help="comma-separated countermeasures to compare (default: all three)",
    )
    parser.add_argument(
        "--delivery", default="reliable",
        help=f"delivery mode every cell soaks under "
             f"(registered: {', '.join(available('delivery'))})",
    )
    parser.add_argument(
        "--monitor", default="transitions",
        help="chaos monitor flavor (transitions, episodes)",
    )
    parser.add_argument("--rounds", type=int, default=6, help="workload rounds to soak")
    parser.add_argument(
        "--interval", type=int, default=8, help="checkpoint interval in steps"
    )
    parser.add_argument(
        "--compression", type=float, default=10_000.0,
        help="virtual-time compression factor (default 10000x)",
    )
    parser.add_argument(
        "--rate", type=float, default=0.75, metavar="KILLS_PER_ROUND",
        help="expected kills per workload round (default 0.75)",
    )
    parser.add_argument("--nprocs", type=int, default=8, help="ranks per job")
    parser.add_argument(
        "--procs-per-node", type=int, default=2, help="ranks packed per node"
    )
    parser.add_argument(
        "--executor", choices=("serial", "thread"), default="serial",
        help="how comparison cells are dispatched (report is identical either way)",
    )
    parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="stream the first cell's JSONL event log here",
    )
    add_report_arguments(parser, regression_metric="MTTR/unavailability")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if handle_list(args):
        return 0
    if args.quick:
        base = quick_spec(args.seed)
    else:
        base = SoakSpec(
            workload=args.workload,
            scenario=args.scenario,
            delivery=args.delivery,
            monitor=args.monitor,
            rounds=args.rounds,
            interval=args.interval,
            compression=args.compression,
            rate_per_round=args.rate,
            seed=args.seed,
            nprocs=args.nprocs,
            procs_per_node=args.procs_per_node,
        )
    with trace_run(args):
        results = run_comparison(
            base,
            countermeasures=args.countermeasures,
            backends=args.backends,
            stores=args.stores,
            executor=args.executor,
        )

    json_text = report_json(report_document(results))
    write_outputs(args, render_markdown(results), json_text)
    if args.events:
        write_events(results[0].events, args.events)
        print(f"event log written to {args.events}")
    return run_gates(
        args,
        json_text,
        check_invariants=lambda: check_chaos_invariants(results),
        invariants_message=(
            "invariants hold (replay MTTR < rollback; excise availability > both)"
        ),
        exact=BASELINE_EXACT,
        ratio=BASELINE_RATIO,
    )


if __name__ == "__main__":
    raise SystemExit(main())
