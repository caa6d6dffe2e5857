"""``python -m repro.serve`` — sharded KV service under failures, SLO report.

Examples::

    # The default comparison: one seeded NODE_KILL against all three
    # recovery protocols on identical traffic, SLO table on stdout:
    python -m repro.serve

    # The same grid on the real-process backend too, with the canonical
    # request log and JSON report written out:
    python -m repro.serve --backends sim,proc \\
        --requests requests.jsonl --output serve.json

    # The CI gate: quick smoke, schema-validated log, baseline comparison:
    python -m repro.serve --quick --backends sim,proc \\
        --check-baseline benchmarks/BENCH_serve_baseline.json

    # What can I put on each axis?
    python -m repro.serve --list

Exit status 1 when a comparison invariant is violated or the baseline gate
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
from repro.registry import available
from repro.serve.engine import ServeSpec, run_slo_comparison
from repro.serve.report import (
    BASELINE_EXACT,
    BASELINE_RATIO,
    check_serve_invariants,
    render_markdown,
    report_document,
    write_requests,
)

__all__ = ["main"]


def quick_spec(seed: int = 2026) -> ServeSpec:
    """The seconds-long CI serving cell: short run, modest key space."""
    return ServeSpec(
        steps=24,
        rate_per_step=5.0,
        slots=32,
        key_space=256,
        interval=8,
        seed=seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="sharded resilient KV service with open-loop traffic and latency SLOs",
    )
    add_common_arguments(parser, default_seed=2026)
    parser.add_argument(
        "--backends", type=csv, default=("sim",),
        help="comma-separated backends to compare on identical traffic",
    )
    parser.add_argument(
        "--stores", type=csv, default=("memory",),
        help="comma-separated checkpoint stores to compare",
    )
    parser.add_argument(
        "--recoveries", type=csv, default=("global", "localized", "degraded"),
        help="comma-separated recovery protocols to compare (default: all three)",
    )
    parser.add_argument(
        "--delivery", default="reliable",
        help=f"delivery mode every cell serves under "
             f"(registered: {', '.join(available('delivery'))})",
    )
    parser.add_argument("--steps", type=int, default=40, help="job steps to serve")
    parser.add_argument(
        "--rate", type=float, default=6.0, metavar="REQS_PER_STEP",
        help="mean request arrivals per job step (default 6.0)",
    )
    parser.add_argument(
        "--zipf", type=float, default=1.1, metavar="S",
        help="key-skew exponent (0 = uniform; default 1.1)",
    )
    parser.add_argument(
        "--read-fraction", type=float, default=0.5,
        help="fraction of requests that are reads (default 0.5)",
    )
    parser.add_argument(
        "--key-space", type=int, default=512, help="distinct client keys"
    )
    parser.add_argument("--slots", type=int, default=64, help="slots per shard")
    parser.add_argument(
        "--interval", type=int, default=10, help="checkpoint interval in steps"
    )
    parser.add_argument(
        "--compression", type=float, default=1000.0,
        help="virtual-time compression factor (default 1000x)",
    )
    parser.add_argument("--nprocs", type=int, default=8, help="ranks (= shards) per job")
    parser.add_argument(
        "--procs-per-node", type=int, default=2, help="ranks packed per node"
    )
    parser.add_argument(
        "--kill-frac", type=float, default=0.45,
        help="kill offset as a fraction of the probe's op stream (default 0.45)",
    )
    parser.add_argument(
        "--kill-kind", default="node_kill",
        help="pod_kill (one rank) or node_kill (every rank of the node)",
    )
    parser.add_argument(
        "--executor", choices=("serial", "thread"), default="serial",
        help="how comparison cells are dispatched (report is identical either way)",
    )
    parser.add_argument(
        "--requests", default=None, metavar="PATH",
        help="write the canonical JSONL request log (all cells) here",
    )
    add_report_arguments(parser, regression_metric="p99")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if handle_list(args):
        return 0
    if args.quick:
        base = quick_spec(args.seed)
    else:
        base = ServeSpec(
            delivery=args.delivery,
            steps=args.steps,
            rate_per_step=args.rate,
            zipf_s=args.zipf,
            read_fraction=args.read_fraction,
            key_space=args.key_space,
            slots=args.slots,
            interval=args.interval,
            compression=args.compression,
            seed=args.seed,
            nprocs=args.nprocs,
            procs_per_node=args.procs_per_node,
            kill_frac=args.kill_frac,
            kill_kind=args.kill_kind,
        )
    with trace_run(args):
        results = run_slo_comparison(
            base,
            recoveries=args.recoveries,
            backends=args.backends,
            stores=args.stores,
            executor=args.executor,
        )

    json_text = report_json(report_document(results))
    write_outputs(args, render_markdown(results), json_text)
    if args.requests:
        count = write_requests(results, args.requests)
        print(f"{count} request rows written to {args.requests}")
    return run_gates(
        args,
        json_text,
        check_invariants=lambda: check_serve_invariants(results),
        invariants_message=(
            "invariants hold (localized recovery p99 < global; "
            "degraded errs but stays flat)"
        ),
        exact=BASELINE_EXACT,
        ratio=BASELINE_RATIO,
    )


if __name__ == "__main__":
    raise SystemExit(main())
