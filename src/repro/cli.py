"""Shared command-line conventions of the ``repro`` engines.

Four engines ship a ``python -m`` entry point — :mod:`repro.study`,
:mod:`repro.chaos`, :mod:`repro.serve` and :mod:`repro.qos` — and they follow
one contract: ``--list`` prints the component registry and exits, ``--quick``
swaps in the engine's seconds-long CI configuration, ``--seed`` seeds every
stochastic choice (the quick configuration included), and the report
epilogue (markdown to stdout, optional JSON artifact, invariant gate,
baseline gate) behaves identically everywhere.  This module is that
contract in one place; the per-engine ``__main__`` modules only contribute
their sweep axes, their invariants and their baseline field lists.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.experiment import Field, check_against_baseline
from repro.registry import render_available

__all__ = [
    "csv",
    "add_common_arguments",
    "add_report_arguments",
    "handle_list",
    "trace_run",
    "write_outputs",
    "run_gates",
]


def csv(value: str) -> tuple[str, ...]:
    """``argparse`` type for comma-separated name lists (blanks dropped)."""
    return tuple(item.strip() for item in value.split(",") if item.strip())


def add_common_arguments(parser: argparse.ArgumentParser, *, default_seed: int) -> None:
    """The flags every engine answers identically.

    ``default_seed`` preserves each engine's historical default (and thereby
    its checked-in baselines); everything else about ``--seed``, ``--quick``
    and ``--list`` is shared behavior.
    """
    parser.add_argument(
        "--list", action="store_true",
        help="print every registered component of every kind and exit",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run the engine's seconds-long CI configuration "
             "(overrides the sweep options, but not --seed)",
    )
    parser.add_argument(
        "--seed", type=int, default=default_seed,
        help=f"master seed for every stochastic choice (default {default_seed})",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="dump a full-run virtual-time trace (canonical JSONL; inspect "
             "with `python -m repro.trace`)",
    )


@contextmanager
def trace_run(args: argparse.Namespace) -> Iterator[None]:
    """Activate a run-wide trace hub when ``--trace PATH`` was given.

    Engines wrap their run call in this context; every session they launch
    inside joins the hub (labelled by comparison cell), and the merged
    trace is written — atomically, even when the run raises — on exit.
    Without ``--trace`` this is a no-op.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield
        return
    from repro.trace.tracer import tracing

    with tracing(path=path):
        yield
    print(f"trace written to {path}")


def add_report_arguments(
    parser: argparse.ArgumentParser, *, regression_metric: str
) -> None:
    """The shared report/gate flags (``--output`` … ``--skip-invariants``)."""
    parser.add_argument(
        "--output", default=None, metavar="PATH", help="write the JSON report here"
    )
    parser.add_argument(
        "--markdown", default=None, metavar="PATH",
        help="write the markdown summary here (always printed to stdout)",
    )
    parser.add_argument(
        "--check-baseline", default=None, metavar="PATH",
        help="compare against a baseline JSON report and exit 1 on regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help=f"tolerated {regression_metric} ratio against the baseline "
             f"(default 2.0)",
    )
    parser.add_argument(
        "--skip-invariants", action="store_true",
        help="do not gate on the report invariants (debugging only)",
    )


def handle_list(args: argparse.Namespace) -> bool:
    """Serve ``--list`` (returns True when the caller should exit 0)."""
    if getattr(args, "list", False):
        print(render_available())
        return True
    return False


def write_outputs(args: argparse.Namespace, markdown: str, json_text: str) -> None:
    """The shared artifact epilogue: markdown to stdout, files on request."""
    print(markdown, end="")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json_text)
        print(f"report written to {args.output}")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(markdown)
        print(f"summary written to {args.markdown}")


def run_gates(
    args: argparse.Namespace,
    json_text: str,
    *,
    check_invariants: Callable[[], list[str]],
    invariants_message: str,
    exact: tuple[Field, ...],
    ratio: tuple[Field, ...],
) -> int:
    """The shared gate epilogue; returns the process exit status.

    ``check_invariants`` is called unless ``--skip-invariants``.  When
    ``--check-baseline`` names a file, the canonical report ``json_text`` is
    gated against it by :func:`repro.experiment.check_against_baseline` on
    the engine's ``exact`` and ``ratio`` fields.  Violations go to stderr,
    prefixed ``INVARIANT:`` / ``REGRESSION:`` — the strings CI greps for.
    """
    status = 0
    if not args.skip_invariants:
        violations = check_invariants()
        for violation in violations:
            print(f"INVARIANT: {violation}", file=sys.stderr)
        if violations:
            status = 1
        else:
            print(invariants_message)
    if args.check_baseline:
        with open(args.check_baseline) as fh:
            baseline = json.load(fh)
        failures = check_against_baseline(
            json.loads(json_text), baseline,
            exact=exact, ratio=ratio, max_ratio=args.max_regression,
        )
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(
                f"baseline check passed against {args.check_baseline} "
                f"(tolerance {args.max_regression:.1f}x)"
            )
    return status
