"""Layer-ledger benchmark of the ftRMA reproduction: one workload per call.

Run from the root of a checkout::

    python3 layerbench/run.py --workload stencil_ckpt --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` interleaves untraced and traced jobs and reports the per-layer
metrics.  The metric names come from ``BENCHMARK.json``.  The workload runs
in a fresh interpreter (``worker.py``), so peak memory and warm caches do
not leak between workloads; afterwards this process checks that no shared
memory, scratch directory or worker process was left behind.  Human-readable
ledger lines go first; the last stdout line is the JSON result.  The exit
code is 0 only when every job matched the failure-free reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import hygiene

HERE = Path(__file__).resolve().parent
#: Whole-run limit for the worker interpreter, seconds.
WORKER_TIMEOUT = 170.0


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return os.environ.get("GIT_COMMIT", "unknown")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("layerbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tmpdir = root / ".bench_tmp"
    outdir = root / ".bench_out"
    tmpdir.mkdir(exist_ok=True)
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, TMPDIR=str(tmpdir), PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    before = hygiene.snapshot(str(tmpdir))
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spans-out", str(outdir / f"{stem}-spans.jsonl"),
    ]
    with subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True) as worker:
        try:
            stdout, _ = worker.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.communicate()
            print(f"layerbench: worker exceeded {WORKER_TIMEOUT:.0f}s", file=sys.stderr)
            return 1
    if worker.returncode != 0 or not stdout.strip():
        print(f"layerbench: worker failed (exit {worker.returncode})", file=sys.stderr)
        return 1
    record = json.loads(stdout.strip().splitlines()[-1])
    problems = record["problems"] + hygiene.leaks(before, str(tmpdir))
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        problems=problems,
    )
    record["env"].update(
        commit=git_commit(root), nproc=os.cpu_count(), machine=platform.platform(),
        cpu=cpu_model(),
    )
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env_line = " ".join(f"{k}={v}" for k, v in record["env"].items())
    print(f"layerbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={record['attempted']} failed={record['failed']} {env_line}")
    samples = record["samples"]
    for name, metric in sorted(record["metrics"].items()):
        n = samples.get(name)
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']:10s}"
              + (f" n={n}" if n is not None else ""))
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    correct = record["correct"] and not problems and not missing
    if missing:
        print(f"  PROBLEM: metrics not measured: {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: record["metrics"][m["name"]] for m in wanted
            if m["name"] in record["metrics"]
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
