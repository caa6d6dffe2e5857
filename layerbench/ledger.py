"""Run the benchmark over several seeds and print the ledger.

From the root of a checkout::

    python3 layerbench/ledger.py --seeds 1-10 --seconds 15 --trace 0 1

For every workload and metric it prints the median, the quartiles, the
interquartile spread as a share of the median and the number of runs, plus
the median per-run sample count.  End-to-end metrics whose spread exceeds a
third of their ``BENCHMARK.json`` bound are flagged ``UNSTEADY`` (set-up time
is exempt, as it is only compared by median).  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--workloads", nargs="+", default=None)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for trace in args.trace:
        for workload in workloads:
            records = []
            for seed in args.seeds:
                run = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=root, capture_output=True, text=True,
                )
                if run.returncode != 0:
                    print(f"{workload} seed {seed} trace {trace}: exit {run.returncode}\n"
                          f"{run.stdout}{run.stderr}")
                    steady = False
                    continue
                stem = f"{workload}-seed{seed}-trace{trace}.json"
                records.append(json.loads((root / ".bench_out" / stem).read_text()))
            if len(records) < 2:
                continue
            jobs = sum(r["attempted"] for r in records)
            failed = sum(r["failed"] for r in records)
            print(f"\n{workload} (trace {trace}): {len(records)} runs of {seconds:g}s, "
                  f"{jobs} jobs, {failed} failed")
            print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'iqr/med':>8s} {'runs':>4s} {'samples':>7s}")
            for name in sorted(records[0]["metrics"]):
                values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else 0.0
                counts = [r["samples"][name] for r in records if name in r["samples"]]
                flag = ""
                if trace == 0 and name in bounds and name != "setup_s":
                    if spread > bounds[name] / 3:
                        flag, steady = "  UNSTEADY", False
                print(f"  {name:28s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                      f"{len(values):4d} {statistics.median(counts) if counts else '':>7}"
                      f"{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
