"""Run one benchmark workload in this interpreter and print its raw results.

Started by ``run.py`` in a fresh interpreter per workload, with ``src`` on
``PYTHONPATH`` and ``TMPDIR`` inside the checkout::

    python layerbench/worker.py --workload kv_replay --seed 1 --seconds 10 --trace 0

The load is closed-loop: one job at a time, the next launched when the
previous one has closed.  Every job's result digest is checked against a
failure-free reference computed at start-up, and its deterministic counts
against the first job's.  With ``--trace 1`` untraced and traced jobs
alternate, so the tracing overhead is an interleaved A/B measurement.  The
last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

import hygiene
import repro
import shapes
from repro.api import SessionObserver, Topology
from repro.ft import install_injector
from repro.rma import OpKind
from repro.stats import latency_percentiles
from spans import FT_LAYERS, ROOT, LayerTotals, SpanRecorder


class StepClock(SessionObserver):
    """Host wall time between step completions, and per-failure MTTR."""

    def __init__(self) -> None:
        self.last = 0.0
        self.step_s: list[float] = []
        self.mttr_s: list[float] = []
        self.replay_s: list[float] = []
        self._failure: tuple[int, float] | None = None
        self._recovered = 0.0

    def start(self) -> None:
        self.last = time.perf_counter()

    def on_step_completed(self, step: int, t: float) -> None:
        now = time.perf_counter()
        self.step_s.append(now - self.last)
        self.last = now
        if self._failure is not None and step == self._failure[0]:
            # The interrupted step completed again: the episode is over.
            self.mttr_s.append(now - self._failure[1])
            self.replay_s.append(now - self._recovered)
            self._failure = None

    def on_failure_detected(self, rank: int, step: int, t: float) -> None:
        if self._failure is None:
            self._failure = (step, time.perf_counter())

    def on_recovery_completed(self, resume_step: int, t: float) -> None:
        self._recovered = time.perf_counter()


@dataclass
class JobResult:
    setup_s: float
    run_s: float
    digest: str
    counts: dict[str, float]
    clock: StepClock
    layers: dict[str, LayerTotals]


def deterministic_counts(report: repro.JobReport) -> dict[str, float]:
    """Counts that must repeat exactly for every job of one seed."""
    metrics = report.metrics
    return {
        "steps_executed": report.steps_executed,
        "checkpoints": report.checkpoints,
        "recoveries": report.recoveries,
        "rma.ops": sum(metrics.total(f"rma.{kind.value}") for kind in OpKind),
        "ft.checkpoint.bytes": metrics.total("ft.checkpoint_bytes"),
        "ft.restored_bytes": metrics.total("ft.restored_bytes"),
        "sim.virtual_makespan_s": report.elapsed,
    }


def run_job(shape, workload, plan, recorder: SpanRecorder | None, job_id: int) -> JobResult:
    """Launch, set up, run and close one job; time set-up and ``Job.run``."""
    clock = StepClock()
    began = time.perf_counter()
    with repro.launch(
        workload.nprocs,
        topology=Topology(procs_per_node=shape.procs_per_node),
        ft=shape.policy(),
        sync_each_step=workload.sync_each_step,
        backend=shape.backend,
    ) as job:
        workload.setup(job)
        setup_s = time.perf_counter() - began
        if plan is not None:
            install_injector(job, plan)
        job.add_observer(clock)
        if recorder is not None:
            recorder.install(job, job_id)
        try:
            clock.start()
            began = time.perf_counter()
            report = job.run(workload.kernel(), steps=workload.steps)
            run_s = time.perf_counter() - began
        finally:
            if recorder is not None:
                recorder.uninstall()
        digest = workload.digest(workload.collect(job))
    layers = recorder.rollup() if recorder is not None else {}
    return JobResult(setup_s, run_s, digest, deterministic_counts(report), clock, layers)


def layer_values(result: JobResult, steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced job (times are per-job totals)."""
    layers = result.layers

    def get(name: str) -> LayerTotals:
        return layers.get(name, LayerTotals())

    root, backends = get(ROOT), get("backends")
    counts = result.counts
    values = {
        "api.step.calls": get("api.step").calls,
        "api.step.self_ms": get("api.step").self_ns / 1e6,
        "rma.comm.calls": get("rma.comm").calls,
        "rma.comm.self_us": get("rma.comm").self_ns / 1e3,
        "rma.sync.calls": get("rma.sync").calls,
        "rma.sync.self_us": get("rma.sync").self_ns / 1e3,
        "rma.ops": counts["rma.ops"],
        "backends.calls": backends.calls,
        "backends.self_ms": backends.self_ns / 1e6,
        "backends.ops_per_batch": backends.items / max(backends.batches, 1),
        "ft.log.calls": get("ft.log").calls,
        "ft.log.self_ms": get("ft.log").self_ns / 1e6,
        "ft.checkpoint.calls": get("ft.checkpoint").calls,
        "ft.checkpoint.ms": get("ft.checkpoint").total_ns / 1e6,
        "ft.store.ms": get("ft.store").total_ns / 1e6,
        "ft.checkpoint.bytes": counts["ft.checkpoint.bytes"],
        "ft.recovery.calls": get("ft.recovery").calls,
        "ft.recovery.ms": get("ft.recovery").total_ns / 1e6,
        "ft.restored_bytes": counts["ft.restored_bytes"],
        "ft.replay_ms": sum(result.clock.replay_s) * 1e3,
        "ft.useful_step_ratio": steps / counts["steps_executed"],
        "ft.overhead_ms_per_step": sum(get(n).self_ns for n in FT_LAYERS) / 1e6 / steps,
        "sim.virtual_makespan_s": counts["sim.virtual_makespan_s"],
        "trace.unattributed_share": root.self_ns / root.total_ns,
    }
    for name, layer in layers.items():
        if name != ROOT:
            values[f"share.{name}"] = layer.self_ns / root.total_ns
    return values


UNITS = {
    "setup_s": "s", "steps_per_s": "1/s", "step_ms_p50": "ms", "step_ms_p95": "ms",
    "step_ms_p99": "ms",
    "peak_rss_mb": "MB", "error_rate": "share", "mttr_ms_p50": "ms",
    "api.step.calls": "count", "api.step.self_ms": "ms",
    "rma.comm.calls": "count", "rma.comm.self_us": "us",
    "rma.sync.calls": "count", "rma.sync.self_us": "us", "rma.ops": "count",
    "backends.calls": "count", "backends.self_ms": "ms", "backends.ops_per_batch": "ops",
    "ft.log.calls": "count", "ft.log.self_ms": "ms",
    "ft.checkpoint.calls": "count", "ft.checkpoint.ms": "ms", "ft.store.ms": "ms",
    "ft.checkpoint.bytes": "bytes", "ft.recovery.calls": "count", "ft.recovery.ms": "ms",
    "ft.restored_bytes": "bytes", "ft.replay_ms": "ms", "ft.useful_step_ratio": "ratio",
    "ft.overhead_ms_per_step": "ms", "sim.virtual_makespan_s": "virtual_s",
    "trace.unattributed_share": "share", "trace.overhead_ratio": "ratio",
}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(shapes.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans-out", type=Path, required=True)
    args = parser.parse_args(argv)

    shape = shapes.SHAPES[args.workload]
    tmpdir = tempfile.gettempdir()
    before = hygiene.snapshot(tmpdir)
    workload = shape.make_workload(args.seed)

    # Failure-free reference, computed once: no fault tolerance, eager sim.
    reference = workload.run()
    problems: list[str] = []
    expected = getattr(workload, "expected", None)
    if expected is not None and not np.array_equal(reference.result, expected()):
        problems.append("failure-free reference differs from the workload's closed form")
    ops_per_step = int(deterministic_counts(reference.report)["rma.ops"]) // workload.steps
    plan = shape.kill_plan(args.seed, workload, ops_per_step)

    untraced: list[JobResult] = []
    traced: list[JobResult] = []
    attempted = failed = 0
    template: dict[str, float] | None = None
    spans_of_last_traced: list = []
    # The first job of each kind (untraced, traced) warms caches and lazy
    # imports; it is checked like every other job but not timed.
    warmup = 2 if args.trace else 1
    deadline = float("inf")
    while True:
        now = time.perf_counter()
        enough = untraced and (traced or not args.trace)
        if now >= deadline and (enough or now >= deadline + args.seconds):
            break
        use_trace = bool(args.trace) and attempted % 2 == 1
        recorder = SpanRecorder() if use_trace else None
        attempted += 1
        if attempted == warmup + 1:
            deadline = time.perf_counter() + args.seconds
        try:
            result = run_job(shape, workload, plan, recorder, attempted)
        except Exception as exc:  # noqa: BLE001 - every job error counts, the loop goes on
            failed += 1
            problems.append(f"job {attempted}: {type(exc).__name__}: {exc}")
            continue
        if result.digest != reference.digest:
            failed += 1
            problems.append(f"job {attempted}: digest differs from the failure-free reference")
        if template is None:
            template = result.counts
            if result.counts["recoveries"] != shape.kills:
                problems.append(
                    f"{result.counts['recoveries']:.0f} recoveries, expected {shape.kills}"
                )
        elif result.counts != template:
            problems.append(f"job {attempted}: deterministic counts differ: {result.counts}")
        if attempted <= warmup:
            continue
        if use_trace:
            traced.append(result)
            spans_of_last_traced = recorder.spans
        else:
            untraced.append(result)

    problems += hygiene.live_workers()
    problems += hygiene.leaks(before, tmpdir)
    # The shared-memory module starts a tracker process; stop and reap it so
    # no process of this run outlives it.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()

    metrics: dict[str, float] = {}
    samples: dict[str, int] = {}
    if untraced:
        # Step percentiles are taken per job, then the median over jobs: a
        # pooled p99 sits on the scheduling-noise tail of the machine and
        # swings by half between runs on the proc workload.  p99 is kept for
        # the ledger; p95 is the steady tail metric.
        per_job = [latency_percentiles([s * 1e3 for s in r.clock.step_s]) for r in untraced]
        step_samples = sum(len(r.clock.step_s) for r in untraced)
        mttr = latency_percentiles([s * 1e3 for r in untraced for s in r.clock.mttr_s])
        metrics.update({
            "setup_s": statistics.median(r.setup_s for r in untraced),
            "steps_per_s": workload.steps * len(untraced) / sum(r.run_s for r in untraced),
            "step_ms_p50": statistics.median(p["p50"] for p in per_job),
            "step_ms_p95": statistics.median(p["p95"] for p in per_job),
            "step_ms_p99": statistics.median(p["p99"] for p in per_job),
            "peak_rss_mb": peak_rss_mb(),
            "error_rate": failed / attempted,
        })
        samples.update({
            "setup_s": len(untraced), "steps_per_s": len(untraced),
            "step_ms_p50": step_samples, "step_ms_p95": step_samples,
            "step_ms_p99": step_samples,
        })
        if mttr is not None:
            metrics["mttr_ms_p50"] = mttr["p50"]
            samples["mttr_ms_p50"] = sum(len(r.clock.mttr_s) for r in untraced)
    if traced:
        per_job = [layer_values(r, workload.steps) for r in traced]
        for name in sorted({k for values in per_job for k in values}):
            metrics[name] = statistics.median(values.get(name, 0.0) for values in per_job)
            samples[name] = len(per_job)
        if untraced:
            metrics["trace.overhead_ratio"] = (
                statistics.median(r.run_s for r in traced)
                / statistics.median(r.run_s for r in untraced)
            )
            samples["trace.overhead_ratio"] = len(traced)
        args.spans_out.parent.mkdir(parents=True, exist_ok=True)
        with args.spans_out.open("w") as out:
            for span in spans_of_last_traced:
                out.write(json.dumps(span.as_dict()) + "\n")

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": {
            name: {"value": value, "unit": "share" if name.startswith("share.") else UNITS[name]}
            for name, value in metrics.items()
        },
        "samples": samples,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repro": repro.__version__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
