"""The experiment core shared by the four engines: study, chaos, serve and qos.

Every engine runs the paper's one evaluation method (§7): run a workload,
strike it with seeded fail-stop faults, and report checkpoint, logging and
recovery cost against a failure-free reference.  This module holds the
machinery that method needs, once:

* :class:`Dispatcher` — serial, thread or process dispatch of module-level
  task functions, with the pool lifecycle and the contiguous per-group
  chunking of trials (:meth:`Dispatcher.map_trials`); results come back in
  submission order, so reports are byte-identical across executors;
* :func:`probe` — the failure-free probe run that measures the
  completion-stream length kill offsets index into, and the makespan;
* :func:`plan_seed` — kill-plan entropy from a master seed and the axes an
  engine chooses to vary plans over (every axis left out faces the same plan);
* :func:`injected_session` — one protected session under a kill plan, traced
  under the cell's label, with unabsorbable failures mapped to ``aborted``;
* :func:`validate_names`, :func:`report_json` and
  :func:`check_against_baseline` — spec validation against the component
  registry, the canonical JSON form, and the baseline regression gate.

An engine supplies only what differs: its cell function, its entropy parts,
its invariants, its baseline field lists and its markdown renderer.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.policy import FaultTolerancePolicy, Topology
from repro.api.session import Job, JobReport, launch
from repro.errors import CatastrophicFailure, RecoveryError, ReproError, TraceError
from repro.ft.inject import FaultInjector, KillPlan, install_injector
from repro.registry import available, plural
from repro.simulator.costs import CostModel
from repro.trace.tracer import Tracer, current_trace_hub, trace_label

if TYPE_CHECKING:  # the engines import this module from inside repro.study
    from repro.study.workloads import Workload

__all__ = [
    "Dispatcher",
    "probe",
    "plan_seed",
    "Session",
    "injected_session",
    "validate_names",
    "report_json",
    "check_against_baseline",
]


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
class Dispatcher:
    """Runs module-level task functions serially, on threads or on processes.

    Use it as a context manager; the pool is shut down on exit.  Every task
    is an isolated deterministic session, so the executor changes wall time,
    never results.  ``choices`` narrows the executors an engine supports and
    ``error`` is the engine's error class for an unknown one.

    A run-wide trace hub lives in this process, and a tracer created in a
    forked worker registers with the worker's copy of it, so the process
    executor is refused with :class:`~repro.errors.TraceError` while a hub
    is active — before any task runs — instead of writing an empty trace.
    """

    def __init__(
        self,
        executor: str = "serial",
        max_workers: int | None = None,
        *,
        choices: Sequence[str] = ("serial", "thread", "process"),
        error: type[ReproError] = ReproError,
    ) -> None:
        if executor not in choices:
            listing = ", ".join(repr(c) for c in choices)
            raise error(f"unknown executor {executor!r}; choose one of: {listing}")
        if executor == "process" and current_trace_hub() is not None:
            raise TraceError(
                "the process executor cannot join a run-wide trace: tracers in "
                "worker processes never reach this process's hub; use the "
                "'serial' or 'thread' executor with --trace"
            )
        cpus = os.cpu_count() or 1
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None
        if executor == "serial":
            #: Tasks that can run at once (sizes the trial chunks).
            self.workers = 1
        elif executor == "thread":
            # concurrent.futures' own defaults, resolved here so the chunking
            # knows the pool width without reading private pool state.
            self.workers = max_workers or min(32, cpus + 4)
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        else:
            self.workers = max_workers or cpus
            self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def __enter__(self) -> Dispatcher:
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list:
        """``[fn(task) for task in tasks]``, dispatched on the pool."""
        if self._pool is None:
            return [fn(task) for task in tasks]
        return list(self._pool.map(fn, tasks))

    def map_trials(
        self, fn: Callable[[Any, int], Any], groups: Sequence[Any], trials: int
    ) -> list[list]:
        """``fn(group, trial)`` for every trial of every group, one list per group.

        Trials are submitted as contiguous per-group chunks, so a process pool
        pickles each group's payload once per chunk and only the compact
        results travel back.  One chunk per group is enough when there are at
        least as many groups as workers; with a wide pool and few groups each
        group is split further so no worker sits idle.  Chunk boundaries never
        affect results, only how the identical trial sequence is sliced.
        """
        per_group = max(1, min(trials, -(-self.workers // max(1, len(groups)))))
        chunk = -(-trials // per_group)
        starts = range(0, trials, chunk)
        batches = self.map(
            _run_batch,
            [
                (fn, group, start, min(start + chunk, trials))
                for group in groups
                for start in starts
            ],
        )
        n = len(starts)
        return [
            [result for batch in batches[i * n : (i + 1) * n] for result in batch]
            for i in range(len(groups))
        ]


def _run_batch(batch: tuple[Callable[[Any, int], Any], Any, int, int]) -> list:
    fn, group, start, stop = batch
    return [fn(group, trial) for trial in range(start, stop)]


# ----------------------------------------------------------------------
# Probe and plan seed
# ----------------------------------------------------------------------
def probe(
    workload: Workload,
    *,
    label: str,
    procs_per_node: int,
    cost_model: CostModel,
    backend: str = "sim",
) -> tuple[int, float, np.ndarray]:
    """Run ``workload`` once, failure-free and unprotected.

    Returns ``(ops, elapsed, result)``: the completion-stream length kill
    offsets index into, the virtual makespan and the collected result.
    The completion stream is contractually identical across backends and
    checkpoint traffic never passes through ``after_comm``, so a ``sim``
    probe's operation count holds for every backend, store and protocol of
    a comparison.  The session is traced under ``label``.
    """
    with trace_label(label), launch(
        workload.nprocs,
        topology=Topology(procs_per_node=procs_per_node, cost_model=cost_model),
        sync_each_step=workload.sync_each_step,
        backend=backend,
    ) as job:
        workload.setup(job)
        counter = FaultInjector(KillPlan([]))
        job.runtime.add_interceptor(counter)
        report = job.run(workload.kernel(), steps=workload.steps)
        result = workload.collect(job)
    return counter.ops_seen, report.elapsed, result


def plan_seed(seed: int, *parts: int | str) -> np.random.SeedSequence:
    """Kill-plan entropy: the master seed plus the axes plans vary over.

    ``str`` parts enter as CRC-32 of their UTF-8 bytes (stable across
    processes and machines, unlike ``hash``), ``int`` parts as-is.  Every
    axis an engine leaves out — typically backend, store and protocol —
    faces the identical plan.
    """
    return np.random.SeedSequence((
        seed,
        *(zlib.crc32(p.encode()) if isinstance(p, str) else p for p in parts),
    ))


# ----------------------------------------------------------------------
# The injected session
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Session:
    """One finished :func:`injected_session`; the job is still open."""

    job: Job
    tracer: Tracer
    injector: FaultInjector
    report: JobReport
    #: Exception class name if recovery could not absorb a failure, else None.
    aborted: str | None
    #: Bit-exact digest of the final workload state (None if aborted).
    digest: str | None


@contextmanager
def injected_session(
    workload: Workload,
    plan: KillPlan,
    *,
    label: str,
    policy: FaultTolerancePolicy,
    observer: Any,
    backend: str,
    procs_per_node: int,
    cost_model: CostModel,
    steps: int,
    watchdog: float | None = None,
) -> Iterator[Session]:
    """Run ``workload`` for ``steps`` under ``policy`` while ``plan`` strikes.

    The job's tracer comes from the active trace hub under ``label`` (a
    lifecycle-only private tracer without one); ``observer`` is bound to the
    job and subscribed to the tracer before the injector is installed.  A
    failure recovery cannot absorb — a rank lost with its buddy, no usable
    checkpoint — ends the run early: surviving *is* the measurement, so it
    is reported as ``aborted`` rather than raised.  The session is yielded
    with the job still open, for the caller's closing observations.
    """
    with trace_label(label):
        hub = current_trace_hub()
        tracer = hub.tracer() if hub is not None else Tracer(detail="lifecycle")
    with launch(
        workload.nprocs,
        topology=Topology(procs_per_node=procs_per_node, cost_model=cost_model),
        ft=policy,
        sync_each_step=workload.sync_each_step,
        backend=backend,
        watchdog=watchdog,
        trace=tracer,
    ) as job:
        workload.setup(job)
        observer.bind(job)
        tracer.subscribe(observer.consume)
        injector = install_injector(job, plan)
        aborted: str | None = None
        try:
            report = job.run(workload.kernel(), steps=steps)
        except (RecoveryError, CatastrophicFailure) as exc:
            aborted = type(exc).__name__
            report = job.report()
        digest = None if aborted else workload.digest(workload.collect(job))
        yield Session(job, tracer, injector, report, aborted, digest)


# ----------------------------------------------------------------------
# Specs, reports and the baseline gate
# ----------------------------------------------------------------------
def validate_names(
    spec: str, error: type[ReproError], names: Mapping[str, str | Sequence[str]]
) -> None:
    """Check every registry name of a spec, by kind; raise ``error`` listing
    the registered choices for the first unknown one."""
    for kind, value in names.items():
        known = available(kind)
        for name in (value,) if isinstance(value, str) else value:
            if name not in known:
                listing = ", ".join(repr(k) for k in known)
                raise error(
                    f"unknown {kind} {name!r} in {spec} spec; "
                    f"registered {plural(kind)} are: {listing}"
                )


def report_json(report: dict) -> str:
    """Canonical serialization — byte-identical across re-runs and executors."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


#: A gated cell field: a dotted path into the cell (``"metrics.mttr_s"``;
#: a missing step reads as None), or a ``(name, getter)`` pair for a value
#: derived from the cell.
Field = str | tuple[str, Callable[[dict], Any]]


def _read(cell: dict, field: Field) -> tuple[str, Any]:
    if not isinstance(field, str):
        name, getter = field
        return name, getter(cell)
    value: Any = cell
    for part in field.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return field, value


def check_against_baseline(
    report: dict,
    baseline: dict,
    *,
    exact: Sequence[Field] = (),
    ratio: Sequence[Field] = (),
    max_ratio: float = 2.0,
) -> list[str]:
    """Regression gate of a report against a recorded baseline; returns failures.

    Every baseline cell must still exist.  Seeded virtual-time runs are
    deterministic, so the schedule-shaped ``exact`` fields must match the
    baseline exactly.  The ``ratio`` fields are outcomes where lower is
    better: each may not exceed ``max_ratio`` times a positive baseline
    value, and may not appear or disappear (a value turning None is a
    behavior change, not noise).
    """
    failures: list[str] = []
    for key, base in baseline.get("cells", {}).items():
        current = report["cells"].get(key)
        if current is None:
            failures.append(f"{key}: cell missing from current report")
            continue
        for field in exact:
            name, was = _read(base, field)
            _, now = _read(current, field)
            if now != was:
                failures.append(f"{key}: {name} changed from {was!r} to {now!r}")
        for field in ratio:
            name, was = _read(base, field)
            _, now = _read(current, field)
            if (was is None) != (now is None):
                failures.append(
                    f"{key}: {name} presence changed ({was!r} -> {now!r})"
                )
            elif was is not None and was > 0 and now / was > max_ratio:
                failures.append(
                    f"{key}: {name} {now:.6g} is {now / was:.2f}x the "
                    f"baseline's {was:.6g} (allowed {max_ratio:.1f}x)"
                )
    return failures
