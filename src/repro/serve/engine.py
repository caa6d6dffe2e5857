"""The serving engine: spec, driver and comparison grid.

One :class:`ServeSpec` describes one cell: the service's traffic parameters
(shared by every cell of a comparison), the resilience configuration
(``store`` × ``recovery``), the execution ``backend`` and the kill plan
shape.  :func:`run_service` executes a cell:

1. **probe** — a failure-free, FT-free run on the ``sim`` backend
   (:func:`repro.experiment.probe`) measures the completion-stream length
   (kill offsets are stream positions, so one probe calibrates every
   backend alike) and the failure-free makespan that anchors the open-loop
   **arrival clock**: request ``r`` arrives at
   ``r.frac × probe_makespan``, an instant that never reacts to checkpoints
   or outages — that independence is what makes queueing delay visible;
2. **serve** — the real run under the declared
   :class:`~repro.api.policy.FaultTolerancePolicy`, with the
   :class:`~repro.ft.inject.FaultInjector` firing the plan (real SIGKILLs on
   ``proc``) and a :class:`~repro.serve.slo.WindowTracker` observing the
   checkpoint/recovery windows;
3. **reduce** — per-request rows (admission → completion latency in virtual
   time, status, window segment) and the segmented SLO report.

The kill plan is a pure function of ``(seed, traffic shape)`` — deliberately
*not* of backend/store/recovery — so :func:`run_slo_comparison` pits the
recovery protocols against the **identical** failure schedule and client
population, which is what makes "localized stalls one shard, rollback spikes
every key, degraded trades errors for flatness" a like-for-like claim.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.policy import FaultTolerancePolicy
from repro.chaos.soak import scaled_cost_model
from repro.errors import ServeError
from repro.experiment import Dispatcher, injected_session, plan_seed, probe, validate_names
from repro.ft.inject import KillEvent, KillKind, KillPlan
from repro.serve.service import STATUS_UNSERVED, KvService
from repro.serve.slo import WindowTracker, build_slo_report
from repro.study.workloads import make_workload

__all__ = ["ServeSpec", "ServeResult", "run_service", "run_slo_comparison"]


@dataclass(frozen=True)
class ServeSpec:
    """Declarative description of one serving cell.

    Traffic and plan parameters are shared across a comparison; only the
    ``backend`` / ``store`` / ``recovery`` axes vary between its cells.
    """

    backend: str = "sim"
    store: str = "memory"
    #: Recovery-protocol registry name: "global", "localized" or "degraded".
    recovery: str = "global"
    #: Delivery mode under failure (registry kind ``"delivery"``).
    delivery: str = "reliable"
    nprocs: int = 8
    procs_per_node: int = 2
    #: Slots per shard (one shard per rank).
    slots: int = 64
    #: Client key space (hashed over the shards).
    key_space: int = 512
    steps: int = 40
    rate_per_step: float = 6.0
    zipf_s: float = 1.1
    read_fraction: float = 0.5
    #: Coordinated-checkpoint interval in steps (numeric: a service must
    #: keep checkpointing, so ``None``/``"auto"`` are not options here).
    interval: int = 10
    #: Virtual-time compression (same lever as the soak engine) so SLO
    #: latencies come out in operator-meaningful milliseconds.
    compression: float = 1000.0
    seed: int = 2026
    #: Kill offset as a fraction of the probe's completion stream.
    kill_frac: float = 0.45
    kill_kind: str = "node_kill"
    kills: int = 1
    #: Degraded-flatness invariant: recovery-window p99 may exceed the
    #: steady-state p99 by at most this factor for the degraded cell.
    flatness: float = 8.0
    watchdog: float | None = None
    service_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_names("serve", ServeError, {
            "backend": self.backend,
            "store": self.store,
            "recovery": self.recovery,
            "delivery": self.delivery,
        })
        if self.kill_kind not in (k.value for k in KillKind):
            choices = ", ".join(repr(k.value) for k in KillKind)
            raise ServeError(
                f"unknown kill kind {self.kill_kind!r}; choose one of: {choices}"
            )
        if not isinstance(self.interval, int) or self.interval < 1:
            raise ServeError("serve checkpoint interval must be a positive step count")
        if self.compression <= 0:
            raise ServeError("time compression must be positive")
        if not 0.0 < self.kill_frac < 1.0:
            raise ServeError("kill_frac must be strictly between 0 and 1")
        if self.kills < 0:
            raise ServeError("kills must be non-negative")
        if self.flatness <= 0:
            raise ServeError("flatness must be positive")
        if self.nprocs < 2 or self.procs_per_node < 1:
            raise ServeError("serving needs nprocs >= 2 and procs_per_node >= 1")
        if self.steps < 1 or self.key_space < 1 or self.slots < 1:
            raise ServeError("serving needs steps, key_space and slots all >= 1")
        if self.rate_per_step <= 0.0:
            raise ServeError("rate_per_step must be positive")
        if self.zipf_s < 0.0:
            raise ServeError("zipf_s must be non-negative")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ServeError("read_fraction must be within [0, 1]")

    @property
    def cell_key(self) -> str:
        return f"{self.backend}/{self.store}/{self.recovery}"

    def service(self) -> KvService:
        """A fresh service instance for this spec (registry-resolved)."""
        service = make_workload(
            KvService.name,
            nprocs=self.nprocs,
            slots=self.slots,
            key_space=self.key_space,
            steps=self.steps,
            rate_per_step=self.rate_per_step,
            zipf_s=self.zipf_s,
            read_fraction=self.read_fraction,
            seed=self.seed,
            **dict(self.service_params),
        )
        assert isinstance(service, KvService)
        return service


@dataclass(frozen=True)
class ServeResult:
    """Everything one serving cell produced, ready for reporting and gating."""

    spec: ServeSpec
    #: Per-request rows (JSONL-serializable dicts; the canonical request log).
    rows: list[dict]
    #: The segmented SLO document (:func:`~repro.serve.slo.build_slo_report`).
    slo: dict
    #: The generated kill plan as ``[after_ops, rank, kind]`` triples.
    plan: list[list]
    #: Injector records, one per planned kill (fired or skipped).
    kills: list[dict]
    #: Window spans the tracker observed.
    checkpoint_windows: list[list]
    recovery_windows: list[list]
    #: Calibration: completion-stream length / makespan of the probe.
    probe_ops: int
    probe_elapsed_s: float
    #: Session counters at the end of the run.
    checkpoints: int
    recoveries: int
    excised_ranks: int
    steps_executed: int
    elapsed_s: float
    #: Bit-exact digest of the final table (None if aborted).
    digest: str | None
    #: Exception class name if the run ended early, else None.
    aborted: str | None

    def as_dict(self) -> dict:
        """JSON-ready form (byte-identical across re-runs: no wall clock)."""
        return {
            "spec": {
                "backend": self.spec.backend,
                "store": self.spec.store,
                "recovery": self.spec.recovery,
                "nprocs": self.spec.nprocs,
                "procs_per_node": self.spec.procs_per_node,
                "slots": self.spec.slots,
                "key_space": self.spec.key_space,
                "steps": self.spec.steps,
                "rate_per_step": self.spec.rate_per_step,
                "zipf_s": self.spec.zipf_s,
                "read_fraction": self.spec.read_fraction,
                "interval": self.spec.interval,
                "compression": self.spec.compression,
                "seed": self.spec.seed,
                "kill_frac": self.spec.kill_frac,
                "kill_kind": self.spec.kill_kind,
                "kills": self.spec.kills,
                "flatness": self.spec.flatness,
            },
            "plan": self.plan,
            "kills": self.kills,
            "checkpoint_windows": self.checkpoint_windows,
            "recovery_windows": self.recovery_windows,
            "probe_ops": self.probe_ops,
            "probe_elapsed_s": self.probe_elapsed_s,
            "slo": self.slo,
            "checkpoints": self.checkpoints,
            "recoveries": self.recoveries,
            "excised_ranks": self.excised_ranks,
            "steps_executed": self.steps_executed,
            "elapsed_s": self.elapsed_s,
            "digest": self.digest,
            "aborted": self.aborted,
            "requests": self.rows,
        }


# ----------------------------------------------------------------------
# Plan generation
# ----------------------------------------------------------------------
def build_plan(spec: ServeSpec, *, ops_total: int) -> KillPlan:
    """The spec's kill plan (pure function of spec + calibrated stream length).

    Plan entropy is the seed plus a stable domain tag: backend, store and
    recovery are left out so every cell of a comparison faces the identical
    failure schedule.
    """
    if spec.kills == 0:
        return KillPlan([])
    rng = np.random.default_rng(plan_seed(spec.seed, "serve.plan"))
    if spec.kills == 1:
        fracs = [spec.kill_frac]
    else:
        fracs = sorted(rng.uniform(0.2, 0.8, size=spec.kills).tolist())
    victims = rng.integers(0, spec.nprocs, size=spec.kills)
    kind = KillKind(spec.kill_kind)
    return KillPlan(
        [
            KillEvent(
                after_ops=max(1, int(frac * ops_total)), rank=int(victim), kind=kind
            )
            for frac, victim in zip(fracs, victims)
        ]
    )


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run_service(spec: ServeSpec) -> ServeResult:
    """Run one serving cell to completion and reduce it to its SLO report."""
    service = spec.service()
    cost = scaled_cost_model(compression=spec.compression)
    # The client's failure-free timeline: the arrival clock must not include
    # checkpoint overhead, or arrivals would slow down with the protocol
    # under test and the comparison would stop being open-loop.
    probe_ops, probe_elapsed, _ = probe(
        service, label=f"{spec.cell_key}/probe",
        procs_per_node=spec.procs_per_node, cost_model=cost,
    )
    plan = build_plan(spec, ops_total=probe_ops)

    tracker = WindowTracker()
    with injected_session(
        service, plan,
        label=spec.cell_key,
        policy=FaultTolerancePolicy(
            interval=spec.interval, store=spec.store, recovery=spec.recovery,
            delivery=spec.delivery,
        ),
        observer=tracker,
        backend=spec.backend,
        procs_per_node=spec.procs_per_node,
        cost_model=cost,
        steps=service.steps,
        watchdog=spec.watchdog,
    ) as session:
        tracker.finish(session.job.cluster.elapsed())
    tracer, report = session.tracer, session.report

    rows = _assemble_rows(service, probe_elapsed, tracker)
    # Request lifecycles join the trace once the rows are reduced: arrival
    # and completion are virtual instants, so the events are deterministic.
    for row in rows:
        completion = row["completion_t"]
        tracer.emit(
            "request_completed",
            completion if completion is not None else row["arrival_t"],
            **{key: row[key] for key in (
                "rid", "frontend", "owner", "step", "op", "key",
                "arrival_t", "completion_t", "latency_s", "status", "segment",
            )},
        )
    slo = build_slo_report(rows, tracker, total_s=report.elapsed)
    return ServeResult(
        spec=spec,
        rows=rows,
        slo=slo,
        plan=[[e.after_ops, e.rank, e.kind.value] for e in plan],
        kills=tracker.kills,
        checkpoint_windows=[list(w) for w in tracker.checkpoint_windows],
        recovery_windows=[list(w) for w in tracker.recovery_windows],
        probe_ops=probe_ops,
        probe_elapsed_s=probe_elapsed,
        checkpoints=int(report.checkpoints),
        recoveries=int(report.recoveries),
        excised_ranks=int(report.excised_ranks),
        steps_executed=int(report.steps_executed),
        elapsed_s=report.elapsed,
        digest=session.digest,
        aborted=session.aborted,
    )


def _assemble_rows(
    service: KvService, probe_elapsed: float, tracker: WindowTracker
) -> list[dict]:
    """Join the trace with the service's completion records, in rid order.

    The arrival clock is the probe's failure-free timeline; latency is
    clamped at zero because a request *admitted* early in a step can
    complete before its nominal within-step arrival instant — the client
    cannot experience negative waiting.  A request with no record was never
    served (its frontend was excised first): it has no completion or
    latency, is an error, and is segmented by its arrival instant.
    """
    rows = []
    for request in service.requests:
        arrival = request.frac * probe_elapsed
        record = service.records.get(request.rid)
        if record is None:
            completion, latency, status = None, None, STATUS_UNSERVED
            segment = tracker.segment_of(arrival)
        else:
            completion, status = record
            latency = max(completion - arrival, 0.0)
            segment = tracker.segment_of(completion)
        rows.append(
            {
                "rid": request.rid,
                "frontend": request.frontend,
                "owner": service.shards.owner(request.key),
                "step": request.step,
                "op": request.op,
                "key": request.key,
                "arrival_t": arrival,
                "completion_t": completion,
                "latency_s": latency,
                "status": status,
                "segment": segment,
            }
        )
    return rows


# ----------------------------------------------------------------------
# The comparison grid
# ----------------------------------------------------------------------
def run_slo_comparison(
    base: ServeSpec,
    *,
    recoveries: Sequence[str] = ("global", "localized", "degraded"),
    backends: Sequence[str] | None = None,
    stores: Sequence[str] | None = None,
    executor: str = "serial",
    max_workers: int | None = None,
) -> list[ServeResult]:
    """The resilience grid: identical seed, traffic and kill plan per cell.

    Cells are independent sessions, so ``executor="thread"`` parallelizes
    them while the assembled result list (and hence the report) stays
    byte-identical to a serial run.
    """
    backends = tuple(backends) if backends is not None else (base.backend,)
    stores = tuple(stores) if stores is not None else (base.store,)
    recoveries = tuple(recoveries)
    if not recoveries or not backends or not stores:
        raise ServeError("comparison axes must be non-empty")
    specs = [
        replace(base, backend=b, store=s, recovery=r)
        for b in backends
        for s in stores
        for r in recoveries
    ]
    with Dispatcher(
        executor, max_workers, choices=("serial", "thread"), error=ServeError
    ) as pool:
        return pool.map(run_service, specs)
