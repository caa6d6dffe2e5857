"""Reproduction of the ftRMA paper: fault-tolerant RMA programming.

The package is layered bottom-up:

* :mod:`repro.simulator` — the virtual-time cluster (clocks, cost model,
  failure-domain hierarchy, placement, fail-stop injection);
* :mod:`repro.rma` — the paper's formal RMA model (actions, epochs, counters,
  orders, nonblocking operation handles) and the
  :class:`~repro.rma.runtime.RmaRuntime` coordination layer;
* :mod:`repro.backends` — pluggable execution backends owning window storage
  (in-process ``"sim"``, real-process shared-memory ``"proc"``);
* :mod:`repro.ft` — the fault-tolerance protocols built on the runtime
  (topology-aware in-memory checkpointing and recovery);
* :mod:`repro.api` — the rank-centric session API: :func:`launch` a job,
  write kernels against per-rank :class:`~repro.api.context.RankContext`
  objects, and let the session checkpoint and recover transparently;
* :mod:`repro.study` — the resilience-study engine on top of everything:
  a registry-resolved workload catalog, the analytic Young/Daly interval
  model behind ``FaultTolerancePolicy(interval="auto")``, and the seeded
  Monte-Carlo campaign runner (``python -m repro.study``);
* :mod:`repro.chaos` — the long-horizon soak engine: accelerated virtual
  time (``scaled_cost_model``), seeded failure scenarios, transition
  monitors, MTTF/MTBF/MTTR/availability metrics and the cross-config
  comparison CLI (``python -m repro.chaos``).

Applications should program against :mod:`repro.api` (re-exported here);
the lower layers remain public for protocol work and instrumentation.
"""

from repro.api import (
    Collective,
    FaultTolerancePolicy,
    Job,
    JobReport,
    RankContext,
    SessionObserver,
    Topology,
    WindowHandle,
    launch,
)
from repro.backends import (
    Backend,
    ProcBackend,
    SimBackend,
    make_backend,
    proc_available,
)
from repro.chaos import (
    ChaosMetrics,
    SoakResult,
    SoakSpec,
    compute_metrics,
    run_comparison,
    run_soak,
    scaled_cost_model,
)
from repro.errors import ReproError
from repro.ft import (
    CheckpointStore,
    ContinueDegraded,
    DiskStore,
    FaultInjector,
    GlobalRollback,
    KillKind,
    KillPlan,
    LocalizedReplay,
    MemoryStore,
    ParityStore,
    RecoveryProtocol,
    install_injector,
)
from repro.registry import available
from repro.rma.handles import OpHandle
from repro.study import (
    CampaignSpec,
    IntervalModel,
    Workload,
    WorkloadRun,
    make_workload,
    run_campaign,
)

__all__ = [
    "available",
    "CampaignSpec",
    "IntervalModel",
    "Workload",
    "WorkloadRun",
    "make_workload",
    "run_campaign",
    "ChaosMetrics",
    "SoakSpec",
    "SoakResult",
    "compute_metrics",
    "run_soak",
    "run_comparison",
    "scaled_cost_model",
    "SessionObserver",
    "Collective",
    "FaultTolerancePolicy",
    "Job",
    "JobReport",
    "RankContext",
    "Topology",
    "WindowHandle",
    "launch",
    "OpHandle",
    "Backend",
    "SimBackend",
    "ProcBackend",
    "proc_available",
    "make_backend",
    "KillKind",
    "KillPlan",
    "FaultInjector",
    "install_injector",
    "CheckpointStore",
    "MemoryStore",
    "DiskStore",
    "ParityStore",
    "RecoveryProtocol",
    "GlobalRollback",
    "LocalizedReplay",
    "ContinueDegraded",
    "ReproError",
    "__version__",
]

__version__ = "0.10.0"
