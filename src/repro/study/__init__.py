"""The resilience-study engine — the paper's evaluation methodology (§5–§7).

This package turns the mechanism stack below it (backends × stores ×
protocols under the :mod:`repro.api` session) into an *experiment engine*:

* :mod:`~repro.study.workloads` — the registry-resolved workload catalog
  (``"stencil"``, ``"allreduce"``, ``"kv"``) with parameterizable sizes and
  bit-exact result digests;
* :mod:`~repro.study.model` — the analytic Young/Daly interval and overhead
  model driven by per-level exponential failure rates and the simulator's
  cost model; what ``FaultTolerancePolicy(interval="auto")`` resolves
  through;
* :mod:`~repro.study.campaign` — the seeded Monte-Carlo campaign runner
  sweeping ``{workload × backend × store × recovery × failure rate ×
  interval}`` over independently-seeded stochastic fault loads, concurrent
  via :class:`repro.experiment.Dispatcher` yet byte-identical in its JSON
  report.

Run one from the command line::

    python -m repro.study --trials 4 --output report.json --markdown report.md
"""

from repro.study.campaign import (
    CampaignSpec,
    check_invariants,
    quick_spec,
    render_markdown,
    run_campaign,
)
from repro.study.model import (
    IntervalModel,
    checkpoint_seconds,
    optimal_interval_seconds,
    overhead_curve,
    predicted_overhead,
    restart_seconds,
    system_failure_rate,
)
from repro.study.workloads import (
    WORKLOADS,
    HeatStencil,
    KvUpdate,
    RingAllreduce,
    Workload,
    WorkloadRun,
    make_workload,
)

__all__ = [
    "CampaignSpec",
    "run_campaign",
    "render_markdown",
    "check_invariants",
    "quick_spec",
    "IntervalModel",
    "checkpoint_seconds",
    "restart_seconds",
    "system_failure_rate",
    "optimal_interval_seconds",
    "predicted_overhead",
    "overhead_curve",
    "Workload",
    "WorkloadRun",
    "HeatStencil",
    "RingAllreduce",
    "KvUpdate",
    "WORKLOADS",
    "make_workload",
]
