"""``repro.chaos`` — long-horizon soak engine with accelerated virtual time.

The study engine (:mod:`repro.study`) measures checkpoint *overhead* per
finite run; this package measures *availability* under open-ended load — the
paper's resilience claims restated in the language of site reliability:
MTTF/MTBF/MTTR and the fraction of virtual time the job is serving, degraded
or recovering.  The layers:

* :mod:`repro.chaos.scenarios` — seeded failure-scenario generators that
  generalize :class:`~repro.ft.inject.KillPlan` (independent Poisson kills,
  correlated node failures, cascading multi-rank failures, a flaky-then-dead
  rank), registry-resolved like backends/stores/recovery;
* :mod:`repro.chaos.monitor` — chaos monitors: a
  :class:`~repro.api.session.SessionObserver` plus an injector listener that
  timestamps every ``failure_initiated`` / ``failure_detected`` /
  ``recovery_started`` / ``recovery_completed`` / ``service_restored``
  transition in virtual time and streams them as JSONL;
* :mod:`repro.chaos.soak` — the soak driver: one long session under a
  compressed :class:`~repro.simulator.costs.CostModel` (time fields scaled by
  e.g. 10,000x), a scenario-generated kill plan, and the countermeasure seam
  mapping onto the existing :class:`~repro.ft.protocols.RecoveryProtocol`
  strategies;
* :mod:`repro.chaos.metrics` — the reliability arithmetic: MTTF, MTBF, MTTR,
  availability and state fractions computed from the event log (the log
  round-trips through JSONL losslessly);
* :mod:`repro.chaos.report` — the report document, markdown tables, the
  cross-config comparison invariants and the baseline gate's field lists
  behind the ``python -m repro.chaos`` CLI (:mod:`repro.chaos.__main__`);
  dispatch, the probe, the plan seed, the injected session and the gate
  itself are the shared :mod:`repro.experiment` core.

Everything is virtual-time deterministic: a seeded soak produces a
byte-identical event log across re-runs *and* across the ``sim`` and ``proc``
backends, because timestamps come from the cluster's virtual clocks and kill
offsets count the backend-portable completion stream.
"""

from repro.chaos.metrics import ChaosMetrics, compute_metrics, load_events, write_events
from repro.chaos.monitor import ChaosMonitor, EpisodeMonitor, TransitionMonitor, make_monitor
from repro.chaos.report import (
    check_chaos_invariants,
    render_markdown,
    report_document,
)
from repro.chaos.scenarios import (
    CascadingFailures,
    CorrelatedFailures,
    FlakyRank,
    PoissonKills,
    Scenario,
    make_scenario,
)
from repro.chaos.soak import (
    Countermeasure,
    SoakResult,
    SoakSpec,
    make_countermeasure,
    run_comparison,
    run_soak,
    scaled_cost_model,
)

__all__ = [
    "ChaosMetrics",
    "ChaosMonitor",
    "Countermeasure",
    "EpisodeMonitor",
    "TransitionMonitor",
    "Scenario",
    "PoissonKills",
    "CorrelatedFailures",
    "CascadingFailures",
    "FlakyRank",
    "SoakResult",
    "SoakSpec",
    "check_chaos_invariants",
    "compute_metrics",
    "load_events",
    "make_countermeasure",
    "make_monitor",
    "make_scenario",
    "render_markdown",
    "report_document",
    "run_comparison",
    "run_soak",
    "scaled_cost_model",
    "write_events",
]
