"""repro.qos — delivery modes and the quality/robustness/speed trade-off.

The subsystem has two halves:

* :mod:`repro.qos.delivery` — the :class:`DeliveryMode` strategy (registry
  kind ``"delivery"``): ``"reliable"`` keeps today's fail-stop semantics,
  ``"best_effort"`` suspends failed ranks instead — operations toward them
  deterministically drop or serve stale checkpoint data, counted per rank in
  :class:`QosMetrics`, while survivors keep running at full speed.
* :mod:`repro.qos.engine` / :mod:`repro.qos.report` — the comparison harness
  behind ``python -m repro.qos``: it sweeps delivery × store-hierarchy cells
  against identical kill plans and quantifies each cell as (result quality,
  tolerated operations, makespan).

Select a mode declaratively::

    repro.launch(nprocs=8, ft=repro.FaultTolerancePolicy(delivery="best_effort"))
"""

from repro.qos.delivery import (
    DELIVERY_MODES,
    BestEffort,
    DeliveryMode,
    QosMetrics,
    Reliable,
    make_delivery,
)

# The engine half imports the session/workload layers, which themselves load
# the delivery half above — so it resolves lazily (PEP 562) to keep
# ``repro.ft.stack → repro.qos`` cycle-free.
_ENGINE_EXPORTS = {
    "QosSpec": "repro.qos.engine",
    "quick_spec": "repro.qos.engine",
    "run_qos": "repro.qos.engine",
    "check_invariants": "repro.qos.engine",
    "render_markdown": "repro.qos.report",
}


def __getattr__(name: str):
    module_name = _ENGINE_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.qos' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "QosMetrics",
    "DeliveryMode",
    "Reliable",
    "BestEffort",
    "DELIVERY_MODES",
    "make_delivery",
    "QosSpec",
    "quick_spec",
    "run_qos",
    "check_invariants",
    "render_markdown",
]
