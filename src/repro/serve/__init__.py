"""``repro.serve`` — sharded resilient KV service with open-loop traffic SLOs.

The chaos engine (:mod:`repro.chaos`) prices failures in *infrastructure*
units — MTTR and availability.  This package prices them the way a service
owner does: **request latency against an SLO**.  It promotes the GUPS-style
``kv`` workload into a sharded key-value *service* under seeded open-loop
traffic and asks what each recovery protocol does to the tail.  The layers:

* :mod:`repro.serve.shard` — :class:`ShardMap`, multiplicative hashing of
  client keys over rank-owned regions of the shared ``"kv"`` window (hot
  Zipf keys scatter across all shards instead of melting one rank);
* :mod:`repro.serve.traffic` — :class:`RequestGenerator`, the seeded
  open-loop source: Poisson-many arrivals as sorted uniforms, Zipf key skew,
  a Bernoulli read/write mix, every request pre-assigned to the
  ``(frontend rank, step)`` that admits it so the serving kernel stays a
  pure function of ``(step, rank)`` — the localized-replay purity contract;
* :mod:`repro.serve.service` — :class:`KvService`, the ``"kv_service"``
  study workload: lock-protected atomic writes, one-sided reads, and
  per-request completion/status records that stay truthful under rollback
  re-execution, replay suppression and degraded excision;
* :mod:`repro.serve.slo` — :class:`WindowTracker` (checkpoint/recovery
  window observer) and the segmented SLO reducer: p50/p95/p99, throughput
  and error rate for steady-state vs during-checkpoint vs during-recovery;
* :mod:`repro.serve.engine` — :class:`ServeSpec` and the drivers: the
  failure-free probe that anchors the arrival clock, the seeded kill plan
  shared by every cell, :func:`run_service` and :func:`run_slo_comparison`;
* :mod:`repro.serve.report` — the report document, markdown, the canonical
  JSONL request log, the comparison invariants (localized recovery-window
  p99 strictly below global's; degraded errs but stays flat) and the
  baseline gate's field lists behind ``python -m repro.serve``; dispatch,
  the probe, the plan seed, the injected session and the gate itself are
  the shared :mod:`repro.experiment` core.

Everything is virtual-time deterministic: a seeded comparison produces
byte-identical request logs and SLO reports across re-runs, executors and
the ``sim``/``proc`` backends.
"""

from repro.serve.engine import (
    ServeResult,
    ServeSpec,
    run_service,
    run_slo_comparison,
)
from repro.serve.report import (
    check_serve_invariants,
    load_requests,
    render_markdown,
    report_document,
    write_requests,
)
from repro.serve.service import (
    STATUS_DROPPED_WRITE,
    STATUS_OK,
    STATUS_STALE_READ,
    STATUS_UNSERVED,
    STATUSES,
    KvService,
)
from repro.serve.shard import ShardMap
from repro.serve.slo import SEGMENTS, WindowTracker, build_slo_report
from repro.serve.traffic import Request, RequestGenerator, trace_lines

__all__ = [
    "KvService",
    "Request",
    "RequestGenerator",
    "SEGMENTS",
    "STATUSES",
    "STATUS_DROPPED_WRITE",
    "STATUS_OK",
    "STATUS_STALE_READ",
    "STATUS_UNSERVED",
    "ServeResult",
    "ServeSpec",
    "ShardMap",
    "WindowTracker",
    "build_slo_report",
    "check_serve_invariants",
    "load_requests",
    "render_markdown",
    "report_document",
    "run_service",
    "run_slo_comparison",
    "trace_lines",
    "write_requests",
]
