"""repro.trace — deterministic end-to-end tracing over one event bus.

The observability layer of the reproduction: every seam the stack
already exposes (RMA interceptors, session observers, injector
listeners, store placement hooks, delivery-mode decisions, serve
request lifecycles) feeds a single :class:`Tracer` whose events are
stamped in virtual time — byte-identical across the sim and proc
backends and across serial/thread executors, with host-specific
facts segregated under ``rt``.  On top of the bus sit canonical JSONL
persistence, span rollups (:func:`summarize`), first-divergence
localization (:func:`first_divergence`), a Chrome-trace export and the
unified :class:`Telemetry` facade behind ``Job.telemetry()``.

CLI: ``python -m repro.trace summarize|diff|export``.
"""

from repro.trace.diff import Divergence, first_divergence, render_divergence
from repro.trace.events import (
    TRACE_EVENT_TYPES,
    TraceWriter,
    canonical_event,
    event_line,
    event_lines,
    load_trace,
    validate_event,
    write_trace,
)
from repro.trace.export import to_chrome_trace
from repro.trace.summary import render_summary, summarize
from repro.trace.telemetry import Telemetry
from repro.trace.tracer import (
    TraceHub,
    Tracer,
    current_trace_hub,
    install_trace,
    trace_label,
    tracing,
)

__all__ = [
    "Divergence",
    "TRACE_EVENT_TYPES",
    "Telemetry",
    "TraceHub",
    "TraceWriter",
    "Tracer",
    "canonical_event",
    "current_trace_hub",
    "event_line",
    "event_lines",
    "first_divergence",
    "install_trace",
    "load_trace",
    "render_divergence",
    "render_summary",
    "summarize",
    "to_chrome_trace",
    "trace_label",
    "tracing",
    "validate_event",
    "write_trace",
]
