"""Per-layer spans timed from outside the library.

A :class:`SpanRecorder` wraps the public methods of one job's layer
*instances* (scheduler, runtime, backend, interceptors, checkpointer, store,
recovery manager) with timing shims set as instance attributes.  The
library's classes and source are never touched, so an untraced job — or any
other job in the same process — runs the unmodified code, and
:meth:`SpanRecorder.uninstall` deletes every shim again.

Every span records its name, start, end, parent span and job id.  A layer's
*self* time is its span's duration minus the durations of its direct child
spans; a call that re-enters the same layer (``RmaRuntime.put`` calling
``put_nb``) folds into the outer span instead of opening a nested one, so
``calls`` counts entries into a layer, not internal hops.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

#: Root span: everything ``Job.run`` does.  Its self time is the job wall
#: no layer span covers (``trace.unattributed_share``).
ROOT = "job.run"

#: ``RmaRuntime`` communication calls (issue side; blocking ones also complete).
COMM_METHODS = (
    "put_nb", "get_nb", "accumulate_nb", "put", "get", "accumulate",
    "get_accumulate", "fetch_and_op", "compare_and_swap",
)
#: ``RmaRuntime`` synchronization calls.
SYNC_METHODS = ("lock", "unlock", "flush", "flush_all", "gsync", "barrier")
#: Backend entry points; ``complete*`` return the handles they finished.
BACKEND_METHODS = ("issue", "complete", "complete_rank")

#: Layers whose self time is fault-tolerance cost (``ft.overhead_ms_per_step``).
FT_LAYERS = ("ft.log", "ft.checkpoint", "ft.store", "ft.recovery")


@dataclass
class Span:
    """One timed call into a layer (times in clock nanoseconds)."""

    name: str
    start: int
    parent: int
    job: int
    end: int = 0
    #: Summed duration of the direct child spans.
    child_ns: int = 0
    #: Length of the returned list for batch-returning calls, else ``None``.
    items: int | None = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns

    def as_dict(self) -> dict:
        return {
            "name": self.name, "start_ns": self.start, "end_ns": self.end,
            "parent": self.parent, "job": self.job,
        }


@dataclass
class LayerTotals:
    """Per-job rollup of one layer's spans."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    #: Items returned by non-empty batch calls, and how many such calls.
    items: int = 0
    batches: int = 0


class SpanRecorder:
    """Records spans of the layer instances it was installed on."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str]] = []

    def wrap(self, obj: object, method: str, name: str, job: int = 0, *,
             count_items: bool = False) -> None:
        """Time ``obj.method`` as layer ``name`` by shadowing it on the instance."""
        original = getattr(obj, method)
        spans, stack, clock = self.spans, self._open, self.clock

        def timed(*args, **kwargs):
            if stack and spans[stack[-1]].name == name:
                return original(*args, **kwargs)
            span = Span(name, clock(), stack[-1] if stack else -1, job)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
                if count_items:
                    span.items = len(result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_ns += span.duration_ns

        setattr(obj, method, timed)
        self._installed.append((obj, method))

    def install(self, job, job_id: int) -> None:
        """Wrap every layer of a launched (set-up) ``repro`` job."""
        # Imported here: only installing on a real job needs the library.
        from repro.ft import ActionLog, FaultInjector

        self.wrap(job, "run", ROOT, job_id)
        self.wrap(job.scheduler, "run_step", "api.step", job_id)
        runtime = job.runtime
        for method in COMM_METHODS:
            self.wrap(runtime, method, "rma.comm", job_id)
        for method in SYNC_METHODS:
            self.wrap(runtime, method, "rma.sync", job_id)
        for method in BACKEND_METHODS:
            self.wrap(runtime.backend, method, "backends", job_id,
                      count_items=method != "issue")
        for interceptor in runtime.interceptors:
            if isinstance(interceptor, ActionLog):
                self.wrap(interceptor, "after_comm", "ft.log", job_id)
            elif isinstance(interceptor, FaultInjector):
                self.wrap(interceptor, "after_comm", "inject", job_id)
        if job.ft is not None:
            self.wrap(job.ft.checkpointer, "checkpoint", "ft.checkpoint", job_id)
            self.wrap(job.ft.store, "prepare", "ft.store", job_id)
            self.wrap(job.ft.store, "commit", "ft.store", job_id)
            self.wrap(job.ft.recovery, "recover", "ft.recovery", job_id)

    def uninstall(self) -> None:
        """Delete every shim, exposing the classes' own methods again."""
        for obj, method in reversed(self._installed):
            delattr(obj, method)
        self._installed.clear()

    def rollup(self) -> dict[str, LayerTotals]:
        """Calls, inclusive and self time, and batch sizes per layer."""
        totals: dict[str, LayerTotals] = {}
        for span in self.spans:
            layer = totals.setdefault(span.name, LayerTotals())
            layer.calls += 1
            layer.total_ns += span.duration_ns
            layer.self_ns += span.self_ns
            if span.items:
                layer.items += span.items
                layer.batches += 1
        return totals
