"""Tests of the benchmark's span recorder.

Run from the root of a checkout: ``python3 -m pytest layerbench``.
"""

import pytest

import repro
from repro.ft import ActionLog
from repro.study import HeatStencil
from spans import BACKEND_METHODS, COMM_METHODS, ROOT, SYNC_METHODS, SpanRecorder


class Clock:
    """A clock the test advances by hand (nanoseconds)."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class Layer:
    """Spends ``before`` ns, calls ``inner`` (if any), then spends ``after`` ns."""

    def __init__(self, clock, before, after, inner=None):
        self.clock, self.before, self.after, self.inner = clock, before, after, inner

    def call(self):
        self.clock.now += self.before
        if self.inner is not None:
            self.inner.call()
        self.clock.now += self.after
        return []

    def again(self):
        return self.call()


def test_self_time_is_duration_minus_children():
    clock = Clock()
    leaf = Layer(clock, 7, 0)
    middle = Layer(clock, 10, 5, inner=leaf)
    top = Layer(clock, 3, 2, inner=middle)
    recorder = SpanRecorder(clock)
    recorder.wrap(top, "call", "top", job=4)
    recorder.wrap(middle, "call", "middle", job=4)
    recorder.wrap(leaf, "call", "leaf", job=4)
    top.call()
    spans = {span.name: span for span in recorder.spans}
    assert spans["top"].duration_ns == 27
    assert spans["middle"].duration_ns == 22
    assert spans["leaf"].duration_ns == 7
    assert spans["top"].self_ns == 27 - 22
    assert spans["middle"].self_ns == 22 - 7
    assert spans["leaf"].self_ns == 7
    assert spans["leaf"].parent == recorder.spans.index(spans["middle"])
    assert spans["top"].parent == -1
    assert {span.job for span in recorder.spans} == {4}
    totals = recorder.rollup()
    assert totals["middle"].total_ns == 22 and totals["middle"].self_ns == 15


def test_reentrant_call_folds_into_the_outer_span():
    clock = Clock()
    layer = Layer(clock, 4, 1)
    recorder = SpanRecorder(clock)
    recorder.wrap(layer, "call", "rma.comm")
    recorder.wrap(layer, "again", "rma.comm")
    layer.again()
    assert len(recorder.spans) == 1
    assert recorder.spans[0].self_ns == 5


def test_span_closes_when_the_call_raises():
    clock = Clock()

    class Failing:
        def call(self):
            clock.now += 3
            raise RuntimeError("boom")

    layer = Failing()
    recorder = SpanRecorder(clock)
    recorder.wrap(layer, "call", "x")
    with pytest.raises(RuntimeError):
        layer.call()
    assert recorder.spans[0].duration_ns == 3
    assert recorder._open == []


def test_ops_per_batch_counts_handles_returned_by_complete():
    clock = Clock()

    class Backend:
        def __init__(self):
            self.batches = [[1, 2, 3], [], [4, 5]]

        def complete(self, src, trg):
            return self.batches.pop(0)

    backend = Backend()
    recorder = SpanRecorder(clock)
    recorder.wrap(backend, "complete", "backends", count_items=True)
    for _ in range(3):
        backend.complete(0, 1)
    totals = recorder.rollup()["backends"]
    assert totals.calls == 3
    assert (totals.items, totals.batches) == (5, 2)


def _layer_objects(job):
    objects = [(job, ("run",)), (job.scheduler, ("run_step",)),
               (job.runtime, COMM_METHODS + SYNC_METHODS),
               (job.runtime.backend, BACKEND_METHODS),
               (job.ft.checkpointer, ("checkpoint",)),
               (job.ft.store, ("prepare", "commit")), (job.ft.recovery, ("recover",))]
    objects += [(i, ("after_comm",)) for i in job.runtime.interceptors
                if isinstance(i, ActionLog)]
    return objects


def _run_stencil(recorder=None):
    workload = HeatStencil(nprocs=4, n_local=8, iters=6)
    with repro.launch(4, ft=repro.FaultTolerancePolicy(interval=2),
                      sync_each_step=workload.sync_each_step, backend="vector") as job:
        workload.setup(job)
        if recorder is not None:
            recorder.install(job, 1)
        shadowed_while_traced = [
            name for obj, names in _layer_objects(job) for name in names
            if name in vars(obj)
        ]
        job.run(workload.kernel(), steps=workload.steps)
        if recorder is not None:
            recorder.uninstall()
        left_over = [name for obj, names in _layer_objects(job) for name in names
                     if name in vars(obj)]
        return workload.digest(workload.collect(job)), shadowed_while_traced, left_over


def test_wrappers_live_on_instances_only():
    with repro.launch(4, ft=repro.FaultTolerancePolicy()) as job:
        classes = {(type(obj), name): getattr(type(obj), name)
                   for obj, names in _layer_objects(job) for name in names}
    recorder = SpanRecorder()
    traced_digest, shadowed, left_over = _run_stencil(recorder)
    assert shadowed and not left_over
    names = {span.name for span in recorder.spans}
    assert {ROOT, "api.step", "rma.comm", "rma.sync", "backends", "ft.log",
            "ft.checkpoint", "ft.store"} <= names
    # An untraced job afterwards runs the library's own methods, unshadowed.
    digest, shadowed, _ = _run_stencil()
    assert not shadowed
    assert digest == traced_digest
    assert all(getattr(cls, name) is method for (cls, name), method in classes.items())
