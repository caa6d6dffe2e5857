"""Pluggable RMA backends: window storage + operation execution strategies.

A backend decides *where window memory lives* and *how queued operations are
applied*; the runtime above it only coordinates epochs, counters,
interceptors and virtual-time costs.  Every backend shares one deferred
per-origin op queue (:class:`Backend`) and overrides only its apply hook plus
storage and lifecycle.  Two backends ship:

* :class:`SimBackend` (``"sim"``, the default) — applies each completing
  batch in process, coalescing contiguous puts into single numpy writes;
  ``"vector"`` is a registry alias of the same class;
* :class:`ProcBackend` (``"proc"``, POSIX platforms) — each rank is a real OS
  process applying its queued operations to windows in shared memory; real
  ``SIGKILL`` deaths surface through the same fail-stop path as simulated
  failures (registered only where :func:`proc_available` holds).

Select one with ``repro.launch(..., backend="proc")`` or
``RmaRuntime(cluster, backend=...)``; both accept a name or a ready
:class:`Backend` instance, resolved by :func:`make_backend`.
"""

from __future__ import annotations

from repro.backends.base import Backend, apply_action
from repro.backends.proc import ProcBackend, SharedWindow, proc_available
from repro.backends.sim import SimBackend
from repro.errors import BackendError
from repro.registry import register_kind, resolve_component

__all__ = [
    "Backend",
    "SimBackend",
    "ProcBackend",
    "SharedWindow",
    "proc_available",
    "BACKENDS",
    "make_backend",
    "apply_action",
]

#: Registry of constructable backends, by name.  ``"vector"`` names the
#: in-process backend too, for callers that still select it by that name.
BACKENDS: dict[str, type[Backend]] = {
    SimBackend.name: SimBackend,
    "vector": SimBackend,
}
if proc_available():  # an unsupported platform gets a clean unknown-name error
    BACKENDS[ProcBackend.name] = ProcBackend
register_kind("backend", BACKENDS)


def make_backend(spec: "str | Backend | None") -> Backend:
    """Resolve a backend specification into a fresh (or given) instance.

    ``None`` means the default (``"sim"``); a string is looked up in
    :data:`BACKENDS`; a :class:`Backend` instance is passed through so tests
    and instrumented runs can inject custom implementations.
    """
    return resolve_component(
        "backend", spec, BACKENDS, Backend, BackendError, default=SimBackend.name
    )
