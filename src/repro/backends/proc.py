"""The real-process backend — ranks are OS processes, windows live in shm.

The in-process backend executes RMA operations inside the coordinating
Python process; a simulated failure is just an exception.  :class:`ProcBackend`
makes the paper's fail-stop model *physical*:

* window storage is allocated in POSIX shared memory
  (:class:`multiprocessing.shared_memory.SharedMemory`): one segment per
  window holding ``nprocs`` contiguous per-rank slabs, mapped by the
  supervisor and by every worker;
* each rank gets a **worker**: a forked OS process that owns the rank's
  execution vehicle.  Queued operations of origin ``src`` are shipped to
  ``src``'s worker at completion time (pickled
  :class:`~repro.rma.actions.CommAction` batches over a pipe) and applied
  there with the *same* :func:`~repro.backends.base.apply_action` the
  in-process backend uses, so per-op semantics cannot drift;
* the supervisor keeps the control plane — scheduler, runtime, counters,
  interceptors, checkpoint stores — in its own heap.  Checkpoint copies
  therefore survive any worker's death by construction, which is exactly the
  paper's requirement that recovery data outlive the failed process.

Death detection is *physical* too: a worker killed with ``SIGKILL`` (see
:mod:`repro.ft.inject`) is noticed through its process sentinel — either
synchronously, when a batch dispatch finds the pipe dead, or via
:meth:`ProcBackend.poll_failures`, which the runtime folds into
:meth:`~repro.rma.runtime.RmaRuntime.observe_failures`.  Both routes converge
on the same fail-stop surfacing (:class:`~repro.errors.ProcessFailedError`,
window invalidation, interceptor notification) that simulated failures use,
so the fault-tolerance protocols cannot tell a real kill from an injected
exception — which is what makes the sim backend a valid oracle for killed
runs (the differential harness in ``tests/test_differential.py``).

A batch interrupted mid-apply by a kill leaves partial writes in shared
memory; the supervisor snapshots every target range before dispatching and
rolls the partial effects back, so a killed completion is effect-free —
matching the queue-discard semantics recovery relies on.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from multiprocessing import connection, shared_memory

import numpy as np

from repro.backends.base import Backend, apply_action
from repro.errors import BackendError, ProcessFailedError, WatchdogError, WindowError
from repro.rma.handles import OpHandle
from repro.rma.window import Window

__all__ = ["ProcBackend", "SharedWindow", "proc_available"]

#: Segments whose close() hit a live exported view (e.g. an in-flight
#: exception's traceback frames holding window views while the session tears
#: down).  Parking them here keeps their __del__ from retrying — and warning —
#: at some arbitrary GC point; they are re-tried once the views are gone.
_deferred_closes: list[shared_memory.SharedMemory] = []


def _drain_deferred_closes() -> None:
    for seg in _deferred_closes[:]:
        try:
            seg.close()
        except BufferError:  # pragma: no cover - views still alive
            continue
        _deferred_closes.remove(seg)


atexit.register(_drain_deferred_closes)


@functools.lru_cache(maxsize=1)
def proc_available() -> bool:
    """Whether this platform supports the real-process backend.

    Requires the ``fork`` start method (workers inherit the loaded modules
    and the supervisor's file descriptors) and working POSIX shared memory.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=8)
    except (OSError, ValueError):  # pragma: no cover - platform dependent
        return False
    probe.close()
    probe.unlink()
    return True


class SharedWindow(Window):
    """A :class:`Window` whose per-rank buffers are slabs of one shm segment.

    The segment is owned (created and unlinked) by the supervisor; workers
    attach by name.  All state transitions write *in place* — replacing a
    buffer with a fresh private array, as the base class does, would silently
    detach the supervisor's view from the memory the workers keep writing.
    """

    def __init__(self, name: str, size: int, dtype: np.dtype, nprocs: int) -> None:
        dtype = np.dtype(dtype)
        self.shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, size=max(1, size * dtype.itemsize * nprocs)
        )
        flat = np.frombuffer(self.shm.buf, dtype=dtype, count=size * nprocs)
        flat[...] = 0
        buffers = {r: flat[r * size : (r + 1) * size] for r in range(nprocs)}
        super().__init__(
            name=name, size=size, dtype=dtype, nprocs=nprocs, buffers=buffers
        )

    @property
    def segment_name(self) -> str:
        """Name workers attach the underlying segment by."""
        if self.shm is None:
            raise WindowError(f"window {self.name!r} detached from shared memory")
        return self.shm.name

    # In-place variants of the failure/restore transitions ----------------
    def restore(self, rank: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=self.dtype).ravel()
        if data.size != self.size:
            raise WindowError(
                f"restore payload has {data.size} elements, window has {self.size}"
            )
        self._check_rank(rank)
        self.buffers[rank][...] = data
        self._invalidated.discard(rank)

    def invalidate(self, rank: int) -> None:
        self._check_rank(rank)
        self.buffers[rank][...] = 0
        self._invalidated.add(rank)

    def reallocate(self, rank: int) -> None:
        self._check_rank(rank)
        self.buffers[rank][...] = 0
        self._invalidated.discard(rank)

    def detach(self) -> None:
        """Swap buffers to private copies; close and unlink the segment.

        Idempotent.  Results gathered after a session closed keep reading
        the preserved copies.
        """
        if self.shm is None:
            return
        for rank in list(self.buffers):
            self.buffers[rank] = self.buffers[rank].copy()
        seg, self.shm = self.shm, None
        _drain_deferred_closes()
        try:
            seg.close()
        except BufferError:
            # Someone still holds a view (typically traceback frames of an
            # exception in flight through kernel code).  Unlinking below is
            # name-based and works regardless; the mapping itself is parked
            # and closed once the views die.
            _deferred_closes.append(seg)
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class _ShmSlab:
    """Worker-side view of one shared window: just the three access methods
    :func:`~repro.backends.base.apply_action` needs, no liveness bookkeeping
    (the supervisor owns that)."""

    __slots__ = ("buffers", "dtype")

    def __init__(
        self, shm: shared_memory.SharedMemory, size: int, dtype: np.dtype, nprocs: int
    ) -> None:
        flat = np.frombuffer(shm.buf, dtype=dtype, count=size * nprocs)
        self.buffers = {r: flat[r * size : (r + 1) * size] for r in range(nprocs)}
        self.dtype = dtype

    def write(self, rank: int, offset: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=self.dtype).ravel()
        self.buffers[rank][offset : offset + data.size] = data

    def read(self, rank: int, offset: int, count: int) -> np.ndarray:
        return self.buffers[rank][offset : offset + count].copy()

    def view(self, rank: int, offset: int, count: int) -> np.ndarray:
        return self.buffers[rank][offset : offset + count]


def _worker_main(rank: int, conn) -> None:
    """Loop of one rank's worker process.

    The parent owns every shm segment, so the child must not register
    attachments with its resource tracker — a SIGKILLed child would leak the
    registration and the tracker would spuriously unlink live segments.
    Exits via :func:`os._exit`: the forked interpreter inherited the
    supervisor's objects (windows, pipes) whose destructors must not run
    here.
    """
    from multiprocessing import resource_tracker

    resource_tracker.register = lambda *a, **k: None  # parent owns the segments
    slabs: dict[str, _ShmSlab] = {}
    segments: list[shared_memory.SharedMemory] = []
    try:
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "exit":
                break
            try:
                if tag == "attach":
                    _, win_name, seg_name, size, dtype_str, nprocs = msg
                    seg = shared_memory.SharedMemory(name=seg_name)
                    segments.append(seg)
                    slabs[win_name] = _ShmSlab(seg, size, np.dtype(dtype_str), nprocs)
                    continue  # pipe ordering makes an ack unnecessary
                if tag == "apply":
                    _, actions, die_after = msg
                    results = []
                    for i, action in enumerate(actions):
                        if die_after is not None and i == die_after:
                            os.kill(os.getpid(), signal.SIGKILL)
                        apply_action(action, slabs[action.window])
                        if action.kind.is_get_like:
                            results.append((i, action.data))
                    conn.send(("ok", results))
                elif tag == "ping":
                    conn.send(("pong", os.getpid()))
                elif tag == "sleep":  # test hook: simulate a wedged worker
                    time.sleep(msg[1])
                    conn.send(("ok", []))
                else:
                    conn.send(("err", f"unknown message tag {tag!r}"))
            except Exception as exc:  # noqa: BLE001 - report, don't die silently
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    except (EOFError, OSError):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
        os._exit(0)


@dataclass
class _Worker:
    """Supervisor-side handle of one rank's worker process."""

    rank: int
    process: multiprocessing.process.BaseProcess
    conn: connection.Connection


class ProcBackend(Backend):
    """Deferred execution by real per-rank OS processes over shared memory."""

    name = "proc"

    #: Seconds a batch dispatch waits for the worker's ack before declaring
    #: the job wedged (a real deadlock raises a diagnostic
    #: :class:`~repro.errors.WatchdogError` instead of hanging CI).
    DEFAULT_ACK_TIMEOUT = 60.0

    def __init__(self, *, ack_timeout: float = DEFAULT_ACK_TIMEOUT) -> None:
        if not proc_available():  # pragma: no cover - platform dependent
            raise BackendError(
                "backend 'proc' needs the fork start method and POSIX shared "
                "memory; neither is available on this platform"
            )
        super().__init__()
        self.ack_timeout = ack_timeout
        self._ctx = multiprocessing.get_context("fork")
        self._workers: dict[int, _Worker] = {}
        #: Worker deaths already reported through poll_failures (cleared on
        #: respawn, so each incarnation is reported at most once).
        self._reported_dead: set[int] = set()
        #: Deaths discovered by a dispatch (pipe EOF/sentinel) but not yet
        #: reported.  ``is_alive()`` can lag the pipe by microseconds after a
        #: SIGKILL, so poll_failures must not depend on it alone.
        self._discovered_dead: set[int] = set()
        #: Pending self-kill instrumentation: rank -> ops to apply first.
        self._armed_kills: dict[int, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle and window storage
    # ------------------------------------------------------------------
    def bind(self, nprocs: int) -> None:
        super().bind(nprocs)
        for rank in range(nprocs):
            self._workers[rank] = self._spawn(rank)

    def create_window(self, name: str, size: int, dtype: np.dtype) -> Window:
        window = self.windows.create(
            name, size, dtype, self.nprocs, factory=SharedWindow
        )
        assert isinstance(window, SharedWindow)
        for worker in self._workers.values():
            if worker.process.is_alive():
                self._send_attach(worker, window)
        return window

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            if worker.process.is_alive():
                try:
                    worker.conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            worker.process.close()
        self._workers.clear()
        for window in self.windows.all():
            if isinstance(window, SharedWindow):
                window.detach()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:  # noqa: BLE001 - never raise from a destructor
            pass

    # ------------------------------------------------------------------
    # Real-failure plumbing
    # ------------------------------------------------------------------
    def poll_failures(self) -> list[int]:
        dead = []
        for rank, worker in self._workers.items():
            if rank in self._reported_dead:
                continue
            if rank in self._discovered_dead or not worker.process.is_alive():
                self._reported_dead.add(rank)
                self._discovered_dead.discard(rank)
                self._note_death(rank)
                dead.append(rank)
        return dead

    def respawn_rank(self, rank: int) -> None:
        old = self._workers.get(rank)
        if old is not None:
            if old.process.is_alive():
                # A *virtually*-failed rank (time-scheduled event, no SIGKILL)
                # still has a live OS worker; the replacement takes over the
                # rank, so the stale vehicle is terminated rather than joined.
                old.process.kill()
            old.process.join(timeout=2.0)
            try:
                old.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            old.process.close()
        worker = self._workers[rank] = self._spawn(rank)
        self._reported_dead.discard(rank)
        self._discovered_dead.discard(rank)
        for window in self.windows.all():
            if isinstance(window, SharedWindow):
                self._send_attach(worker, window)

    def worker_pid(self, rank: int) -> int:
        """OS pid of ``rank``'s current worker (the kill target)."""
        worker = self._require_worker(rank)
        pid = worker.process.pid
        assert pid is not None
        return pid

    def wait_dead(self, rank: int, timeout: float = 10.0) -> bool:
        """Block until ``rank``'s worker has terminated (sentinel wait).

        A confirmed death is recorded for :meth:`poll_failures`: the sentinel
        can fire microseconds before the process becomes waitable, so a
        subsequent ``is_alive()`` is allowed to lag behind the truth.
        """
        worker = self._require_worker(rank)
        dead = not worker.process.is_alive() or bool(
            connection.wait([worker.process.sentinel], timeout)
        )
        if dead:
            self._note_death(rank)
        return dead

    def arm_kill(self, rank: int, after_ops: int) -> None:
        """Make ``rank``'s worker SIGKILL itself mid-batch.

        The worker dies immediately before applying the ``after_ops``-th
        operation of its subsequently dispatched batches (counted across
        batches) — the instrumentation the kill-timing stress tests use to
        hit the partial-batch rollback path deterministically.
        """
        if after_ops < 0:
            raise BackendError("after_ops must be non-negative")
        self._armed_kills[rank] = after_ops

    def ping(self, rank: int) -> bool:
        """Round-trip liveness probe of ``rank``'s worker."""
        worker = self._require_worker(rank)
        try:
            worker.conn.send(("ping",))
        except (BrokenPipeError, OSError):
            return False
        reply = self._await_reply(worker)
        return reply is not None and reply[0] == "pong"

    def describe_rank(self, rank: int) -> str:
        worker = self._workers.get(rank)
        if worker is None:
            return "no worker"
        process = worker.process
        known_dead = rank in self._reported_dead or rank in self._discovered_dead
        if process.is_alive() and not known_dead:
            state = f"pid={process.pid} alive"
        else:
            state = f"pid={process.pid} dead exitcode={process.exitcode}"
        return f"{state} pending={self.pending_ops(rank)}"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn(self, rank: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(rank, child_conn),
            name=f"repro-proc-rank-{rank}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(rank=rank, process=process, conn=parent_conn)

    @staticmethod
    def _send_attach(worker: _Worker, window: SharedWindow) -> None:
        try:
            worker.conn.send(
                (
                    "attach",
                    window.name,
                    window.segment_name,
                    window.size,
                    str(window.dtype),
                    window.nprocs,
                )
            )
        except (BrokenPipeError, OSError):  # dead worker: poll reports it
            pass

    def _require_worker(self, rank: int) -> _Worker:
        worker = self._workers.get(rank)
        if worker is None:
            raise BackendError(f"no worker exists for rank {rank} (backend unbound?)")
        return worker

    def _note_death(self, rank: int) -> None:
        """Record a death discovered by a dispatch and reap the zombie.

        The death stays queued for :meth:`poll_failures` (it must still reach
        the cluster through the ordinary observation path); only a report or
        a respawn clears it.
        """
        if rank not in self._reported_dead:
            self._discovered_dead.add(rank)
        worker = self._workers.get(rank)
        if worker is not None:
            worker.process.join(timeout=0)  # reap the zombie

    def _apply(self, src: int, batch: list[tuple[OpHandle, Window]]) -> None:
        """Ship a batch to ``src``'s worker and fold its results back.

        Raises :class:`~repro.errors.ProcessFailedError` — with the canonical
        fail-stop message, so exception identity holds across backends — when
        the worker is (or dies) instead of acking; partial effects of a
        mid-batch death are rolled back first.
        """
        worker = self._workers.get(src)
        if worker is None or not worker.process.is_alive():
            self._note_death(src)
            raise ProcessFailedError(src)
        actions = [h.action for h, _ in batch]
        undo = [
            (win, a.trg, a.offset, win.buffers[a.trg][a.offset : a.offset + a.count].copy())
            for (h, win), a in zip(batch, actions)
            if a.kind.is_put_like
        ]
        die_after = self._armed_kills.pop(src, None)
        if die_after is not None and die_after >= len(actions):
            # Not reached within this batch: keep the remainder armed.
            self._armed_kills[src] = die_after - len(actions)
            die_after = None
        try:
            worker.conn.send(("apply", actions, die_after))
        except (BrokenPipeError, OSError):
            self._note_death(src)
            raise ProcessFailedError(src) from None
        reply = self._await_reply(worker)
        if reply is None:
            # The worker died mid-batch: partial writes are already in shared
            # memory.  Restore the snapshots (newest first) so the aborted
            # completion is effect-free, like a discarded queue.
            for win, trg, offset, saved in reversed(undo):
                win.buffers[trg][offset : offset + saved.size] = saved
            self._note_death(src)
            raise ProcessFailedError(src)
        tag, payload = reply
        if tag == "err":
            raise BackendError(f"proc worker {src} failed to apply a batch: {payload}")
        # The worker applied the ops to its *pickled copies*: mirror the two
        # mutations apply_action makes onto the supervisor's originals — the
        # issued operand is preserved for the replay log, then get-like data
        # is overwritten with the fetched values.
        for action in actions:
            if action.kind.is_put_like and action.operand is None:
                action.operand = action.data
        for index, data in payload:
            actions[index].data = np.asarray(data)

    def _await_reply(self, worker: _Worker):
        """Wait for the worker's ack, its death, or the watchdog timeout."""
        ready = connection.wait(
            [worker.conn, worker.process.sentinel], self.ack_timeout
        )
        if worker.conn in ready:
            try:
                return worker.conn.recv()
            except (EOFError, OSError):
                return None
        if ready:  # sentinel fired: the worker died
            return None
        raise WatchdogError(
            f"proc worker of rank {worker.rank} sent no reply within "
            f"{self.ack_timeout:.1f}s; worker states:\n"
            + "\n".join(
                f"  rank {r}: {self.describe_rank(r)}" for r in sorted(self._workers)
            )
        )
