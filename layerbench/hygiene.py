"""Leak checks run after each workload: shared memory, scratch dirs, workers.

The same checks as the test suite's process-hygiene fixture, kept here so
the benchmark does not import test code: a real-process job must leave no
``psm_*`` POSIX shared-memory segment, no ``repro-ckpt-*`` checkpoint
scratch directory or ``repro-trace-*`` staging file in the temp dir, and no
live worker process behind it.
"""

from __future__ import annotations

import multiprocessing
import os

SHM_DIR = "/dev/shm"


def _listing(directory: str, prefixes: tuple[str, ...]) -> set[str] | None:
    try:
        return {name for name in os.listdir(directory) if name.startswith(prefixes)}
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return None


def snapshot(tmpdir: str) -> dict[str, set[str] | None]:
    """Names currently present that a leak would add to."""
    return {
        "shared-memory segment": _listing(SHM_DIR, ("psm_",)),
        "temp-dir entry": _listing(tmpdir, ("repro-ckpt-", "repro-trace-")),
    }


def leaks(before: dict[str, set[str] | None], tmpdir: str) -> list[str]:
    """Describe every entry that appeared since ``before`` was taken."""
    found = []
    for kind, now in snapshot(tmpdir).items():
        then = before[kind]
        if then is not None and now is not None:
            found += [f"leaked {kind} {name}" for name in sorted(now - then)]
    return found


def live_workers(join_timeout: float = 2.0) -> list[str]:
    """Worker processes of this interpreter still alive after a join."""
    # A killed worker lingers in active_children() until joined; that is
    # bookkeeping, not a leak.
    for child in multiprocessing.active_children():
        child.join(timeout=join_timeout)
    return [
        f"live worker process {child.pid}"
        for child in multiprocessing.active_children()
        if child.is_alive()
    ]
