"""The benchmark's three job shapes, built from the public ``repro`` API.

Each shape fixes a catalog workload, its backend, machine shape and
fault-tolerance policy; the seed given on the command line only drives the
kill plan and the ``KvUpdate`` batches.  See README.md for why each exists.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import repro
from repro.ft import KillPlan
from repro.study import HeatStencil, KvUpdate, Workload


@dataclass(frozen=True)
class Shape:
    name: str
    make_workload: Callable[[int], Workload]
    backend: str
    procs_per_node: int
    interval: int
    store: str
    recovery: str
    #: POD kills per job (0: failure-free).
    kills: int = 0

    def policy(self) -> repro.FaultTolerancePolicy:
        return repro.FaultTolerancePolicy(
            interval=self.interval, store=self.store, recovery=self.recovery
        )

    def kill_plan(self, seed: int, workload: Workload, ops_per_step: int) -> KillPlan | None:
        """``kills`` seeded POD kills, one per equal slice of the job's steps.

        Kill ``i`` strikes in the second checkpoint interval of slice ``i``,
        so a checkpoint always commits between two kills and a parity group
        never loses two members at once (a catastrophic failure, not a
        recovery).  Its step within that interval is ``order[i] % interval``
        for a seeded permutation ``order``: the seed moves every kill, picks
        its victim and its operation within the step, but the number of
        steps re-executed per job barely depends on it, so throughput
        differences between seeds are not re-execution counts.
        """
        if not self.kills:
            return None
        steps_per_slice = workload.steps // self.kills
        if steps_per_slice < 2 * self.interval:
            raise ValueError(f"{self.name}: too few steps for {self.kills} spaced kills")
        order = np.random.default_rng(seed).permutation(self.kills)
        events = []
        for i in range(self.kills):
            step = i * steps_per_slice + self.interval + int(order[i]) % self.interval
            events += KillPlan.seeded(
                np.random.SeedSequence([seed, i]),
                nprocs=workload.nprocs,
                min_ops=step * ops_per_step,
                max_ops=(step + 1) * ops_per_step,
            ).events
        return KillPlan(events)


SHAPES = {
    shape.name: shape
    for shape in (
        Shape(
            name="stencil_ckpt",
            make_workload=lambda seed: HeatStencil(nprocs=32, n_local=512, iters=48),
            backend="vector",
            procs_per_node=2,
            interval=4,
            store="memory",
            recovery="global",
        ),
        Shape(
            name="kv_replay",
            make_workload=lambda seed: KvUpdate(nprocs=8, steps=48, seed=seed),
            backend="sim",
            procs_per_node=2,
            interval=4,
            store="parity",
            recovery="localized",
            kills=6,
        ),
        Shape(
            name="stencil_proc",
            make_workload=lambda seed: HeatStencil(nprocs=2, n_local=512, iters=200),
            backend="proc",
            procs_per_node=1,
            interval=20,
            store="memory",
            recovery="global",
        ),
    )
}
