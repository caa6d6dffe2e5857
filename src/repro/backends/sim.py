"""The in-process backend — applies queued ops as coalesced batches.

Operations queue per origin in the shared :class:`~repro.backends.base.Backend`
queue and are applied only when the runtime completes the epoch (flush,
unlock, gsync, or a blocking wrapper).  At completion time the batch is
*coalesced*: maximal runs of plain puts that write contiguous ranges of the
same target's window collapse into a single numpy slice assignment, so a halo
exchange or a chunked stream of small puts costs one vectorized write instead
of one bounds-checked write per message — the batching that makes the
nonblocking path measurably faster than blocking per-op completion
(``benchmarks/bench_rma.py``).

Correctness note: within one epoch the model imposes no order between actions
(§2.2), but the batch is still applied in issue order — overlapping puts and
atomics land exactly as the real-process backend lands them, and gets read at
the same completion point on every backend.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, apply_action
from repro.rma.actions import OpKind
from repro.rma.handles import OpHandle
from repro.rma.window import Window

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """Deferred in-process execution: coalesced batch apply at completion."""

    name = "sim"

    def _apply(self, src: int, batch: list[tuple[OpHandle, Window]]) -> None:
        """Apply a queued batch in issue order, coalescing contiguous puts."""
        i = 0
        n = len(batch)
        while i < n:
            handle, win = batch[i]
            action = handle.action
            if action.kind is not OpKind.PUT:
                apply_action(action, win)
                i += 1
                continue
            # Grow a maximal run of puts writing back-to-back ranges of the
            # same target's window.
            j = i + 1
            end = action.offset + action.count
            while j < n:
                nxt, nxt_win = batch[j]
                if (
                    nxt.action.kind is not OpKind.PUT
                    or nxt_win is not win
                    or nxt.action.trg != action.trg
                    or nxt.action.offset != end
                ):
                    break
                end += nxt.action.count
                j += 1
            if j - i == 1:
                win.write(action.trg, action.offset, action.data)
            else:
                payload = np.concatenate([batch[k][0].action.data for k in range(i, j)])
                win.write(action.trg, action.offset, payload)
            i = j
