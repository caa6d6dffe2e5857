"""RMA actions — the formal objects of the paper's model (§2.4).

A *communication action* is the tuple of Eq. (1):

``a = <type, src, trg, combine, EC, GC, SC, GNC, data>``

and its *determinant* (Eq. 2) is the same tuple without the data.  A
*synchronization action* is the tuple of Eq. (3):

``b = <type, src, trg, EC, GC, SC, GNC, str>``.

The counters are:

* ``EC``  — Epoch Counter: epoch of the (src, trg) pair in which the action
  was issued; orders actions of one origin towards one target (``co``).
* ``GC``  — Get Counter: incremented at the origin on every flush it issues;
  orders the origin's gets towards *different* targets (§4.1 B).
* ``SC``  — Synchronization Counter: fetched-and-incremented at the target on
  every lock acquisition; records the ``so`` order of lock-synchronized
  accesses (§4.1 C).
* ``GNC`` — GsyNc Counter: incremented at every process by each gsync; records
  the global ``cohb`` order introduced by gsyncs (§4.1 E).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import RmaError

__all__ = [
    "ActionCategory",
    "OpKind",
    "SyncKind",
    "AccumulateOp",
    "Counters",
    "CommAction",
    "SyncAction",
    "Determinant",
    "apply_accumulate",
]

_SEQ = itertools.count()


class ActionCategory(enum.Enum):
    """The paper's coarse categorization (Table 1): put/get and four sync kinds."""

    PUT = "put"
    GET = "get"
    LOCK = "lock"
    UNLOCK = "unlock"
    FLUSH = "flush"
    GSYNC = "gsync"


class OpKind(enum.Enum):
    """Concrete communication operations offered by the runtime.

    Each member carries its Table 1 classification as plain attributes, set
    once when the class is built, so the per-operation path reads a flag
    instead of testing set membership:

    * ``is_put_like`` — the operation transfers data *to* the target;
    * ``is_get_like`` — it transfers data *from* the target (atomic
      read-modify-write operations are both puts and gets);
    * ``is_atomic`` — it is a remote atomic.
    """

    is_put_like: bool
    is_get_like: bool
    is_atomic: bool

    # (value, is_put_like, is_get_like, is_atomic)
    PUT = ("put", True, False, False)
    GET = ("get", False, True, False)
    ACCUMULATE = ("accumulate", True, False, True)
    GET_ACCUMULATE = ("get_accumulate", True, True, True)
    FETCH_AND_OP = ("fetch_and_op", True, True, True)
    COMPARE_AND_SWAP = ("compare_and_swap", True, True, True)

    def __new__(cls, value: str, put_like: bool, get_like: bool, atomic: bool) -> OpKind:
        member = object.__new__(cls)
        member._value_ = value
        member.is_put_like = put_like
        member.is_get_like = get_like
        member.is_atomic = atomic
        return member


class SyncKind(enum.Enum):
    """Concrete synchronization operations offered by the runtime.

    ``category`` maps each member to the paper's four synchronization
    categories; ``closes_epoch`` says whether it completes (commits)
    outstanding accesses.  Both are attributes set once per member.
    """

    category: ActionCategory
    closes_epoch: bool

    LOCK = ("lock", ActionCategory.LOCK, False)
    UNLOCK = ("unlock", ActionCategory.UNLOCK, True)
    FLUSH = ("flush", ActionCategory.FLUSH, True)
    FLUSH_ALL = ("flush_all", ActionCategory.FLUSH, True)
    GSYNC = ("gsync", ActionCategory.GSYNC, True)
    BARRIER = ("barrier", ActionCategory.GSYNC, False)

    def __new__(cls, value: str, category: ActionCategory, closes_epoch: bool) -> SyncKind:
        member = object.__new__(cls)
        member._value_ = value
        member.category = category
        member.closes_epoch = closes_epoch
        return member


class AccumulateOp(enum.Enum):
    """Combining operators for accumulate-style puts.

    ``combining`` is true if the result depends on the previous target
    value.  The paper calls puts with this property *combining puts*;
    replaying them twice corrupts the target (§4.2), hence the ``M`` flag.
    """

    combining: bool

    REPLACE = ("replace", False)
    SUM = ("sum", True)
    PROD = ("prod", True)
    MIN = ("min", True)
    MAX = ("max", True)
    NO_OP = ("no_op", False)  # used by fetch_and_op to implement an atomic read

    def __new__(cls, value: str, combining: bool) -> AccumulateOp:
        member = object.__new__(cls)
        member._value_ = value
        member.combining = combining
        return member


def apply_accumulate(
    target: np.ndarray, operand: np.ndarray, op: AccumulateOp
) -> np.ndarray:
    """Apply ``op`` in place to ``target`` and return the *previous* values."""
    previous = target.copy()
    if op is AccumulateOp.REPLACE:
        target[...] = operand
    elif op is AccumulateOp.SUM:
        target[...] = target + operand
    elif op is AccumulateOp.PROD:
        target[...] = target * operand
    elif op is AccumulateOp.MIN:
        target[...] = np.minimum(target, operand)
    elif op is AccumulateOp.MAX:
        target[...] = np.maximum(target, operand)
    elif op is AccumulateOp.NO_OP:
        pass
    else:  # pragma: no cover - defensive
        raise RmaError(f"unknown accumulate op {op!r}")
    return previous


@dataclass(frozen=True)
class Counters:
    """The recovery counters stamped on every action (Eq. 1 and 3)."""

    ec: int = 0
    gc: int = 0
    sc: int = 0
    gnc: int = 0

    def as_tuple(self) -> tuple[int, int, int, int]:
        """``(EC, GC, SC, GNC)``."""
        return (self.ec, self.gc, self.sc, self.gnc)


#: A determinant is the action without its data payload (Eq. 2); it is enough
#: to reconstruct *ordering* information but not to replay the access.
Determinant = tuple


@dataclass
class CommAction:
    """A communication action (Eq. 1)."""

    kind: OpKind
    src: int
    trg: int
    window: str
    offset: int
    count: int
    combine: bool
    counters: Counters
    op: AccumulateOp = AccumulateOp.REPLACE
    #: Payload carried by the action: the data written (puts), or metadata of
    #: the data read (gets).  ``None`` for pure gets until completed.
    data: np.ndarray | None = None
    #: The values the action was *issued* with.  For get-like atomics
    #: (get_accumulate, fetch_and_op, compare_and_swap) completion overwrites
    #: :attr:`data` with the fetched previous values; the operand is kept here
    #: so a log-based replay (§7) can re-apply the action to a restored
    #: window.  ``None`` until completion for pure puts (where ``data`` *is*
    #: the operand) and always for pure gets.
    operand: np.ndarray | None = None
    #: Compare value of a compare-and-swap.
    compare: np.ndarray | None = None
    #: Unique, monotonically increasing issue id (program order within a run).
    seq: int = field(default_factory=lambda: next(_SEQ))

    def __post_init__(self) -> None:
        if self.src < 0 or self.trg < 0:
            raise RmaError("ranks must be non-negative")
        if self.count <= 0:
            raise RmaError("count must be positive")
        if self.offset < 0:
            raise RmaError("offset must be non-negative")

    # ------------------------------------------------------------------
    @property
    def category(self) -> ActionCategory:
        """PUT or GET (atomics report PUT; ``kind.is_get_like`` tells both)."""
        return ActionCategory.PUT if self.kind.is_put_like else ActionCategory.GET

    @property
    def nbytes(self) -> int:
        """Bytes moved over the network by this action."""
        if self.data is not None:
            return int(self.data.nbytes)
        return self.count * 8  # conservative default: 8-byte elements

    # Paper notation helpers -------------------------------------------------
    @property
    def EC(self) -> int:  # noqa: N802 - matches the paper's field name
        """Epoch counter of the action."""
        return self.counters.ec

    @property
    def GC(self) -> int:  # noqa: N802
        """Get counter of the action."""
        return self.counters.gc

    @property
    def SC(self) -> int:  # noqa: N802
        """Synchronization counter of the action."""
        return self.counters.sc

    @property
    def GNC(self) -> int:  # noqa: N802
        """Gsync counter of the action."""
        return self.counters.gnc

    def determinant(self) -> Determinant:
        """The determinant ``#a`` (Eq. 2): the action without its data."""
        return (
            self.kind.value,
            self.src,
            self.trg,
            self.window,
            self.offset,
            self.count,
            self.combine,
            self.counters.as_tuple(),
            self.seq,
        )

    def with_data(self, data: np.ndarray) -> "CommAction":
        """Return a copy of the action carrying ``data`` as payload."""
        return replace(self, data=np.array(data, copy=True))

    def describe(self) -> str:
        """Short human-readable description, e.g. ``put(3=>7)[off=0,n=4]``."""
        arrow = "=>" if self.kind.is_put_like else "<="
        return (
            f"{self.kind.value}({self.src}{arrow}{self.trg})"
            f"[win={self.window},off={self.offset},n={self.count},"
            f"EC={self.EC},GC={self.GC},SC={self.SC},GNC={self.GNC}]"
        )


@dataclass
class SyncAction:
    """A synchronization action (Eq. 3)."""

    kind: SyncKind
    src: int
    #: Target rank; ``None`` encodes the paper's "diamond" (all processes).
    trg: int | None
    counters: Counters
    #: Optional name of the structure being synchronized (the paper's ``str``).
    structure: str | None = None
    window: str | None = None
    seq: int = field(default_factory=lambda: next(_SEQ))

    @property
    def category(self) -> ActionCategory:
        """The paper's synchronization category."""
        return self.kind.category

    @property
    def is_global(self) -> bool:
        """Whether the action targets every process (gsync / barrier / flush_all)."""
        return self.trg is None

    def determinant(self) -> Determinant:
        """Tuple form used by logs and tests."""
        return (
            self.kind.value,
            self.src,
            self.trg,
            self.structure,
            self.counters.as_tuple(),
            self.seq,
        )

    def describe(self) -> str:
        """Short human-readable description."""
        target = "ALL" if self.trg is None else str(self.trg)
        suffix = f", str={self.structure}" if self.structure else ""
        return f"{self.kind.value}({self.src}->{target}{suffix})"


def reset_sequence_counter(value: int = 0) -> None:
    """Reset the global action sequence counter (test isolation helper)."""
    global _SEQ
    _SEQ = itertools.count(value)
