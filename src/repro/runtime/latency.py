"""Critical-path wall-clock accounting for concurrent model calls.

The usage meter sums *model time* (every completion's latency, as if the
calls ran back to back).  The ledger tracks the other number a serving
system cares about: the *critical path* — what a wall clock would show
when independent calls overlap.  Sequential stages add up; concurrent
branches contribute their maximum.

The ledger is scope-structured rather than clock-sampled so the number
is deterministic: real thread interleavings never affect it, only the
simulated latencies and the declared parallel structure do.

* Code running outside any branch commits additions straight to the
  meter (via ``on_commit``).
* :meth:`LatencyLedger.branch` opens a per-thread branch; additions
  accumulate in the branch instead.  The orchestrator that joined the
  branches commits ``max(branch totals)`` — see
  :func:`repro.runtime.parallel.run_parallel`.

Branches nest naturally: a parallel region inside a branch rolls its
own maximum up into the enclosing branch, because the roll-up runs on
the enclosing thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence


def greedy_makespan(durations: Sequence[float], slot_count: int) -> float:
    """Greedy list-scheduling of ``durations`` onto ``slot_count`` slots.

    The shared makespan primitive of the wall-clock model: the
    dispatcher prices each wave with it and the serving layer prices
    whole batches with it, so the two accountings can never drift.
    One slot degenerates to the serial sum.
    """
    if not durations:
        return 0.0
    if slot_count <= 1:
        return sum(durations)
    slots = [0.0] * slot_count
    for duration in durations:
        index = min(range(len(slots)), key=slots.__getitem__)
        slots[index] += duration
    return max(slots)


class BranchClock:
    """Wall-clock accumulator for one concurrent branch.

    ``divisor`` is the branch's *structural concurrency*: how many
    sibling branches (times any enclosing region's divisor) share the
    dispatcher's worker pool with it.  It is fixed by the plan shape
    when the parallel region opens — never sampled from live thread
    state — so wall-clock accounting stays deterministic.
    """

    __slots__ = ("total", "divisor")

    def __init__(self, divisor: int = 1) -> None:
        self.total = 0.0
        self.divisor = max(1, divisor)


class LatencyLedger:
    """Structured critical-path accumulator.

    ``on_commit`` receives every millisecond that reaches the root scope
    (typically :meth:`UsageMeter.add_wall_ms`); :meth:`now` exposes the
    committed-plus-branch total as a simulated clock, which the scan
    prefetcher uses to credit speculation overlap.
    """

    def __init__(self, on_commit: Optional[Callable[[float], None]] = None):
        self._on_commit = on_commit or (lambda ms: None)
        self._lock = threading.Lock()
        self._committed = 0.0
        self._local = threading.local()

    # -- recording ----------------------------------------------------------

    def add(self, ms: float) -> None:
        """Charge ``ms`` to the current scope (branch if one is open)."""
        if ms <= 0:
            return
        branch = getattr(self._local, "branch", None)
        if branch is not None:
            branch.total += ms
            return
        with self._lock:
            self._committed += ms
        self._on_commit(ms)

    @contextmanager
    def branch(self, divisor: int = 1) -> Iterator[BranchClock]:
        """Divert this thread's additions into a fresh branch clock."""
        clock = BranchClock(divisor=divisor)
        previous = getattr(self._local, "branch", None)
        self._local.branch = clock
        try:
            yield clock
        finally:
            self._local.branch = previous

    def current_divisor(self) -> int:
        """Structural concurrency of the calling thread's scope.

        1 at the root; inside a parallel region, the number of sibling
        branches sharing the worker pool (compounded across nesting).
        The dispatcher divides its slots by this when pricing a wave's
        makespan, so the reported critical path never pretends one
        branch had the whole pool to itself.
        """
        branch = getattr(self._local, "branch", None)
        return branch.divisor if branch is not None else 1

    # -- reading ------------------------------------------------------------

    def now(self) -> float:
        """The simulated wall clock as seen from the calling thread."""
        branch = getattr(self._local, "branch", None)
        with self._lock:
            committed = self._committed
        return committed + (branch.total if branch is not None else 0.0)
