"""Occamy's reactive component: the packet-expulsion engine.

The engine mirrors the egress-side datapath of Figure 8/9 in the paper:

* a **head-drop selector** keeps a bitmap with one bit per queue, set when the
  queue's length exceeds the admission threshold ``T(t)``, and iterates over
  the set bits with a round-robin arbiter;
* a **fixed-priority arbiter** makes head drops yield to the output scheduler
  -- modelled here through a :class:`TokenBucket` that only grants expulsions
  out of *redundant* memory bandwidth (the same token-bucket construction as
  the paper's DPDK prototype, Section 5.3);
* a **head-drop executor** dequeues the victim packet's descriptor and returns
  its cell pointers to the free list without touching cell data memory.

The engine is policy-agnostic: it asks the attached buffer manager which
queues are over-allocated, so it can serve both round-robin Occamy and the
longest-queue-drop variant evaluated in Figure 21.

In hardware the bitmap is a bank of per-cycle comparators and costs nothing
extra.  In software the engine only does work when a queue can actually be
over-allocated: the switch enters it after an admission that the buffer
manager's :meth:`~repro.core.base.BufferManager.any_over_allocated` check
flags, and after dequeues and drops only while :attr:`ExpulsionEngine.pending`
is set.  Both shortcuts skip only calls that would have found an empty
bitmap, so simulated outcomes are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import BufferManager
    from repro.switchsim.switch import SharedMemorySwitch


class TokenBucket:
    """A continuous-time token bucket measured in buffer cells.

    Tokens are generated at ``rate_cells_per_sec`` and capped at
    ``capacity_cells``.  The forwarding (TX) path is always allowed to consume
    tokens, even driving the balance negative, because line-rate forwarding
    must never be blocked; the expulsion path may only consume tokens that are
    actually available.  This reproduces the prototype's accounting of
    *redundant* memory bandwidth.
    """

    def __init__(self, rate_cells_per_sec: float, capacity_cells: float) -> None:
        if rate_cells_per_sec <= 0:
            raise ValueError("token rate must be positive")
        if capacity_cells <= 0:
            raise ValueError("capacity must be positive")
        self.rate = rate_cells_per_sec
        self.capacity = capacity_cells
        self._tokens = capacity_cells
        self._last_update = 0.0
        #: Cumulative cells consumed by forwarding vs. expulsion (statistics).
        self.forward_cells_consumed = 0.0
        self.expel_cells_consumed = 0.0

    def _refill(self, now: float) -> None:
        if now < self._last_update:
            # Defensive: callers must use a monotonic clock, but a tiny
            # floating-point regression should not corrupt the balance.
            now = self._last_update
        elapsed = now - self._last_update
        self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
        self._last_update = now

    def available(self, now: float) -> float:
        """Tokens (cells) available at time ``now``."""
        self._refill(now)
        return self._tokens

    def consume_forwarding(self, cells: float, now: float) -> None:
        """Consume tokens for normal forwarding; may drive the balance negative."""
        if cells < 0:
            raise ValueError("cells must be non-negative")
        self._refill(now)
        self._tokens -= cells
        self.forward_cells_consumed += cells

    def try_consume_expulsion(self, cells: float, now: float) -> bool:
        """Consume tokens for an expulsion iff enough are available.

        A small epsilon absorbs floating-point residue so that a balance of
        7.999999999 cells still covers an 8-cell packet.
        """
        if cells < 0:
            raise ValueError("cells must be non-negative")
        self._refill(now)
        if self._tokens + 1e-9 < cells:
            return False
        self._tokens -= cells
        self.expel_cells_consumed += cells
        return True

    def time_until(self, cells: float, now: float) -> float:
        """Seconds until ``cells`` tokens will be available (0 if already)."""
        self._refill(now)
        deficit = cells - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate

    def utilization(self) -> float:
        """Fraction of consumed tokens that went to forwarding (diagnostics)."""
        total = self.forward_cells_consumed + self.expel_cells_consumed
        if total == 0:
            return 0.0
        return self.forward_cells_consumed / total


class RoundRobinPointer:
    """The round-robin arbiter of the head-drop selector (functional model).

    Given a bitmap of eligible queues, return the first eligible index at or
    after the pointer, then advance the pointer past it -- exactly the grant
    behaviour of the combinational round-robin arbiters used in crossbar
    schedulers.
    """

    def __init__(self) -> None:
        self._pointer = 0

    @property
    def pointer(self) -> int:
        return self._pointer

    def grant(self, bitmap: Sequence[bool]) -> Optional[int]:
        """Pick the next set bit in round-robin order, or None if none set."""
        n = len(bitmap)
        if n == 0:
            return None
        start = self._pointer % n
        for offset in range(n):
            idx = (start + offset) % n
            if bitmap[idx]:
                self._pointer = (idx + 1) % n
                return idx
        return None

    def reset(self) -> None:
        self._pointer = 0


@dataclass
class HeadDropSelector:
    """Bitmap of over-allocated queues plus a round-robin arbiter (Figure 9).

    The engine refreshes the bitmap before each head-drop attempt, and only
    once some queue is known to be over-allocated.  Between engine runs the
    bitmap keeps the comparator outputs of the last attempt; the runs it
    skips are exactly those that would have found every bit clear, and the
    arbiter's pointer only moves on a grant, so skipping them leaves the
    grant sequence unchanged.
    """

    num_queues: int
    arbiter: RoundRobinPointer = field(default_factory=RoundRobinPointer)

    def __post_init__(self) -> None:
        if self.num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self.bitmap: List[bool] = [False] * self.num_queues

    def update(self, over_allocated_flags: Iterable[bool]) -> None:
        """Refresh the bitmap from per-queue comparator outputs."""
        flags = list(over_allocated_flags)
        if len(flags) != self.num_queues:
            raise ValueError(
                f"expected {self.num_queues} flags, got {len(flags)}"
            )
        self.bitmap = flags

    def any_over_allocated(self) -> bool:
        return any(self.bitmap)

    def select(self) -> Optional[int]:
        """Return the index of the next over-allocated queue, round-robin."""
        return self.arbiter.grant(self.bitmap)

    def select_longest(self, lengths: Sequence[int]) -> Optional[int]:
        """Return the longest over-allocated queue (Figure 21 variant)."""
        best_idx: Optional[int] = None
        best_len = -1
        for idx, flag in enumerate(self.bitmap):
            if flag and lengths[idx] > best_len:
                best_idx = idx
                best_len = lengths[idx]
        return best_idx


@dataclass(frozen=True)
class ExpulsionResult:
    """Outcome of one :meth:`ExpulsionEngine.run` invocation."""

    expelled_packets: int = 0
    expelled_bytes: int = 0
    blocked_on_tokens: bool = False
    #: Seconds until enough tokens for the next pending expulsion (0 if not blocked).
    retry_after: float = 0.0


#: Shared result of a run that found no over-allocated queue.
IDLE = ExpulsionResult()


class ExpulsionEngine:
    """Drives head drops for over-allocated queues using redundant bandwidth.

    The engine is owned by a :class:`~repro.switchsim.switch.SharedMemorySwitch`.
    The switch runs it after an admission that leaves some queue
    over-allocated, after dequeues and drops while :attr:`pending` is set, and
    on its token-retry event.  Each run expels as many packets as the token
    bucket allows (bounded by ``max_drops_per_run`` to keep single events
    cheap), then reports whether it is blocked waiting for memory bandwidth so
    the switch can schedule a retry.

    This is exact for monotone thresholds such as DT's ``alpha * (B - Q(t))``
    (see :attr:`~repro.core.base.BufferManager.uses_expulsion_engine`):
    dequeues, drops and head drops only shorten queues and grow the free
    buffer, so once a run ends on an empty bitmap no queue can become
    over-allocated again until the next admission or alpha change.
    """

    def __init__(
        self,
        switch: "SharedMemorySwitch",
        manager: "BufferManager",
        token_bucket: TokenBucket,
        victim_policy: str = "round_robin",
        max_drops_per_run: int = 64,
    ) -> None:
        if victim_policy not in ("round_robin", "longest"):
            raise ValueError(f"unknown victim policy: {victim_policy!r}")
        self.switch = switch
        self.manager = manager
        self.token_bucket = token_bucket
        self.victim_policy = victim_policy
        self.max_drops_per_run = max_drops_per_run
        self.selector = HeadDropSelector(num_queues=switch.total_queue_count)
        #: Whether some queue may still be over-allocated.  Set by a run that
        #: finds one (and by alpha changes), cleared only by a run that ends
        #: on an empty bitmap; a run blocked on tokens or stopped by
        #: ``max_drops_per_run`` leaves it set.
        self.pending = False
        #: Cumulative statistics.
        self.total_expelled_packets = 0
        self.total_expelled_bytes = 0

    def run(self, now: float) -> ExpulsionResult:
        """Expel head packets from over-allocated queues while bandwidth allows."""
        if not self.manager.any_over_allocated(self.switch.queue_views(), now):
            self.pending = False
            return IDLE
        self.pending = True
        expelled_packets = 0
        expelled_bytes = 0
        blocked_on_tokens = False
        retry_after = 0.0
        for _ in range(self.max_drops_per_run):
            views = self.switch.queue_views()
            flags = self.manager.over_allocated_flags(views, now)
            self.selector.update(flags)
            if not self.selector.any_over_allocated():
                self.pending = False
                break
            if self.victim_policy == "longest":
                lengths = [view.length_bytes for view in views]
                victim_index = self.selector.select_longest(lengths)
            else:
                victim_index = self.selector.select()
            if victim_index is None:
                break
            victim = views[victim_index]
            head_bytes = self.switch.head_packet_bytes(victim.queue_id)
            if head_bytes is None:
                # Queue emptied between the comparator snapshot and now.
                continue
            cells = self.switch.cells_for_bytes(head_bytes)
            if not self.token_bucket.try_consume_expulsion(cells, now):
                blocked_on_tokens = True
                # Never retry more often than one cell-time: retrying on
                # sub-cell token deficits would flood the event queue.
                retry_after = max(
                    self.token_bucket.time_until(cells, now),
                    1.0 / self.token_bucket.rate,
                )
                break
            dropped = self.switch.head_drop(victim.queue_id, now)
            if dropped is None:
                continue
            expelled_packets += 1
            expelled_bytes += dropped
            self.total_expelled_packets += 1
            self.total_expelled_bytes += dropped
        return ExpulsionResult(expelled_packets, expelled_bytes,
                               blocked_on_tokens, retry_after)
