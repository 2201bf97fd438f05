"""Base classes and protocols shared by all buffer management schemes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.switchsim.switch import SharedMemorySwitch


@runtime_checkable
class QueueView(Protocol):
    """The queue state a buffer manager is allowed to observe.

    The on-chip admission logic only sees queue-length statistics (Figure 1 of
    the paper); this protocol captures exactly that, plus the static queue
    attributes (port, priority, per-queue alpha override) that commodity chips
    expose through configuration.
    """

    @property
    def queue_id(self) -> int: ...

    @property
    def port_id(self) -> int: ...

    @property
    def length_bytes(self) -> int: ...

    @property
    def length_packets(self) -> int: ...

    @property
    def priority(self) -> int: ...

    @property
    def alpha_override(self) -> Optional[float]: ...

    @property
    def drain_rate_estimate(self) -> float: ...


@dataclass
class EvictionRequest:
    """A request to evict bytes from a victim queue to make room.

    Attributes:
        queue_id: queue to evict from.
        from_head: if True, expel at the head (head drop); otherwise at the
            tail (classic pushout discards the newest resident packet).
        max_bytes: stop evicting once this many bytes have been freed.
    """

    queue_id: int
    from_head: bool = False
    max_bytes: int = 0


@dataclass
class AdmissionDecision:
    """The outcome of consulting a buffer manager about an arriving packet.

    Attributes:
        accept: whether the packet may be enqueued.
        evictions: evictions that must be carried out *before* the enqueue
            (only preemptive schemes such as Pushout populate this).
        reason: a short machine-readable reason for drops, used by statistics.
    """

    accept: bool
    evictions: List[EvictionRequest] = field(default_factory=list)
    reason: str = ""


#: Shared plain-accept decision used on the hot admission path.  Callers must
#: treat decisions as immutable (schemes that request evictions build their
#: own instances).
ACCEPT = AdmissionDecision(True)


class BufferManager:
    """Abstract base class for buffer management schemes.

    Subclasses implement :meth:`threshold` and may override :meth:`admit` for
    non-threshold behaviour (e.g. Pushout).  The switch calls the ``on_*``
    hooks so that schemes needing history (e.g. ABM's drain-rate term) can
    maintain it.

    The scheme is attached to a switch with :meth:`attach`; afterwards
    ``self.switch`` exposes the buffer size, occupancy and queue views.
    """

    #: Human-readable scheme name (used by the registry and experiment output).
    name: str = "base"

    #: Whether the scheme may evict already-accepted packets on admission
    #: (Pushout-style preemption coupled to the enqueue path).
    preemptive_admission: bool = False

    #: Whether the scheme drives the switch's expulsion engine (Occamy-style
    #: decoupled preemption on the egress side).  Precondition: the scheme's
    #: threshold must be monotone in the buffer state -- dequeues, drops and
    #: head drops never shorten any queue's threshold.  DT-family thresholds
    #: ``T(t) = alpha * (B - Q(t))`` qualify: only an admission (or an alpha
    #: change) can then create an over-allocated queue, which is what lets
    #: the switch skip the engine after dequeues and drops while
    #: :attr:`~repro.core.expulsion.ExpulsionEngine.pending` is clear.
    uses_expulsion_engine: bool = False

    def __init__(self) -> None:
        self.switch: Optional["SharedMemorySwitch"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, switch: "SharedMemorySwitch") -> None:
        """Bind the scheme to a switch.  Called once by the switch."""
        self.switch = switch

    def detach(self) -> None:
        """Unbind from the switch (mainly useful in tests)."""
        self.switch = None

    # ------------------------------------------------------------------
    # Core policy
    # ------------------------------------------------------------------
    def threshold(self, queue: QueueView, now: float) -> float:
        """Return the maximum queue length (bytes) allowed for ``queue``.

        ``math.inf`` means the queue is unrestricted (complete sharing).
        """
        raise NotImplementedError

    def admit(self, queue: QueueView, packet_bytes: int, now: float) -> AdmissionDecision:
        """Decide whether an arriving ``packet_bytes``-byte packet is accepted.

        The default implementation admits iff both (a) the packet fits in the
        free buffer and (b) the queue would not exceed :meth:`threshold`.
        """
        switch = self._require_switch()
        if packet_bytes > switch.free_buffer_bytes:
            return AdmissionDecision(False, reason="buffer_full")
        limit = self.threshold(queue, now)
        if queue.length_bytes + packet_bytes > limit:
            return AdmissionDecision(False, reason="over_threshold")
        return ACCEPT

    def over_allocated(self, queue: QueueView, now: float) -> bool:
        """Whether ``queue`` currently holds more than its fair threshold.

        Used by the Occamy expulsion engine to build its bitmap; other schemes
        inherit the same definition for instrumentation purposes.
        """
        return queue.length_bytes > self.threshold(queue, now)

    def over_allocated_flags(self, queues: Sequence[QueueView],
                             now: float) -> List[bool]:
        """Per-queue over-allocation flags, in queue order.

        The expulsion engine rebuilds this bitmap once per head-drop attempt,
        and only after :meth:`any_over_allocated` has found at least one
        over-allocated queue; schemes whose threshold shares work across
        queues (DT's free-buffer term) override it to hoist that work out of
        the per-queue loop.
        """
        return [queue.length_bytes > self.threshold(queue, now)
                for queue in queues]

    def any_over_allocated(self, queues: Sequence[QueueView],
                           now: float) -> bool:
        """Whether any of ``queues`` is over-allocated right now.

        The expulsion engine asks this before it builds a bitmap, so an idle
        engine costs one call.  Schemes with a cheaper sufficient test (DT's
        occupancy guard) override it; the answer must always equal
        ``any(self.over_allocated_flags(queues, now))``.
        """
        return any(self.over_allocated_flags(queues, now))

    # ------------------------------------------------------------------
    # Bookkeeping hooks (no-ops by default)
    # ------------------------------------------------------------------
    def on_enqueue(self, queue: QueueView, packet_bytes: int, now: float) -> None:
        """Called after a packet has been enqueued."""

    def on_dequeue(self, queue: QueueView, packet_bytes: int, now: float) -> None:
        """Called after a packet has been dequeued for transmission."""

    def on_drop(self, queue: QueueView, packet_bytes: int, now: float, reason: str) -> None:
        """Called after a packet has been dropped (admission or expulsion)."""

    def on_port_rate_changed(self, port_id: int, rate_bps: float) -> None:
        """Called when an egress port's line rate is retuned after attach.

        The fabric layer retunes ports when a link with its own rate (or a
        degradation factor) is wired to them; schemes that cache port rates
        at attach time (ABM) refresh their cache here.
        """

    def reset(self) -> None:
        """Clear any internal state (called when the switch resets)."""

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _require_switch(self) -> "SharedMemorySwitch":
        if self.switch is None:
            raise RuntimeError(
                f"buffer manager {self.name!r} is not attached to a switch"
            )
        return self.switch

    def effective_alpha(self, queue: QueueView, default_alpha: float) -> float:
        """Per-queue alpha override falling back to the scheme default."""
        override = queue.alpha_override
        return default_alpha if override is None else override

    def describe(self) -> str:
        """One-line human-readable description used in experiment output."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.describe()}>"


def clamp_threshold(value: float) -> float:
    """Clamp a computed threshold into ``[0, inf)`` (free buffer can be 0)."""
    if value < 0:
        return 0.0
    if math.isnan(value):
        return 0.0
    return value
