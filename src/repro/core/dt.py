"""Dynamic Threshold (DT) -- the de facto non-preemptive buffer manager.

DT (Choudhury & Hahne, ToN 1998) limits every queue to a threshold that is
proportional to the *free* buffer::

    T(t) = alpha * (B - sum_i q_i(t))

A larger ``alpha`` lets a queue absorb more of the buffer (higher efficiency)
but reserves less headroom for newly active queues (lower agility/fairness).
In the steady state with ``N`` congested queues the reserved free buffer is
``B / (1 + alpha * N)`` (Eq. 2 of the paper).
"""

from __future__ import annotations

from repro.core.base import ACCEPT, AdmissionDecision, BufferManager, QueueView


class DynamicThreshold(BufferManager):
    """The Dynamic Threshold scheme with a per-queue overridable ``alpha``."""

    name = "dt"

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha

    def threshold(self, queue: QueueView, now: float) -> float:
        # Hot path: effective_alpha/clamp_threshold inlined.  The constructor
        # guarantees alpha > 0, but a per-queue alpha_override may be
        # non-positive, so the product still clamps at zero.
        switch = self.switch
        if switch is None:
            self._require_switch()
        override = queue.alpha_override
        alpha = self.alpha if override is None else override
        value = alpha * switch.free_buffer_bytes
        return value if value > 0.0 else 0.0

    def admit(self, queue: QueueView, packet_bytes: int, now: float) -> AdmissionDecision:
        # Same decision as the base implementation, but the free buffer is
        # read once and shared between the fit check and the threshold.
        switch = self.switch
        if switch is None:
            self._require_switch()
        free = switch.cell_pool.free_bytes
        if packet_bytes > free:
            return AdmissionDecision(False, reason="buffer_full")
        override = queue.alpha_override
        alpha = self.alpha if override is None else override
        limit = alpha * free
        if limit < 0.0:
            limit = 0.0
        if queue.length_bytes + packet_bytes > limit:
            return AdmissionDecision(False, reason="over_threshold")
        return ACCEPT

    def over_allocated(self, queue: QueueView, now: float) -> bool:
        # length_bytes >= 0, so comparing against the unclamped product is
        # equivalent to comparing against the clamped threshold only when the
        # product is non-negative; clamp explicitly for negative overrides.
        switch = self.switch
        if switch is None:
            self._require_switch()
        override = queue.alpha_override
        alpha = self.alpha if override is None else override
        limit = alpha * switch.cell_pool.free_bytes
        return queue.length_bytes > (limit if limit > 0.0 else 0.0)

    def over_allocated_flags(self, queues, now: float):
        # The free-buffer term is shared by every queue; read it once.
        switch = self.switch
        if switch is None:
            self._require_switch()
        free = switch.cell_pool.free_bytes
        default_alpha = self.alpha
        flags = []
        for queue in queues:
            override = queue.alpha_override
            alpha = default_alpha if override is None else override
            limit = alpha * free
            flags.append(queue.length_bytes > (limit if limit > 0.0 else 0.0))
        return flags

    def any_over_allocated(self, queues, now: float) -> bool:
        # O(1) guard: a queue is over-allocated iff its length exceeds
        # max(0, alpha_q * free).  Every queue's length is at most the
        # cell-granular occupancy and alpha_q >= alpha_min (the scheme's
        # alpha or the switch's smallest override), so no queue can be
        # over-allocated while used <= alpha_min * free.  ``queues`` must
        # belong to the attached switch.
        switch = self.switch
        if switch is None:
            self._require_switch()
        pool = switch.cell_pool
        free = pool.free_bytes
        default_alpha = self.alpha
        alpha_min = switch.min_alpha_override
        if default_alpha < alpha_min:
            alpha_min = default_alpha
        if pool.used_bytes <= alpha_min * free:
            return False
        # Early-exit scan with the same comparison as over_allocated_flags;
        # an empty queue is never over-allocated.
        for queue in queues:
            length = queue.length_bytes
            if length:
                override = queue.alpha_override
                alpha = default_alpha if override is None else override
                limit = alpha * free
                if length > (limit if limit > 0.0 else 0.0):
                    return True
        return False

    # ------------------------------------------------------------------
    # Analytical helpers (used by experiments and tests)
    # ------------------------------------------------------------------
    def steady_state_free_buffer(self, n_congested: int, buffer_bytes: float) -> float:
        """Reserved free buffer with ``n_congested`` saturated queues (Eq. 2)."""
        if n_congested < 0:
            raise ValueError("number of congested queues cannot be negative")
        return buffer_bytes / (1.0 + self.alpha * n_congested)

    def steady_state_queue_length(self, n_congested: int, buffer_bytes: float) -> float:
        """Per-queue steady-state occupancy with ``n_congested`` saturated queues."""
        if n_congested <= 0:
            raise ValueError("need at least one congested queue")
        free = self.steady_state_free_buffer(n_congested, buffer_bytes)
        return self.alpha * free

    def describe(self) -> str:
        return f"dt(alpha={self.alpha})"
