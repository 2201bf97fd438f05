"""The expulsion engine as driven by the switch: when it runs, and that
skipping the idle runs changes nothing.

The switch enters the engine after an admission only when the buffer
manager reports an over-allocated queue, and after dequeues and drops only
while ``ExpulsionEngine.pending`` is set.  The oracle below enters the full
head-drop loop on every call, as the engine did before those shortcuts; the
differential property requires the two to agree on every counter.
"""

from hypothesis import given, settings, strategies as st

from repro.core import Occamy
from repro.core.expulsion import ExpulsionEngine, TokenBucket
from repro.scenario import ScenarioRunner, ScenarioSpec
from repro.sim import Simulator
from repro.sim.units import GBPS, KB
from repro.switchsim import Packet, SharedMemorySwitch, SwitchConfig


def make_switch(manager, num_ports=2, queues_per_port=1, buffer_bytes=30 * KB,
                token_capacity_bytes=64 * KB, trace_queues=False):
    sim = Simulator()
    config = SwitchConfig(
        num_ports=num_ports,
        queues_per_port=queues_per_port,
        port_rate_bps=10 * GBPS,
        buffer_bytes=buffer_bytes,
        expulsion_token_capacity_bytes=token_capacity_bytes,
        trace_queues=trace_queues,
    )
    return SharedMemorySwitch(config, manager, sim), sim


class _EveryCallEngine(ExpulsionEngine):
    """Oracle engine: always pending, so every call site runs it."""

    pending = property(lambda self: True, lambda self, value: None)


def make_oracle(switch):
    """Turn ``switch`` into the every-call oracle (test-local patch)."""
    switch.expulsion_engine.__class__ = _EveryCallEngine
    # The run's entry check always passes, so each run builds the bitmap.
    switch.manager.any_over_allocated = lambda queues, now: True
    return switch


def snapshot(switch):
    engine = switch.expulsion_engine
    bucket = engine.token_bucket
    return {
        "stats": dict(vars(switch.stats)),
        "queues": [(q.length_bytes, q.length_packets, q.dequeued_packets,
                    q.dropped_packets, q.expelled_packets)
                   for q in switch.queue_views()],
        "bucket": (bucket._tokens, bucket._last_update,
                   bucket.forward_cells_consumed, bucket.expel_cells_consumed),
        "pointer": engine.selector.arbiter.pointer,
        "engine": (engine.total_expelled_packets, engine.total_expelled_bytes),
        "occupancy": switch.occupancy_bytes,
        "clock": (switch.sim.now, switch.sim.pending_events),
        "retry": switch._expulsion_retry_event is None,
    }


def over_allocated(switch):
    views = switch.queue_views()
    flags = switch.manager.over_allocated_flags(views, switch.sim.now)
    return [view.queue_id for view, flag in zip(views, flags, strict=True) if flag]


# ----------------------------------------------------------------------
# Differential property: gated engine == every-call oracle
# ----------------------------------------------------------------------
NUM_PORTS = 3
QUEUES_PER_PORT = 2
NUM_QUEUES = NUM_PORTS * QUEUES_PER_PORT
ALPHAS = st.sampled_from([None, 4.0, 1.0, 0.5, 0.0, -1.0])

OPS = st.lists(
    st.one_of(
        # A burst of back-to-back arrivals at one queue.
        st.tuples(st.just("receive"), st.integers(1, 12),
                  st.integers(64, 3000), st.integers(0, NUM_PORTS - 1),
                  st.integers(0, QUEUES_PER_PORT - 1)),
        st.tuples(st.just("advance"), st.integers(0, 4000)),
        st.tuples(st.just("head_drop"), st.integers(0, NUM_QUEUES - 1)),
        st.tuples(st.just("alpha"), st.integers(0, NUM_QUEUES - 1), ALPHAS),
    ),
    min_size=1, max_size=80,
)


def apply(switch, sim, op):
    kind = op[0]
    if kind == "receive":
        _, count, size, port, cls = op
        for _ in range(count):
            switch.receive(Packet(size_bytes=size), port, class_index=cls)
    elif kind == "advance":
        sim.run(until=sim.now + op[1] * 1e-9)
    elif kind == "head_drop":
        switch.head_drop(op[1])
    else:
        switch.queue(op[1]).alpha_override = op[2]


@given(
    victim_policy=st.sampled_from(["round_robin", "longest"]),
    alpha=st.sampled_from([1.0, 8.0]),
    max_drops=st.sampled_from([1, 2, 64]),
    token_capacity_bytes=st.sampled_from([1600, 4000, 64 * KB]),
    initial_overrides=st.lists(st.tuples(st.integers(0, NUM_QUEUES - 1), ALPHAS),
                               max_size=4),
    ops=OPS,
)
@settings(max_examples=80, deadline=None)
def test_gated_engine_matches_every_call_oracle(victim_policy, alpha, max_drops,
                                                token_capacity_bytes,
                                                initial_overrides, ops):
    def build():
        manager = Occamy(alpha=alpha, victim_policy=victim_policy,
                         max_drops_per_run=max_drops)
        switch, sim = make_switch(manager, num_ports=NUM_PORTS,
                                  queues_per_port=QUEUES_PER_PORT,
                                  buffer_bytes=24 * KB,
                                  token_capacity_bytes=token_capacity_bytes,
                                  trace_queues=True)
        # Overrides are set after construction, as the scenario runner does.
        for queue_id, value in initial_overrides:
            switch.queue(queue_id).alpha_override = value
        return switch, sim

    gated, gated_sim = build()
    oracle, oracle_sim = build()
    make_oracle(oracle)
    for op in ops + [("advance", 10**6)]:
        apply(gated, gated_sim, op)
        apply(oracle, oracle_sim, op)
        assert snapshot(gated) == snapshot(oracle), op
        # A clear pending flag is a promise that no queue is over-allocated.
        if not gated.expulsion_engine.pending:
            assert over_allocated(gated) == []


# ----------------------------------------------------------------------
# Deferred expulsions: token blocking, the retry event, the per-run cap
# ----------------------------------------------------------------------
def _over_allocate_queue0(switch, packets=10):
    """Fill queue 0 at t=0, then drop its alpha so it is over-allocated."""
    for _ in range(packets):
        assert switch.receive(Packet(size_bytes=1500), 0)
    engine = switch.expulsion_engine
    assert not engine.pending
    switch.queue_for(0).alpha_override = 0.0
    assert engine.pending
    assert over_allocated(switch) == [0]
    return engine


class TestDeferredExpulsion:
    def test_blocked_run_keeps_pending_and_retry_expels(self):
        # 15 cells of burst capacity: an 8-cell packet fits once refilled.
        switch, sim = make_switch(Occamy(alpha=8.0), token_capacity_bytes=3000)
        engine = _over_allocate_queue0(switch)
        bucket = engine.token_bucket
        bucket.consume_forwarding(bucket.available(0.0), 0.0)
        runs = []
        original_run = engine.run
        engine.run = lambda now: runs.append(now) or original_run(now)

        # An arrival drop on queue 0 runs the engine because it is pending;
        # the run is blocked on tokens, so it schedules the retry event.
        assert not switch.receive(Packet(size_bytes=1500), 0)
        assert len(runs) == 1
        assert engine.pending
        assert switch.stats.expelled_packets == 0
        retry = switch._expulsion_retry_event
        assert retry is not None
        assert retry.time > 0.0

        # The retry fires before the first transmission completes (1.2 us),
        # so the head drop it performs is not a dequeue-triggered one.
        sim.run(until=1.0e-6)
        assert switch.stats.transmitted_packets == 0
        assert switch.stats.expelled_packets >= 1
        assert runs[1] == retry.time
        assert engine.pending

        sim.run()
        assert switch.queue_for(0).length_bytes == 0
        assert not engine.pending
        assert switch.stats.arrived_packets == (
            switch.stats.transmitted_packets + switch.stats.dropped_packets
            + switch.stats.expelled_packets)

    def test_max_drops_cap_defers_to_next_dequeue(self):
        switch, sim = make_switch(Occamy(alpha=8.0, max_drops_per_run=1))
        engine = _over_allocate_queue0(switch)

        assert not switch.receive(Packet(size_bytes=1500), 0)
        assert switch.stats.expelled_packets == 1
        # Stopped by the cap, not by tokens: still pending, no retry event.
        assert engine.pending
        assert switch._expulsion_retry_event is None

        # The next dequeue (first transmission ends at 1.2 us) runs the
        # engine again and performs the next deferred head drop.
        sim.run(until=1.3e-6)
        assert switch.stats.transmitted_packets == 1
        assert switch.stats.expelled_packets == 2
        assert engine.pending

        sim.run()
        assert switch.queue_for(0).length_bytes == 0
        assert not engine.pending

    def test_dequeues_skip_the_engine_while_not_pending(self):
        switch, sim = make_switch(Occamy(alpha=8.0))
        for _ in range(10):
            switch.receive(Packet(size_bytes=1500), 0)
        engine = switch.expulsion_engine
        runs = []
        engine.run = lambda now: runs.append(now)
        sim.run()
        assert switch.stats.transmitted_packets == 10
        assert runs == []
        assert not engine.pending

    def test_alpha_override_updates_switch_minimum(self):
        switch, _ = make_switch(Occamy(alpha=8.0), queues_per_port=2)
        assert switch.min_alpha_override == float("inf")
        switch.queue_for(1, 1).alpha_override = 2.0
        switch.queue_for(0, 0).alpha_override = -1.0
        assert switch.min_alpha_override == -1.0
        switch.queue_for(0, 0).alpha_override = None
        assert switch.min_alpha_override == 2.0


# ----------------------------------------------------------------------
# Mechanism invariant on a real incast run (ROADMAP aim 3)
# ----------------------------------------------------------------------
INCAST_SPEC = {
    "name": "expulsion_invariant_incast",
    "duration": 0.003,
    "run_slack": 2.0,
    "seed": 1,
    "scheme": {"name": "occamy", "kwargs": {"alpha": 8.0}},
    "topology": {
        "kind": "single_switch",
        "params": {
            "num_hosts": 8,
            "link_rate_bps": 10_000_000_000,
            "buffer_kb_per_port_per_gbps": 5.12,
            "queues_per_port": 1,
            "scheduler": "fifo",
            "ecn_threshold_bytes": 97500,
        },
    },
    "transport": {"protocol": "dctcp", "config": {"min_rto": 0.002}},
    "workloads": [
        {"kind": "incast", "rng_label": "query", "transport": "dctcp",
         "params": {"arrival": "poisson", "fanout": 14, "priority": 0,
                    "queries_per_second": 2000.0,
                    "query_size_bytes": 1258290}},
        {"kind": "websearch", "rng_label": "bg", "transport": "dctcp",
         "params": {"load": 0.7, "load_scope": "aggregate", "priority": 0}},
    ],
}


def test_expulsions_hit_only_over_threshold_queues_and_spare_tokens(monkeypatch):
    drops = []
    grants = []
    original_head_drop = SharedMemorySwitch.head_drop
    original_consume = TokenBucket.try_consume_expulsion

    def checked_head_drop(self, queue_id, now=None):
        queue = self.queue(queue_id)
        override = queue.alpha_override
        alpha = self.manager.alpha if override is None else override
        limit = max(0.0, alpha * self.free_buffer_bytes)
        drops.append((queue.length_bytes, limit))
        return original_head_drop(self, queue_id, now)

    def checked_consume(self, cells, now):
        granted = original_consume(self, cells, now)
        if granted:
            grants.append(self._tokens)
        return granted

    monkeypatch.setattr(SharedMemorySwitch, "head_drop", checked_head_drop)
    monkeypatch.setattr(TokenBucket, "try_consume_expulsion", checked_consume)
    result = ScenarioRunner().run(ScenarioSpec.from_dict(INCAST_SPEC))

    assert drops, "the scenario must exercise the expulsion engine"
    assert result.to_dict()  # the run completed into a document
    for length, limit in drops:
        assert length > limit
    # Every head drop was paid for by exactly one expulsion grant, and no
    # grant drove the bucket below zero (forwarding alone may).
    assert len(grants) == len(drops)
    assert min(grants) >= -1e-9
