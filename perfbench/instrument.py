"""Measurement wrappers installed around the public entry points of ``repro``.

Two levels, both installed from this file before any scenario is built:

* :func:`install_probes` -- always on.  Two per-run wrappers: the first
  ``Simulator.run`` entry of a process stamps the set-up boundary, and every
  ``ScenarioRunner.run`` appends one record of public counters (packet
  conservation, switch arrivals, flow slowdowns, layer counts) to a
  ``probes.jsonl`` file.  Both cost one call per scenario, never per packet.
* :class:`Tracer` -- the traced run only.  Wraps each layer boundary listed
  in :data:`BOUNDARIES`.  Per-packet boundaries aggregate in memory as
  ``[count, total_ns, self_ns]``; coarse ones also keep a span list
  ``(name, start_ns, end_ns, parent)``.  A boundary's self time is its time
  minus the time of the wrapped calls made inside it.  Each process writes
  its aggregate to ``trace-<pid>.json`` when it ends (pool workers through a
  multiprocessing finalizer), and :func:`layer_metrics` merges them.

Wrappers go on the class whose ``__dict__`` defines the method.  That keeps
``type(obj).method is Base.method`` identity tests (the switch's
``on_enqueue``/``on_dequeue`` hook elision) answering as they do untraced;
the benchmark also checks that the traced result digest equals the untraced
one.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

CLOCK = time.CLOCK_MONOTONIC
#: Pool workers of the campaign_sweep workload (the campaign CLI's --jobs).
CAMPAIGN_JOBS = 2


def now() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(CLOCK)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ----------------------------------------------------------------------
# Layer map
# ----------------------------------------------------------------------
#: Every ``repro`` package or module on a workload's path, by layer.  The
#: longest dotted prefix wins.
LAYER_OF: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.switchsim": "switchsim",
    "repro.core": "core",
    "repro.netsim": "netsim",
    "repro.lb": "netsim",
    "repro.metrics": "netsim",
    "repro.netsim.transport": "transport",
    "repro.scenario": "scenario",
    "repro.topology": "topology",
    "repro.workloads": "workloads",
    "repro.telemetry": "telemetry",
    "repro.campaign": "campaign",
    "repro.analysis": "analysis",
}

#: Packages and modules outside every workload's path, with the reason.
OUTSIDE: Dict[str, str] = {
    "repro.farm": "remote/subprocess dispatch; campaign_sweep uses the "
                  "local --jobs pool (the farm baseline is in context.json)",
    "repro.hw": "analytical hardware-cost models; no simulation calls them",
    "repro.experiments": "figure harnesses; the campaign only borrows its "
                         "runner registry and ExperimentResult container, "
                         "timed inside the campaign layer",
    "repro.perf": "the older per-case wall-time harness",
    "repro.sim.shard": "sharded executor; the engine stays at shards=1",
    "repro.netsim.partition": "fabric partitioner, used only by shards > 1",
    "repro.lb.registry": "non-default load balancers (flowlet, ...); every "
                         "workload uses the ecmp passthrough default",
}


def layer_of(module: str) -> Optional[str]:
    """The layer of a dotted module name, ``None`` if outside every path."""
    best = None
    for table, is_outside in ((LAYER_OF, False), (OUTSIDE, True)):
        for prefix in table:
            if module == prefix or module.startswith(prefix + "."):
                if best is None or len(prefix) > len(best[0]):
                    best = (prefix, is_outside)
    if best is None or best[1]:
        return None
    return LAYER_OF[best[0]]


# ----------------------------------------------------------------------
# Boundaries
# ----------------------------------------------------------------------
#: ``(name, module, class or None, attribute, per_packet, subclasses)``.
#: ``name``'s first dotted part is the layer.  ``subclasses`` also wraps
#: every subclass that overrides the attribute.  A ``class`` of ``None``
#: patches a module-level name (the namespace it is *called* through).
BOUNDARIES = [
    ("sim.run", "repro.sim.engine", "Simulator", "run", False, False),
    # Telemetry swaps this in per instance for ``run`` (live event counts).
    ("sim.run_counting", "repro.sim.engine", "Simulator", "_run_counting",
     False, False),
    ("switchsim.receive", "repro.switchsim.switch", "SharedMemorySwitch",
     "receive", True, False),
    ("switchsim.finish_transmit", "repro.switchsim.switch",
     "SharedMemorySwitch", "_finish_transmit", True, False),
    ("switchsim.head_drop", "repro.switchsim.switch", "SharedMemorySwitch",
     "head_drop", True, False),
    ("core.admit", "repro.core.base", "BufferManager", "admit", True, True),
    ("core.threshold", "repro.core.base", "BufferManager", "threshold",
     True, True),
    ("core.over_allocated", "repro.core.base", "BufferManager",
     "over_allocated_flags", True, True),
    ("core.expulsion", "repro.core.expulsion", "ExpulsionEngine", "run",
     True, False),
    ("netsim.link_transmit", "repro.netsim.link", "Link", "transmit",
     True, False),
    ("netsim.link_arrive", "repro.netsim.link", "Link", "_arrive",
     True, False),
    ("netsim.node_deliver", "repro.netsim.switch_node", "SwitchNode",
     "deliver", True, False),
    ("netsim.node_on_transmit", "repro.netsim.switch_node", "SwitchNode",
     "_on_transmit", True, False),
    ("netsim.host_deliver", "repro.netsim.host", "Host", "deliver",
     True, False),
    ("netsim.host_nic", "repro.netsim.host", "Host", "_finish_transmit",
     True, False),
    ("transport.on_ack", "repro.netsim.transport.base", "SenderTransport",
     "on_ack", True, True),
    ("transport.start", "repro.netsim.transport.base", "SenderTransport",
     "start", True, True),
    ("transport.rto", "repro.netsim.transport.base", "SenderTransport",
     "_on_rto", True, True),
    ("transport.on_data", "repro.netsim.transport.base", "ReceiverState",
     "on_data", True, True),
    ("telemetry.tick", "repro.telemetry.bus", "TelemetryBus", "_tick",
     True, False),
    ("scenario.run", "repro.scenario.runner", "ScenarioRunner", "run",
     False, False),
    ("scenario.validate", "repro.scenario.runner", "ScenarioRunner",
     "validate", False, False),
    ("topology.build", "repro.scenario.runner", None, "make_topology",
     False, False),
    ("workloads.generate", "repro.scenario.runner", None, "make_workload",
     False, False),
    ("scenario.inject", "repro.netsim.network", "Network", "inject_flows",
     False, False),
    ("scenario.document", "repro.scenario.runner", "ScenarioResult",
     "to_dict", False, False),
    ("scenario.document_result", "repro.scenario.runner", "ScenarioResult",
     "to_experiment_result", False, False),
    ("campaign.execute_run", "repro.campaign.executor", None, "execute_run",
     False, False),
    ("campaign.store_save", "repro.campaign.store", "ResultStore", "save",
     False, False),
    ("analysis.load", "repro.analysis.cli", None, "load_documents",
     False, False),
]

#: Coarse spans kept out of the layer shares: their self time is waiting
#: on worker processes, not work done by the layer.
WAITING = {"campaign.executor"}

ANALYSIS_COMMANDS = ("summary", "fct", "qlen", "compare")


def _subclasses(cls) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def import_path() -> None:
    """Import the ``repro`` modules the wrappers patch, in a safe order."""
    # repro.scenario first: it resolves the package import cycle the same
    # way the CLIs do.
    for name in ("repro.scenario.runner", "repro.core", "repro.core.abm",
                 "repro.core.pushout", "repro.core.static",
                 "repro.core.occamy", "repro.netsim.transport.factory"):
        importlib.import_module(name)


class Tracer:
    """In-memory span/aggregate recorder for one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.stack: List[int] = []  # child-time accumulator per open call
        self.span_stack: List[int] = []
        self.agg: Dict[str, List[int]] = {}
        self.spans: List[list] = []
        self.missing: List[str] = []

    # -- wrapping -------------------------------------------------------
    def wrap(self, name: str, fn, per_packet: bool):
        agg = self.agg.setdefault(name, [0, 0, 0])
        stack = self.stack
        clock = time.perf_counter_ns
        if per_packet:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                stack.append(0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - child
                    if stack:
                        stack[-1] += elapsed
            return hot

        spans = self.spans
        span_stack = self.span_stack

        @functools.wraps(fn)
        def coarse(*args, **kwargs):
            parent = span_stack[-1] if span_stack else -1
            record = [name, 0, 0, parent]
            spans.append(record)
            span_stack.append(len(spans) - 1)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                child = stack.pop()
                span_stack.pop()
                record[1], record[2] = start, end
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
        return coarse

    def install(self) -> None:
        """Wrap every boundary; call before any scenario is built."""
        import_path()
        for name, module_name, cls_name, attr, per_packet, subs in BOUNDARIES:
            module = importlib.import_module(module_name)
            if cls_name is None:
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr,
                        self.wrap(name, getattr(module, attr), per_packet))
                continue
            base = getattr(module, cls_name)
            targets = [base] + (_subclasses(base) if subs else [])
            defining = [cls for cls in targets if attr in cls.__dict__]
            if not defining:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
            for cls in defining:
                setattr(cls, attr,
                        self.wrap(name, cls.__dict__[attr], per_packet))
        self._wrap_executor()
        self._wrap_analysis_commands()
        self._after_fork_reset()

    def _wrap_executor(self) -> None:
        from repro.campaign.executor import CampaignExecutor

        CampaignExecutor.run = self.wrap(
            "campaign.executor", CampaignExecutor.__dict__["run"], False)

    def _wrap_analysis_commands(self) -> None:
        from repro.analysis import cli

        for command in ANALYSIS_COMMANDS:
            cli.COMMANDS[command] = self.wrap(
                f"analysis.{command}", cli.COMMANDS[command], False)

    def _after_fork_reset(self) -> None:
        """Forked pool workers start empty and dump when they exit."""
        from multiprocessing import util

        def reset(tracer: "Tracer") -> None:
            tracer.stack.clear()
            tracer.span_stack.clear()
            tracer.spans.clear()
            for cell in tracer.agg.values():
                cell[:] = [0, 0, 0]
            util.Finalize(None, tracer.dump, exitpriority=10)

        util.register_after_fork(self, reset)

    # -- output ---------------------------------------------------------
    def dump(self) -> None:
        doc = {"pid": os.getpid(), "agg": self.agg, "spans": self.spans,
               "missing": self.missing}
        path = self.out_dir / f"trace-{os.getpid()}.json"
        path.write_text(json.dumps(doc))


# ----------------------------------------------------------------------
# Always-on probes
# ----------------------------------------------------------------------
def _stamp_first_event(path: Path) -> None:
    """Record the first simulated event of the launch (first writer wins)."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return
    with os.fdopen(fd, "w") as stream:
        stream.write(repr(now()))


def install_probes(run_dir: Path) -> None:
    """Stamp the set-up boundary and record each run's public counters."""
    import_path()
    from repro.scenario.runner import ScenarioRunner
    from repro.sim.engine import Simulator

    run_dir = Path(run_dir)
    stamp_path = run_dir / "first_event"
    probe_path = run_dir / "probes.jsonl"
    state = {"stamped": False}

    def stamped(sim_run):
        @functools.wraps(sim_run)
        def stamped_run(self, *args, **kwargs):
            if not state["stamped"]:
                state["stamped"] = True
                _stamp_first_event(stamp_path)
            return sim_run(self, *args, **kwargs)
        return stamped_run

    # ``_run_counting`` replaces ``run`` per instance when telemetry is on.
    for attr in ("run", "_run_counting"):
        setattr(Simulator, attr, stamped(Simulator.__dict__[attr]))

    scenario_run = ScenarioRunner.__dict__["run"]

    @functools.wraps(scenario_run)
    def probed_run(self, spec, *args, **kwargs):
        result = scenario_run(self, spec, *args, **kwargs)
        line = json.dumps(harvest(result), sort_keys=True) + "\n"
        # One O_APPEND write per run: lines from pool workers never mix.
        fd = os.open(probe_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        return result

    ScenarioRunner.run = probed_run


def conservation_errors(switches: Sequence) -> List[str]:
    """Packet conservation per switch, read from public counters.

    ``arrived = admitted + dropped`` and ``admitted = transmitted + expelled
    + evicted + queued + in flight`` (a port whose ``tx_descriptor`` is set
    is serializing one packet when the run ends).
    """
    errors = []
    for index, switch in enumerate(switches):
        st = switch.stats
        queued = sum(q.length_packets for q in switch.queue_views())
        in_flight = sum(1 for port in switch.ports
                        if port.tx_descriptor is not None)
        if st.arrived_packets != st.admitted_packets + st.dropped_packets:
            errors.append(
                f"switch {index}: arrived {st.arrived_packets} != admitted "
                f"{st.admitted_packets} + dropped {st.dropped_packets}")
        left = (st.transmitted_packets + st.expelled_packets
                + st.evicted_packets + queued + in_flight)
        if st.admitted_packets != left:
            errors.append(
                f"switch {index}: admitted {st.admitted_packets} != "
                f"transmitted {st.transmitted_packets} + expelled "
                f"{st.expelled_packets} + evicted {st.evicted_packets} + "
                f"queued {queued} + in flight {in_flight}")
    return errors


def harvest(result) -> Dict[str, object]:
    """Public counters of one finished run (one probe record)."""
    switches = result.switches()
    stats = [s.stats for s in switches]
    record: Dict[str, object] = {
        "conservation_errors": conservation_errors(switches),
        "events": result.events_executed,
        "packets": sum(s.arrived_packets for s in stats),
        "admitted": sum(s.admitted_packets for s in stats),
        "dropped": sum(s.dropped_packets for s in stats),
        "transmitted": sum(s.transmitted_packets for s in stats),
        "expelled": sum(s.expelled_packets for s in stats),
        "ecn_marks": sum(s.ecn_marked_packets for s in stats),
        "tokens_forward_cells": 0.0,
        "tokens_expel_cells": 0.0,
        "telemetry_ticks": (result.telemetry.ticks
                            if result.telemetry is not None else 0),
        "slowdowns": [],
        "flows": 0,
        "timeouts": 0,
        "link_transmits": 0,
    }
    for switch in switches:
        engine = switch.expulsion_engine
        if engine is not None:
            record["tokens_forward_cells"] += (
                engine.token_bucket.forward_cells_consumed)
            record["tokens_expel_cells"] += (
                engine.token_bucket.expel_cells_consumed)
    network = getattr(result.topology, "network", None)
    if network is not None:
        record["timeouts"] = network.total_timeouts()
        record["flows"] = len(network.injected_flows)
        record["link_transmits"] = sum(
            fabric_link.link.packets_carried
            for fabric_link in network.links.values())
    if result.flow_stats is not None:
        record["slowdowns"] = result.flow_stats.fct_slowdowns()
    return record


def read_probes(run_dir: Path) -> List[Dict[str, object]]:
    path = Path(run_dir) / "probes.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


# ----------------------------------------------------------------------
# Per-layer metrics from a traced launch
# ----------------------------------------------------------------------
def merge_traces(trace_dir: Path) -> Dict[str, object]:
    agg: Dict[str, List[int]] = {}
    spans: List[list] = []
    missing: set = set()
    for path in sorted(Path(trace_dir).glob("trace-*.json")):
        doc = json.loads(path.read_text())
        for name, cell in doc["agg"].items():
            total = agg.setdefault(name, [0, 0, 0])
            for i in range(3):
                total[i] += cell[i]
        spans.extend(doc["spans"])
        missing.update(doc["missing"])
    return {"agg": agg, "spans": spans, "missing": sorted(missing)}


#: Layers whose self time makes up the share table, in print order.
SHARE_LAYERS = ("sim", "switchsim", "core", "netsim", "transport",
                "telemetry", "setup", "campaign", "analysis")
_SETUP_PARTS = ("scenario", "topology", "workloads")


def metric_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "share"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ns_per_packet"):
        return "ns"
    if name.endswith(("_yield", "_per_packet")) or name.startswith(
            "fct.slowdown"):
        return "ratio"
    if name.endswith("_cells"):
        return "cells"
    return "count"


def _share_layer(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "setup" if layer in _SETUP_PARTS else layer


def layer_metrics(trace: Dict[str, object], probes: List[Dict[str, object]],
                  context: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced launch.

    ``trace`` is :func:`merge_traces` output, ``probes`` the launch's probe
    records and ``context`` the values measured around the launch (import
    time, document bytes, store contents, the traced/untraced wall ratio).
    """
    agg = trace["agg"]

    def count(name: str) -> int:
        return agg.get(name, [0, 0, 0])[0]

    def total_s(*names: str) -> float:
        return sum(agg.get(n, [0, 0, 0])[1] for n in names) / 1e9

    def self_s(*names: str) -> float:
        return sum(agg.get(n, [0, 0, 0])[2] for n in names) / 1e9

    def layer_self(layer: str) -> float:
        return self_s(*[n for n in agg
                        if _share_layer(n) == layer and n not in WAITING])

    def probe_sum(key: str) -> float:
        return sum(p[key] for p in probes)

    packets = probe_sum("packets")
    slowdowns = [x for p in probes for x in p["slowdowns"]]
    events = probe_sum("events")
    expulsion_runs = count("core.expulsion")
    runs = context.get("runs", len(probes))
    executor_wall = total_s("campaign.executor")
    elapsed = context.get("run_elapsed_s", 0.0)
    jobs = context.get("jobs", 1)
    metrics = {
        "sim.events": events,
        "sim.events_per_packet": events / packets if packets else 0.0,
        "sim.self_s": layer_self("sim"),
        "switchsim.packets": packets,
        "switchsim.admitted": probe_sum("admitted"),
        "switchsim.dropped": probe_sum("dropped"),
        "switchsim.transmitted": probe_sum("transmitted"),
        "switchsim.self_s": layer_self("switchsim"),
        "switchsim.ns_per_packet": (layer_self("switchsim") * 1e9 / packets
                                    if packets else 0.0),
        "core.admit_calls": count("core.admit"),
        "core.admit_self_s": self_s("core.admit"),
        "core.threshold_calls": count("core.threshold"),
        "core.over_allocated_calls": count("core.over_allocated"),
        "core.over_allocated_self_s": self_s("core.over_allocated"),
        "core.expulsion_runs": expulsion_runs,
        "core.expulsion_self_s": self_s("core.expulsion"),
        "core.expelled_packets": probe_sum("expelled"),
        "core.expel_yield": (probe_sum("expelled") / expulsion_runs
                             if expulsion_runs else 0.0),
        "core.tokens_forward_cells": probe_sum("tokens_forward_cells"),
        "core.tokens_expel_cells": probe_sum("tokens_expel_cells"),
        "netsim.link_transmits": probe_sum("link_transmits"),
        "netsim.link_self_s": self_s("netsim.link_transmit",
                                     "netsim.link_arrive"),
        "netsim.node_deliver_self_s": self_s("netsim.node_deliver"),
        "netsim.host_deliver_self_s": self_s("netsim.host_deliver"),
        "netsim.self_s": layer_self("netsim"),
        "transport.acks": count("transport.on_ack"),
        "transport.self_s": layer_self("transport"),
        "transport.timeouts": probe_sum("timeouts"),
        "transport.ecn_marks": probe_sum("ecn_marks"),
        "proc.import_s": context.get("import_s", 0.0),
        "scenario.validate_s": total_s("scenario.validate"),
        "topology.build_s": total_s("topology.build"),
        "workloads.generate_s": total_s("workloads.generate"),
        "workloads.flows": probe_sum("flows"),
        "scenario.inject_s": total_s("scenario.inject"),
        "scenario.document_s": (total_s("scenario.document",
                                        "scenario.document_result")
                                + context.get("document_encode_s", 0.0)),
        "scenario.document_bytes": (context.get("document_bytes", 0.0) / runs
                                    if runs else 0.0),
        "telemetry.ticks": probe_sum("telemetry_ticks"),
        "telemetry.self_s": layer_self("telemetry"),
        "campaign.runs": context.get("campaign_runs", 0),
        "campaign.failed_runs": context.get("campaign_failed_runs", 0),
        "campaign.run_elapsed_s": elapsed,
        "campaign.dispatch_overhead_s": (executor_wall - elapsed / jobs
                                         if executor_wall else 0.0),
        "campaign.worker_busy_share": (elapsed / (jobs * executor_wall)
                                       if executor_wall else 0.0),
        "campaign.store_save_s": total_s("campaign.store_save"),
        "campaign.store_bytes": context.get("store_bytes", 0),
        "analysis.documents": context.get("analysis_documents", 0),
        "analysis.load_s": total_s("analysis.load"),
    }
    for command in ANALYSIS_COMMANDS:
        metrics[f"analysis.{command}_s"] = total_s(f"analysis.{command}")
    # Simulated outcome of the traced launch; equal to the untraced one
    # (the benchmark checks the result digests match).
    metrics["fct.flows"] = len(slowdowns)
    metrics["fct.slowdown_p50"] = (percentile(slowdowns, 50.0)
                                   if slowdowns else 0.0)
    metrics["fct.slowdown_tail"] = (
        percentile(slowdowns, context["tail_percentile"])
        if slowdowns else 0.0)
    shares = {layer: layer_self(layer) for layer in SHARE_LAYERS}
    attributed = sum(shares.values())
    for layer, value in shares.items():
        metrics[f"{layer}.share"] = value / attributed if attributed else 0.0
    metrics["trace.overhead_share"] = context["overhead_share"]
    return metrics
