"""The repo benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

Workloads (inputs frozen under ``perfbench/inputs/``, see ``inputs.py``):

* ``incast_occamy`` / ``fattree_k8`` -- one scenario per launch, each launch
  a fresh ``perfbench/launch.py scenario`` process.  A run covers
  ``SCENARIO_SEEDS[workload]`` scenario seeds derived from ``--seed`` and
  launches them round-robin until ``--seconds`` have passed (each seed at
  least once, the first at least twice).
* ``campaign_sweep`` -- a closed loop of 2 pool workers: the campaign CLI
  (``--jobs 2``, fresh store) over 200 runs, then ``repro.analysis summary``,
  ``fct``, ``qlen`` and ``compare``; repeated until ``--seconds`` have passed
  (at least twice).

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics; with ``--trace 1`` a traced launch (layer wrappers from
``instrument.py``) follows untraced ones and the per-layer metrics are
printed instead.  Lines before it are a human-readable report.  Every launch
is checked (exit status, packet conservation per switch, identical result
digest across repetitions of one seed, every campaign run ``ok``, every
analysis command exits 0 with output); a failed check counts in ``failed``.
Scratch files live in ``.perfbench_work/`` under the repository root and are
removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import instrument  # noqa: E402
from inputs import load_input, seeded_spec  # noqa: E402

WORKLOADS = ("incast_occamy", "fattree_k8", "campaign_sweep")
#: Scenario seeds per run of a single-scenario workload: the traffic volume
#: of one seed varies several-fold, so a run pools several.
SCENARIO_SEEDS = {"incast_occamy": 6, "fattree_k8": 4}
#: Tail percentile of the pooled flow slowdowns, fixed per workload so the
#: metric means the same thing on every seed (>= 10 flows beyond it).
TAIL_PERCENTILE = {"incast_occamy": 99.0, "fattree_k8": 90.0,
                   "campaign_sweep": 95.0}
ANALYSIS_ARGS = (
    ("summary",),
    ("fct",),
    ("qlen",),
    ("compare", "--metric", "avg_fct_slowdown", "--baseline", "dt"),
)
#: Whole invocation must end well inside 180 s.
HARD_LIMIT_S = 150.0

E2E_UNITS = {
    "run_packets_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Small statistics helpers
# ----------------------------------------------------------------------
def tail_summary(values: List[float]) -> str:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} (n={n})"
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100.0) >= 10:
            return text + f", p{pct:g} {instrument.percentile(values, pct):.6g}"
    return text + ", no percentile has 10 samples beyond it"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Launching
# ----------------------------------------------------------------------
class Bench:
    """State of one benchmark invocation: work dir, clock, op counters."""

    def __init__(self, work: Path, seconds: float) -> None:
        self.work = work
        self.start = instrument.now()
        self.deadline = self.start + seconds
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._launches = 0
        tmp = work / "tmp"
        tmp.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(tmp)

    def elapsed(self) -> float:
        return instrument.now() - self.start

    def time_left(self) -> float:
        return HARD_LIMIT_S - self.elapsed()

    def op(self, ok: bool, message: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def new_run_dir(self) -> Path:
        self._launches += 1
        run_dir = self.work / f"launch-{self._launches}"
        run_dir.mkdir()
        return run_dir

    def execute(self, argv: List[str], run_dir: Path, tag: str):
        """Run one process to its end: ``(status, t0, t1)``.

        ``status`` is ``None`` when the process was killed at the time limit.
        """
        t0 = instrument.now()
        with open(run_dir / f"{tag}.out", "wb") as out, \
                open(run_dir / f"{tag}.err", "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                status: Optional[int] = proc.wait(
                    timeout=max(5.0, self.time_left()))
            except subprocess.TimeoutExpired:
                status = None
            finally:
                if proc.returncode is None:  # timed out or interrupted
                    proc.kill()
                    proc.wait()
        return status, t0, instrument.now()


def _launch_cmd(*args: str) -> List[str]:
    return [sys.executable, str(HERE / "launch.py"), *args]


def _first_event(run_dir: Path) -> Optional[float]:
    path = run_dir / "first_event"
    return float(path.read_text()) if path.exists() else None


def _error_tail(run_dir: Path, tag: str) -> str:
    path = run_dir / f"{tag}.err"
    text = path.read_text(errors="replace").strip() if path.exists() else ""
    return text.splitlines()[-1] if text else "no stderr"


# ----------------------------------------------------------------------
# Single-scenario workloads
# ----------------------------------------------------------------------
def scenario_launch(bench: Bench, spec_path: Path,
                    trace: bool = False) -> Dict[str, object]:
    """One scenario launch and its checks; the returned dict has ``ok``."""
    run_dir = bench.new_run_dir()
    argv = _launch_cmd("scenario", str(spec_path), str(run_dir))
    if trace:
        argv.append("--trace")
    status, t0, t1 = bench.execute(argv, run_dir, "launch")
    first = _first_event(run_dir)
    record: Dict[str, object] = {"ok": False, "run_dir": run_dir,
                                 "wall": t1 - t0}
    if status != 0 or first is None:
        record["error"] = (f"{spec_path.name}: exit {status}, "
                           f"{_error_tail(run_dir, 'launch')}")
        return record
    record["setup"] = first - t0
    probes = instrument.read_probes(run_dir)
    doc = run_dir / "doc.json"
    if len(probes) != 1 or not doc.exists():
        record["error"] = f"{spec_path.name}: no result document"
        return record
    errors = probes[0]["conservation_errors"]
    if errors:
        record["error"] = f"{spec_path.name}: " + "; ".join(errors)
        return record
    meta = json.loads((run_dir / "meta.json").read_text())
    record.update(ok=True, probe=probes[0], meta=meta,
                  digest=sha256_file(doc), rss_kb=meta["rss_kb"])
    return record


def bench_scenario(bench: Bench, workload: str, seed: int,
                   trace: bool) -> Dict[str, object]:
    document = load_input(workload)
    count = SCENARIO_SEEDS[workload]
    seeds = [seed * count + j for j in range(count)]
    spec_paths = {}
    for s in seeds:
        spec_paths[s] = bench.work / f"spec-{s}.json"
        spec_paths[s].write_text(json.dumps(seeded_spec(document, s)))
    if trace:
        # The traced launch reuses the first seed; untraced launches of the
        # same seed give the overhead baseline and the reference digest.
        seeds = seeds[:1]

    launches: Dict[int, List[Dict[str, object]]] = {s: [] for s in seeds}
    setups: List[float] = []
    digests: Dict[int, str] = {}
    index = 0
    while bench.time_left() > 0:
        s = seeds[index % len(seeds)]
        index += 1
        rec = scenario_launch(bench, spec_paths[s])
        if rec["ok"] and digests.setdefault(s, rec["digest"]) != rec["digest"]:
            rec.update(ok=False, error=f"seed {s}: result digest "
                       f"{rec['digest'][:16]} != {digests[s][:16]}")
        if bench.op(rec["ok"], rec.get("error", "")):
            launches[s].append(rec)
            setups.append(rec["setup"])
        shutil.rmtree(rec["run_dir"])
        if trace:
            # Untraced baseline: a third of the run, at least two launches.
            done = index >= 2 and bench.elapsed() >= (
                bench.deadline - bench.start) / 3
        else:
            done = (index >= len(seeds) + 1
                    and instrument.now() >= bench.deadline)
        if done:
            break
    ok_seeds = [s for s in seeds if launches[s]]
    result: Dict[str, object] = {"seeds": seeds, "digests": digests}
    if not ok_seeds or not setups:
        return result
    if trace:
        result["layers"] = traced_scenario(bench, workload,
                                           spec_paths[seeds[0]],
                                           launches[seeds[0]],
                                           digests.get(seeds[0]))
        return result

    # Every seed weighs the same: per-seed medians, then pooled.  The
    # throughput metric counts the run phase only (first simulated event to
    # exit): set-up is its own metric, and its fixed cost would otherwise
    # weigh more on light seeds than on heavy ones.
    walls = {s: statistics.median(r["wall"] for r in launches[s])
             for s in ok_seeds}
    runs = {s: statistics.median(r["wall"] - r["setup"] for r in launches[s])
            for s in ok_seeds}
    packets = {s: launches[s][0]["probe"]["packets"] for s in ok_seeds}
    slowdowns = [x for s in ok_seeds
                 for x in launches[s][0]["probe"]["slowdowns"]]
    all_walls = [r["wall"] for s in ok_seeds for r in launches[s]]
    rss = [r["rss_kb"] / 1024.0 for s in ok_seeds for r in launches[s]]
    result.update(
        packets=sum(packets.values()), walls=all_walls, setups=setups,
        packets_per_s=sum(packets.values()) / sum(walls.values()),
        slowdowns=slowdowns, rss=rss,
        metrics={
            "run_packets_per_s": sum(packets.values()) / sum(runs.values()),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        })
    return result


def traced_scenario(bench: Bench, workload: str, spec_path: Path,
                    untraced: List[Dict[str, object]],
                    reference: Optional[str]) -> Dict[str, float]:
    rec = scenario_launch(bench, spec_path, trace=True)
    if rec["ok"] and rec["digest"] != reference:
        rec.update(ok=False, error="traced result digest "
                   f"{rec['digest'][:16]} != untraced {str(reference)[:16]}")
    if not bench.op(rec["ok"], rec.get("error", "")) or not untraced:
        return {}
    trace = instrument.merge_traces(rec["run_dir"])
    meta = rec["meta"]
    baseline = statistics.median(r["wall"] for r in untraced)
    context = {
        "import_s": meta["import_s"],
        "document_encode_s": meta["document_encode_s"],
        "document_bytes": meta["document_bytes"],
        "overhead_share": rec["wall"] / baseline - 1.0,
        "tail_percentile": TAIL_PERCENTILE[workload],
    }
    _report_missing(trace)
    metrics = instrument.layer_metrics(trace, [rec["probe"]], context)
    shutil.rmtree(rec["run_dir"])
    return metrics


def _report_missing(trace: Dict[str, object]) -> None:
    if trace["missing"]:
        print("warning: boundaries not found (not traced): "
              + ", ".join(trace["missing"]))


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------
def store_digest(store: Path) -> Dict[str, object]:
    """Digest of the store's run documents minus host-time fields."""
    digest = hashlib.sha256()
    entries = []
    size = 0
    for path in sorted((store / "runs").glob("*.json")):
        size += path.stat().st_size
        entry = json.loads(path.read_text())
        entries.append(entry)
        for key in ("elapsed", "created_unix"):
            entry.pop(key, None)
        digest.update(json.dumps(entry, sort_keys=True).encode())
    return {"digest": digest.hexdigest(), "entries": entries, "bytes": size}


def campaign_rep(bench: Bench, sweep_path: Path, expected_runs: int,
                 trace: bool = False) -> Dict[str, object]:
    """One campaign + four analysis commands, with their checks."""
    run_dir = bench.new_run_dir()
    store = run_dir / "store"
    argv = _launch_cmd("campaign", str(sweep_path), str(run_dir),
                       "--store", str(store))
    if trace:
        argv.append("--trace")
    status, t0, _ = bench.execute(argv, run_dir, "campaign")
    campaign_status = status
    # The analysis commands run straight after the campaign; every check
    # below reads files only once the timed sequence has ended.
    outputs = []
    for args in ANALYSIS_ARGS:
        tag = f"analysis-{args[0]}"
        if trace:
            argv = _launch_cmd("analysis", str(run_dir), "--", args[0],
                               str(store), *args[1:])
        else:
            argv = [sys.executable, "-m", "repro.analysis", args[0],
                    str(store), *args[1:]]
        status, _, t1 = bench.execute(argv, run_dir, tag)
        outputs.append((args[0], status))
    rec: Dict[str, object] = {"ok": True, "run_dir": run_dir,
                              "wall": t1 - t0}

    first = _first_event(run_dir)
    probes = instrument.read_probes(run_dir)
    stored = store_digest(store) if (store / "runs").exists() else {
        "digest": "", "entries": [], "bytes": 0}
    ok_runs = sum(1 for e in stored["entries"] if e["status"] == "ok")
    bad_probes = [e for p in probes for e in p["conservation_errors"]]
    run_failures = max(expected_runs - ok_runs, len(bad_probes))
    for i in range(expected_runs):
        bench.op(i >= run_failures, f"campaign run failed (exit "
                 f"{campaign_status}, {ok_runs}/{expected_runs} ok, "
                 f"{'; '.join(bad_probes[:2]) or _error_tail(run_dir, 'campaign')})")
    if run_failures:
        rec["ok"] = False
    elif campaign_status != 0 or first is None:
        rec["ok"] = bench.op(False, f"campaign exit {campaign_status}, "
                             "first-event stamp "
                             f"{'missing' if first is None else 'ok'}")
    digest = hashlib.sha256(stored["digest"].encode())
    for command, status in outputs:
        tag = f"analysis-{command}"
        out = (run_dir / f"{tag}.out").read_bytes()
        ok = status == 0 and bool(out.strip())
        bench.op(ok, f"analysis {command}: exit {status}, "
                 f"{len(out)} bytes, {_error_tail(run_dir, tag)}")
        rec["ok"] = rec["ok"] and ok
        digest.update(out)
    rec.update(setup=(first - t0) if first is not None else None,
               digest=digest.hexdigest(), stored=stored, probes=probes)
    meta_path = run_dir / "meta.json"
    rec["meta"] = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return rec


def bench_campaign(bench: Bench, seed: int, trace: bool) -> Dict[str, object]:
    spec = seeded_spec(load_input("campaign_sweep"), seed)
    sweep_path = bench.work / "sweep.json"
    sweep_path.write_text(json.dumps(spec))
    grid = spec["grids"][0]
    expected = len(grid["seeds"]) * len(grid["axes"]["scheme"])
    reps: List[Dict[str, object]] = []
    digest = None
    while bench.time_left() > 0:
        rec = campaign_rep(bench, sweep_path, expected)
        if rec["ok"]:
            if digest is None:
                digest = rec["digest"]
            elif rec["digest"] != digest:
                rec["ok"] = bench.op(False, "campaign digest differs "
                                     "across repetitions of one seed")
            if rec["ok"]:
                reps.append(rec)
        shutil.rmtree(rec["run_dir"])
        if trace:
            done = len(reps) >= 2 and bench.elapsed() >= (
                bench.deadline - bench.start) / 3
        else:
            done = len(reps) >= 2 and instrument.now() >= bench.deadline
        if done:
            break
        if not rec["ok"] and not reps:
            break
    result: Dict[str, object] = {"seeds": [seed], "digests": {seed: digest}}
    if not reps:
        return result
    if trace:
        result["layers"] = traced_campaign(bench, sweep_path, expected,
                                           reps, digest)
        return result
    walls = [r["wall"] for r in reps]
    setups = [r["setup"] for r in reps]
    packets = sum(p["packets"] for p in reps[0]["probes"])
    rss = [r["meta"]["rss_kb"] / 1024.0 for r in reps]
    result.update(
        packets=packets, walls=walls, setups=setups, rss=rss,
        packets_per_s=packets / statistics.median(walls),
        slowdowns=[x for p in reps[0]["probes"] for x in p["slowdowns"]],
        metrics={
            "run_packets_per_s": packets / statistics.median(
                r["wall"] - r["setup"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        })
    return result


def traced_campaign(bench: Bench, sweep_path: Path, expected: int,
                    untraced: List[Dict[str, object]],
                    reference: Optional[str]) -> Dict[str, float]:
    rec = campaign_rep(bench, sweep_path, expected, trace=True)
    if rec["ok"] and rec["digest"] != reference:
        rec["ok"] = bench.op(False, "traced campaign digest differs from "
                             "the untraced one")
    if not rec["ok"]:
        return {}
    run_dir = rec["run_dir"]
    trace = instrument.merge_traces(run_dir)
    stored = rec["stored"]
    entries = stored["entries"]
    import_s = sum(json.loads(p.read_text())["import_s"]
                   for p in run_dir.glob("meta*.json"))
    context = {
        "import_s": import_s,
        "runs": len(rec["probes"]),
        "document_bytes": stored["bytes"],
        "campaign_runs": len(entries),
        "campaign_failed_runs": sum(1 for e in entries if e["status"] != "ok"),
        "run_elapsed_s": sum(
            json.loads(p.read_text())["elapsed"]
            for p in sorted((run_dir / "store" / "runs").glob("*.json"))),
        "store_bytes": stored["bytes"],
        "jobs": instrument.CAMPAIGN_JOBS,
        "analysis_documents": len(entries),
        "overhead_share": rec["wall"] / statistics.median(
            r["wall"] for r in untraced) - 1.0,
        "tail_percentile": TAIL_PERCENTILE["campaign_sweep"],
    }
    _report_missing(trace)
    metrics = instrument.layer_metrics(trace, rec["probes"], context)
    shutil.rmtree(run_dir)
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def finish(workload: str, bench: Bench, result: Dict[str, object],
           trace: bool) -> Dict[str, object]:
    """Print the report lines and build the final JSON object."""
    print(f"[perfbench {workload}] seeds {result['seeds']}, "
          f"{bench.elapsed():.1f} s, {bench.attempted} operations, "
          f"{bench.failed} failed")
    for seed, digest in sorted(result["digests"].items()):
        print(f"  digest seed {seed}: {digest}")
    for message in bench.failures[:10]:
        print(f"  FAILED: {message}")
    metrics: Dict[str, Dict[str, object]] = {}
    if trace:
        for name, value in result.get("layers", {}).items():
            metrics[name] = {"value": value,
                             "unit": instrument.metric_unit(name)}
        _print_shares(result.get("layers", {}))
    elif "metrics" in result:
        for name, value in result["metrics"].items():
            metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
        # Reported, not gated: one seed's traffic volume and slowdowns vary
        # several-fold, so their cross-seed spread exceeds any usable bound.
        print(f"  wall_s: {tail_summary(result['walls'])}")
        print(f"  setup_s: {tail_summary(result['setups'])}")
        print(f"  peak_rss_mb: {tail_summary(result['rss'])}")
        print(f"  packets: {result['packets']} switch arrivals; "
              f"packets_per_s {result['packets_per_s']:.6g} 1/s")
        print(f"  fail_rate: {bench.failed}/{bench.attempted}")
        slowdowns = result["slowdowns"]
        pct = TAIL_PERCENTILE[workload]
        if slowdowns:
            beyond = len(slowdowns) * (1 - pct / 100.0)
            print(f"  sim_fct_slowdown_p50: "
                  f"{statistics.median(slowdowns):.6g} ratio; "
                  f"sim_fct_slowdown_tail: p{pct:g} "
                  f"{instrument.percentile(slowdowns, pct):.6g} ratio over "
                  f"{len(slowdowns)} flows ({beyond:.0f} beyond it)")
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = bench.failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": max(1, bench.attempted),
            "failed": bench.failed if bench.attempted else 1,
            "metrics": metrics}


def _print_shares(layers: Dict[str, float]) -> None:
    shares = [(n[:-len(".share")], v) for n, v in layers.items()
              if n.endswith(".share")]
    if shares:
        print("  layer self-time shares: " + ", ".join(
            f"{layer} {value:.1%}" for layer, value in shares))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # A terminated run still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        bench = Bench(work, args.seconds)
        trace = bool(args.trace)
        if args.workload == "campaign_sweep":
            result = bench_campaign(bench, args.seed, trace)
        else:
            result = bench_scenario(bench, args.workload, args.seed, trace)
        final = finish(args.workload, bench, result, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
