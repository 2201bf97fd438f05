"""The benchmark's own checks (kept out of the repo's pytest collection).

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import instrument  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "selftest"


def _python(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def _fresh_dir(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _modules() -> list:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_frozen_inputs_match_builders():
    built = inputs.build_all(ROOT)
    assert sorted(built) == sorted(
        p.stem for p in inputs.INPUT_DIR.glob("*.json"))
    for workload, document in built.items():
        frozen = inputs.input_path(workload).read_text()
        assert frozen == inputs.dumps(document), (
            f"{workload}: the builders now produce different traffic; "
            "regenerate with `python3 perfbench/inputs.py` only if "
            "the workload is meant to change")
        assert document["why"], workload


def test_seed_is_written_into_every_spec():
    for workload in ("incast_occamy", "fattree_k8"):
        spec = inputs.seeded_spec(inputs.load_input(workload), 7)
        assert spec["seed"] == 7
    sweep = inputs.seeded_spec(inputs.load_input("campaign_sweep"), 3)
    seeds = sweep["grids"][0]["seeds"]
    assert seeds == list(range(300, 300 + inputs.CAMPAIGN_SEEDS))


def test_every_module_is_mapped_or_listed_outside():
    unmapped = []
    for module in _modules():
        if module == "repro":
            continue
        outside = any(module == p or module.startswith(p + ".")
                      for p in instrument.OUTSIDE)
        if instrument.layer_of(module) is None and not outside:
            unmapped.append(module)
    assert not unmapped, (
        "modules on no layer and not listed in instrument.OUTSIDE: "
        + ", ".join(unmapped))
    for prefix in (*instrument.LAYER_OF, *instrument.OUTSIDE):
        assert prefix in _modules(), f"stale layer-map entry {prefix}"
    for prefix, reason in instrument.OUTSIDE.items():
        assert reason.strip(), prefix


def test_every_layer_has_a_boundary():
    layers = set(instrument.LAYER_OF.values())
    traced = {name.split(".", 1)[0] for name, *_ in instrument.BOUNDARIES}
    assert layers <= traced, f"layers without a boundary: {layers - traced}"


def test_wrappers_keep_hook_elision_identity():
    script = """
import sys
sys.path.insert(0, sys.argv[1])
import instrument
from repro.core.base import BufferManager
instrument.import_path()
def classes():
    out = [BufferManager]
    for cls in out:
        out.extend(cls.__subclasses__())
    return out
def elided():
    return {c.__name__: [getattr(c, h) is getattr(BufferManager, h)
                         for h in ("on_enqueue", "on_dequeue")]
            for c in classes()}
before = elided()
tracer = instrument.Tracer(sys.argv[2])
tracer.install()
assert not tracer.missing, tracer.missing
assert elided() == before, (before, elided())
print("ok")
"""
    work = _fresh_dir("elision")
    proc = _python("-c", script, str(HERE), str(work))
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def test_traced_launch_matches_untraced_digest():
    # A 2 ms dumbbell burst: the campaign scenario, small enough to be quick.
    sweep = inputs.load_input("campaign_sweep")["spec"]
    spec = dict(sweep["grids"][0]["scenario"], seed=5)
    work = _fresh_dir("digest")
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    digests = []
    for flag in ([], ["--trace"]):
        run_dir = work / ("traced" if flag else "plain")
        run_dir.mkdir()
        proc = _python(str(HERE / "launch.py"), "scenario", str(spec_path),
                       str(run_dir), *flag)
        assert proc.returncode == 0, proc.stderr
        (probe,) = instrument.read_probes(run_dir)
        assert probe["conservation_errors"] == []
        assert probe["packets"] > 0
        assert (run_dir / "first_event").exists()
        digests.append((run_dir / "doc.json").read_bytes())
    assert digests[0] == digests[1]
    trace = instrument.merge_traces(work / "traced")
    assert trace["agg"]["switchsim.receive"][0] == probe["packets"]
    assert trace["agg"]["telemetry.tick"][0] == probe["telemetry_ticks"]


def test_benchmark_json_names_every_metric():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    names = instrument.layer_metrics(
        {"agg": {}}, [], {"overhead_share": 0.0, "tail_percentile": 99.0})
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, instrument.metric_unit(name)) for name in names]


def test_benchmark_fails_without_sources():
    work = _fresh_dir("bare")
    shutil.copy(ROOT / "BENCHMARK.json", work)
    shutil.copytree(HERE, work / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _python(f"{HERE.name}/run.py", "--workload", "fattree_k8",
                   "--seed", "1", "--seconds", "1", "--trace", "0", cwd=work)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_terminated_run_stops_its_child_and_cleans_up():
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "fattree_k8",
         "--seed", "2", "--seconds", "30", "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    work = ROOT / ".perfbench_work" / f"fattree_k8-{proc.pid}"
    deadline = time.monotonic() + 30
    while not list(work.glob("launch-*")) and time.monotonic() < deadline:
        time.sleep(0.05)
    proc.terminate()
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode != 0 and b'"correct"' not in out
    assert not work.exists()
    leftover = [p for p in Path("/proc").glob("[0-9]*")
                if str(work).encode() in _cmdline(p)]
    assert not leftover, leftover


def _cmdline(proc_dir: Path) -> bytes:
    try:
        return (proc_dir / "cmdline").read_bytes()
    except OSError:
        return b""


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    with contextlib.suppress(OSError):
        SCRATCH.parent.rmdir()  # only when no benchmark run is using it
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
