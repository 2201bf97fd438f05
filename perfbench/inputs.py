"""The benchmark's three workload inputs and the builders they come from.

The frozen documents under ``perfbench/inputs/`` are what the benchmark
runs.  They were generated once by :func:`build_all` from the repo's
scenario builders; ``python3 perfbench/selftest.py`` checks that they still
match, so an edit to ``repro.scenario.scales``, ``repro.perf.cases`` or
``examples/`` cannot silently change the benchmark's traffic.

Regenerate (only when a workload is deliberately redefined)::

    python3 perfbench/inputs.py
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUT_DIR = HERE / "inputs"

#: Campaign size: the dumbbell scenario x {dt, occamy} x this many seeds.
CAMPAIGN_SEEDS = 100

WHY = {
    "incast_occamy": (
        "The paper's testbed shape (Fig. 13) in the regime where Occamy's "
        "expulsion engages: repro.core (DT thresholds + expulsion engine) "
        "is a large share of the time here and almost none elsewhere."),
    "fattree_k8": (
        "The multi-hop fabric shape: switch memory model, links, routing and "
        "the event core dominate; no expulsion engine runs, so a buffer-"
        "management change should leave it unchanged."),
    "campaign_sweep": (
        "The campaign path a user runs, spec on disk to analysis tables: "
        "per-run dispatch, result building, one store write per run and "
        "analysis over 200 documents."),
}


def _incast_occamy() -> dict:
    from repro.scenario.builders import single_switch_scenario
    from repro.scenario.scales import get_scale
    from repro.sim.units import KB

    config = get_scale("small")
    # 5.12 KB/port/Gbps x 8 ports x 10 Gbps: the switch's whole buffer.
    buffer_bytes = int(config.buffer_kb_per_port_per_gbps * KB
                       * config.num_hosts * config.link_rate_bps / 1e9)
    spec = single_switch_scenario(
        scheme="occamy",
        config=config,
        query_size_bytes=int(3.0 * buffer_bytes),
        background_load=0.7,
        scheme_kwargs={"alpha": 8.0},
        name="perfbench_incast_occamy",
    )
    return spec.to_dict()


def _fattree_k8() -> dict:
    from repro.perf.cases import get_case

    spec = get_case("websearch_fattree_k8/small").build()
    spec = replace(spec, name="perfbench_fattree_k8")
    return spec.to_dict()


def _campaign_sweep(repo_root: Path) -> dict:
    example = json.loads(
        (repo_root / "examples" / "campaign_farm_smoke.json").read_text())
    grid = copy.deepcopy(example["grids"][0])
    grid["seeds"] = list(range(CAMPAIGN_SEEDS))
    return {"name": "perfbench-campaign-sweep", "grids": [grid]}


def build_all(repo_root: Path) -> dict:
    """``{workload: frozen document}`` built from today's builders."""
    return {
        "incast_occamy": {"kind": "scenario", "why": WHY["incast_occamy"],
                          "spec": _incast_occamy()},
        "fattree_k8": {"kind": "scenario", "why": WHY["fattree_k8"],
                       "spec": _fattree_k8()},
        "campaign_sweep": {"kind": "sweep", "why": WHY["campaign_sweep"],
                           "spec": _campaign_sweep(repo_root)},
    }


def input_path(workload: str) -> Path:
    return INPUT_DIR / f"{workload}.json"


def load_input(workload: str) -> dict:
    return json.loads(input_path(workload).read_text())


def seeded_spec(document: dict, seed: int) -> dict:
    """The workload's spec with the benchmark seed written in.

    A scenario takes the seed as is; a sweep's seed axis becomes
    ``seed * N .. seed * N + N - 1`` for its N seeds, so distinct benchmark
    seeds never share a run.
    """
    spec = copy.deepcopy(document["spec"])
    if document["kind"] == "scenario":
        spec["seed"] = seed
        return spec
    for grid in spec["grids"]:
        count = len(grid["seeds"])
        grid["seeds"] = [seed * count + i for i in range(count)]
    return spec


def dumps(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main() -> int:
    repo_root = HERE.parent
    sys.path.insert(0, str(repo_root / "src"))
    INPUT_DIR.mkdir(exist_ok=True)
    for workload, document in build_all(repo_root).items():
        path = input_path(workload)
        path.write_text(dumps(document))
        print(f"wrote {path.relative_to(repo_root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
