"""The program each benchmark launch runs: one scenario, one campaign, or
one traced analysis command, driven through ``repro``'s public API.

Usage (``PYTHONPATH=src``; ``run.py`` builds these command lines)::

    python3 perfbench/launch.py scenario SPEC RUN_DIR [--trace]
    python3 perfbench/launch.py campaign SWEEP RUN_DIR --store DIR [--trace]
    python3 perfbench/launch.py analysis RUN_DIR -- COMMAND ARGS...  (traced)

``scenario`` mirrors ``python -m repro.scenario run`` but writes the full
``ScenarioResult.to_dict()`` document to ``RUN_DIR/doc.json`` (the output
the benchmark digests); ``campaign`` calls ``python -m repro.campaign run``'s
``main`` with ``--jobs`` :data:`instrument.CAMPAIGN_JOBS`.  Every launch
writes ``RUN_DIR/meta.json`` (import time, peak RSS) and, through
:mod:`instrument`, the set-up stamp and one probe record per scenario run.
``--trace`` adds the layer wrappers and writes ``trace-<pid>.json`` files
into ``RUN_DIR``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import sys
from pathlib import Path

import instrument

#: The ``repro`` entry point each mode drives (imported inside ``import_s``).
ENTRY_MODULE = {"scenario": "repro.scenario.runner",
                "campaign": "repro.campaign.cli",
                "analysis": "repro.analysis.cli"}


def _rss_kb() -> int:
    """Peak RSS of this process plus its largest child, in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + children


def _run_scenario(args, meta: dict) -> int:
    from repro.scenario.runner import run_scenario
    from repro.scenario.spec import ScenarioSpec
    from repro.workloads import reset_workload_ids

    spec = ScenarioSpec.from_file(args.spec)
    reset_workload_ids()
    result = run_scenario(spec)
    start = instrument.now()
    text = json.dumps(result.to_dict(), sort_keys=True)
    (args.run_dir / "doc.json").write_text(text)
    meta["document_encode_s"] = instrument.now() - start
    meta["document_bytes"] = len(text)
    return 0


def _run_campaign(args, meta: dict) -> int:
    from repro.campaign.cli import main as campaign_main

    argv = ["run", str(args.spec), "--store", str(args.store),
            "--jobs", str(instrument.CAMPAIGN_JOBS)]
    # Progress lines go to a file: the benchmark reads outcomes from the store.
    with open(args.run_dir / "campaign.log", "w") as log, \
            contextlib.redirect_stdout(log):
        return campaign_main(argv)


def _run_analysis(args, meta: dict) -> int:
    from repro.analysis.cli import main as analysis_main

    return analysis_main(args.command)


def main(argv=None) -> int:
    start = instrument.now()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_scn = sub.add_parser("scenario")
    p_scn.add_argument("spec", type=Path)
    p_scn.add_argument("run_dir", type=Path)
    p_scn.add_argument("--trace", action="store_true")
    p_cmp = sub.add_parser("campaign")
    p_cmp.add_argument("spec", type=Path)
    p_cmp.add_argument("run_dir", type=Path)
    p_cmp.add_argument("--store", type=Path, required=True)
    p_cmp.add_argument("--trace", action="store_true")
    p_ana = sub.add_parser("analysis")
    p_ana.add_argument("run_dir", type=Path)
    p_ana.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "analysis":
        args.trace = True
        args.command = [c for c in args.command if c != "--"]

    importlib.import_module(ENTRY_MODULE[args.mode])
    instrument.import_path()
    meta = {"import_s": instrument.now() - start}
    tracer = None
    if args.trace:
        tracer = instrument.Tracer(args.run_dir)
        tracer.install()
    if args.mode != "analysis":
        instrument.install_probes(args.run_dir)
    handler = {"scenario": _run_scenario, "campaign": _run_campaign,
               "analysis": _run_analysis}[args.mode]
    status = handler(args, meta)
    meta["rss_kb"] = _rss_kb()
    if tracer is not None:
        tracer.dump()
    name = "meta.json" if args.mode != "analysis" else (
        f"meta-{args.command[0]}.json")
    (args.run_dir / name).write_text(json.dumps(meta))
    return status


if __name__ == "__main__":
    sys.exit(main())
