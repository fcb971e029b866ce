"""Golden digests: recompute the result digests a change must keep.

Every entry of ``tests/golden/digests.json`` is the digest of one
deterministic result.  A change that claims "every output is unchanged"
proves it by running::

    PYTHONPATH=src python benchmarks/golden.py --check    # exit 1, naming each moved entry
    PYTHONPATH=src python benchmarks/golden.py --update   # rewrite the file, print what moved

Two families of entries:

* ``perfbench/<workload>/seed<k>`` — the ``Outcome.digest`` of each
  perfbench workload at seeds 1 and 5, computed in this process through
  the workload's ``build``/``run``/``finish``/``close`` steps
  (``perfbench/workloads.py``, imported read-only).  A run whose output
  checks fail counts as moved.
* ``serving/<cell>`` and ``fleet/<cell>`` — the digest of the report of a
  serving cell that perfbench does not drive: single-device cells in queue
  mode (admission drop and defer, latency-critical traffic) across every
  scenario and policy, and three-lane fleet cells under the thermal cap
  with admission and under a battery budget, for every router, with and
  without work stealing.
* ``cli/<command>`` — the digest of what ``repro serve`` prints
  (:func:`repro.serving.cli.main`, called in this process) for one
  single-device and one fleet command line, and of what each paper
  artifact prints (``python -m repro <artifact> --profile fast --seed 7``,
  :func:`repro.__main__.main` called in this process) with its
  ``===== <name> (<s>s) =====`` timing header stripped: explored points,
  RoD, HV and the γ ablation, which no perfbench digest covers.

Every family uses perfbench's digest (blake2b of the sorted-key JSON, every
float digit kept).  ``--only PREFIX`` restricts either mode to the entries
whose name starts with a prefix (repeatable).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import re
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "digests.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, digest  # noqa: E402  (perfbench/, read-only)

PERFBENCH_SEEDS = (1, 5)

#: Three lanes for the thermal-cap fleet cells: two GPUs and a CPU.
FLEET_PLATFORMS = ("tx2-gpu", "agx-gpu", "carmel-cpu")

#: Three lanes for the battery-budget fleet cells.
BATTERY_PLATFORMS = ("agx-gpu", "tx2-gpu", "denver-cpu")

#: ``repro serve`` command lines whose printed output is pinned.
CLI_COMMANDS = {
    "serve-single": (
        "--trace bursty --scenario thermal-cap --policy both --duration-s 5 "
        "--critical-fraction 0.2 --admission-queue 8"
    ),
    "serve-fleet": (
        "--fleet agx-gpu,tx2-gpu,denver-cpu --router all --trace bursty "
        "--scenario battery-budget --duration-s 5 --steal"
    ),
}

#: Paper artifacts whose printed output is pinned (fast profile, seed 7).
CLI_ARTIFACTS = ("table1", "table2", "fig1", "table3", "fig5", "fig6", "fig7")

#: The timing header ``repro <artifact>`` prints above each artifact.
_TIMING_HEADER = re.compile(r"^===== \S+ \([0-9.]+s\) =====$", re.MULTILINE)


def perfbench_entries() -> dict:
    """``name -> thunk`` for every perfbench workload at every seed."""

    def outcome_digest(name: str, seed: int) -> str:
        workload = WORKLOADS[name](smoke=False)
        workload.import_modules()
        with tempfile.TemporaryDirectory(prefix="golden-") as root:
            try:
                workload.build(seed, Path(root))
                workload.run()
                outcome = workload.finish()
            finally:
                workload.close()
        if outcome.problems:
            raise RuntimeError(f"{name} seed {seed}: output checks failed: {outcome.problems}")
        return outcome.digest

    return {
        f"perfbench/{name}/seed{seed}": (lambda name=name, seed=seed: outcome_digest(name, seed))
        for name in WORKLOADS
        for seed in PERFBENCH_SEEDS
    }


def serving_entries() -> dict:
    """``name -> thunk`` for the queue-mode single-device cells."""
    from repro.serving.harness import ServingSpec, run_serving_cell
    from repro.serving.scenarios import SCENARIO_NAMES

    def cell(spec: ServingSpec):
        return lambda: digest(dataclasses.asdict(run_serving_cell(spec)))

    return {
        f"serving/bursty-q8-{mode}-crit0.2/{scenario}/{policy}": cell(
            ServingSpec(
                pattern="bursty",
                scenario=scenario,
                policy=policy,
                critical_fraction=0.2,
                admission_max_queue=8,
                admission_mode=mode,
            )
        )
        for mode in ("drop", "defer")
        for scenario in SCENARIO_NAMES
        for policy in ("static", "adaptive")
    }


def fleet_entries() -> dict:
    """``name -> thunk`` for the three-lane thermal-cap and battery fleet cells."""
    from repro.serving.fleet import FleetSpec, run_fleet_cell
    from repro.serving.router import ROUTER_NAMES

    def cell(spec: FleetSpec):
        def run() -> str:
            report = run_fleet_cell(spec)
            # Backlog-aware routers balance the lanes, so only round-robin
            # leaves a lane stalled past the SLO for another to rob.
            if spec.steal and spec.router == "round_robin" and not report.num_stolen:
                raise RuntimeError("the round-robin steal cell stole nothing")
            return digest(dataclasses.asdict(report))

        return run

    return {
        f"fleet/trio-thermal-bursty-q32-crit0.05/{router}" + ("-steal" if steal else ""): cell(
            FleetSpec(
                platforms=FLEET_PLATFORMS,
                pattern="bursty",
                scenario="thermal-cap",
                router=router,
                utilization=1.1,
                critical_fraction=0.05,
                admission_max_queue=32,
                steal=steal,
            )
        )
        for router in ROUTER_NAMES
        for steal in (False, True)
    } | {
        f"fleet/trio-battery-bursty/{router}" + ("-steal" if steal else ""): cell(
            FleetSpec(
                platforms=BATTERY_PLATFORMS,
                pattern="bursty",
                scenario="battery-budget",
                router=router,
                duration_s=5.0,
                steal=steal,
            )
        )
        for router in ROUTER_NAMES
        for steal in (False, True)
    }


def cli_entries() -> dict:
    """``name -> thunk`` for the pinned ``repro serve`` and artifact command lines."""
    from repro.__main__ import main as repro
    from repro.serving.cli import main as serve

    def command(main, argv: list[str], strip=None):
        def run() -> str:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(argv)
            text = out.getvalue()
            return digest(strip.sub("", text) if strip else text)

        return run

    serving = {
        f"cli/{name}": command(serve, line.split()) for name, line in CLI_COMMANDS.items()
    }
    artifacts = {
        f"cli/{name}": command(repro, [name, "--profile", "fast", "--seed", "7"], _TIMING_HEADER)
        for name in CLI_ARTIFACTS
    }
    return serving | artifacts


def all_entries() -> dict:
    return {**perfbench_entries(), **serving_entries(), **fleet_entries(), **cli_entries()}


def compute(entries: dict) -> dict[str, str]:
    digests = {}
    for name, thunk in entries.items():
        start = time.perf_counter()
        digests[name] = thunk()
        gc.collect()  # the 10^6-request runs hold hundreds of MiB
        print(f"  {name:<55s} {digests[name][:16]}  ({time.perf_counter() - start:.1f}s)")
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="fail if any digest moved")
    mode.add_argument("--update", action="store_true", help="rewrite the digest file")
    parser.add_argument("--only", action="append", default=[], metavar="PREFIX")
    args = parser.parse_args(argv)

    entries = all_entries()
    if args.only:
        entries = {
            name: thunk for name, thunk in entries.items()
            if any(name.startswith(prefix) for prefix in args.only)
        }
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    start = time.perf_counter()
    digests = compute(entries)
    moved = sorted(name for name, value in digests.items() if stored.get(name) != value)
    elapsed = time.perf_counter() - start

    if args.update:
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        kept = {**stored, **digests} if args.only else digests  # a full run drops stale names
        DIGESTS.write_text(json.dumps(kept, indent=2, sort_keys=True) + "\n")
        for name in moved:
            print(f"moved: {name}  {stored.get(name, '(new)')} -> {digests[name]}")
        print(f"{len(digests)} entries written, {len(moved)} moved ({elapsed:.1f}s)")
        return 0
    missing = sorted(set(entries) - set(stored))
    for name in moved:
        print(f"MOVED: {name}  expected {stored.get(name, '(missing)')}, got {digests[name]}")
    if moved:
        print(f"{len(moved)} of {len(digests)} golden digests moved"
              + (f" ({len(missing)} not in {DIGESTS.name}; run --update)" if missing else ""))
        return 1
    print(f"{len(digests)} golden digests unchanged ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
