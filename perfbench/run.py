"""The benchmark: one workload, measured from outside, in fresh processes.

Usage::

    python3 perfbench/run.py --workload serve-1m --seed 1 --seconds 15 --trace 0

Every run of the workload happens in its own fresh process (``child.py``),
so peak RSS, memo tables and ``lru_cache`` state never leak from one run
into the next.

``--trace 0`` repeats untraced runs until ``--seconds`` have passed (at
least one), adds set-up-only processes until there are
:data:`SETUP_SAMPLES` set-up samples, and reports the end-to-end metrics as
medians.  ``--trace 1`` makes one untraced and one traced run plus one
``python -X importtime`` import of the workload's modules, and reports the
per-layer split of the traced run, ``unattributed_s`` and
``obs.overhead_s`` (traced minus untraced build + timed call).

Every run checks its outputs; results must also be identical across the
runs of one invocation (same digest, traced or not).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a human-readable table of every metric with its
unit comes before it.  Each invocation is recorded with its run manifest
under ``.perfbench/runs/``.  The exit code is 0 when every check passed,
1 when an output check failed and 2 when a run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None
WORKLOAD_NAMES = ("search-paper", "fig5-sharded", "serve-1m", "fleet-quad-1m")

#: Set-up samples per untraced invocation (median reported).
SETUP_SAMPLES = 3
#: Wall-clock budget of one invocation, all of its child processes
#: together: a child still running when it is spent is killed and the
#: invocation fails.  A traced invocation (untraced run, traced run, import
#: timing) needs well under half of it.
INVOCATION_TIMEOUT_S = 170
#: CPU seconds of ``child.host_speed_probe`` at the reference host speed.
#: The host's speed under its neighbours' load swings by tens of percent
#: within minutes, and a fixed computation slows with it; every CPU time is
#: therefore reported as it would read on a host where the probe takes
#: this long (the probe's time on a quiet 2-vCPU host of the kind the
#: benchmark was built on).
PROBE_REFERENCE_S = 0.04


class RunFailed(Exception):
    """A child process did not complete."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.setdefault("OMP_NUM_THREADS", "1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("MKL_NUM_THREADS", "1")
    return env


def run_child(command: list[str], deadline: float, what: str) -> str:
    """Run one child process to completion and return its standard error.

    The child leads its own process group; whatever is left of the group
    when it exits or times out (pool workers) is killed, so no process this
    benchmark started outlives the invocation.
    """
    with subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as process:
        try:
            _, stderr = process.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            stderr = None
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
    if stderr is None:
        raise RunFailed(f"{what} exceeded its time limit")
    if process.returncode != 0:
        raise RunFailed(f"{what} exited with {process.returncode}:\n{stderr[-4000:]}")
    return stderr


def spawn(args, mode: str, trace: int, scratch: Path, deadline: float) -> dict:
    """One child run's JSON result, with its wall-clock set-up time from spawn."""
    out = scratch / f"{mode}-{trace}-{time.monotonic_ns()}.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--trace", str(trace), "--out", str(out),
    ] + (["--smoke"] if args.smoke else [])
    spawned_at = time.monotonic()
    run_child(command, deadline, f"{mode} run")
    result = json.loads(out.read_text())
    out.unlink()
    result["setup_wall_s"] = result["ready_at"] - spawned_at
    return result


def import_times(args, deadline: float) -> dict[str, float]:
    """``import.scipy_s`` / ``import.repro_s`` from ``python -X importtime``."""
    stderr = run_child(
        [sys.executable, "-X", "importtime", str(HERE / "child.py"),
         "--workload", args.workload, "--mode", "imports"],
        deadline, "import timing",
    )
    return {
        "import.scipy_s": import_cost(stderr, "scipy"),
        "import.repro_s": import_cost(stderr, "repro"),
    }


def import_cost(importtime: str, package: str) -> float:
    """Seconds spent importing ``package``, from ``-X importtime`` output.

    Sums the cumulative time of every ``package`` module whose importer is
    not itself a ``package`` module.  The output is a post-order tree
    (children first, two spaces of indent per level), so it is read
    backwards with a stack of importers.
    """
    def inside(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total_us = 0
    importers: list[str] = []
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, raw = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        del importers[depth:]
        if inside(name) and not any(inside(parent) for parent in importers):
            total_us += int(cumulative)
        importers.append(name)
    return total_us / 1e6


def at_reference_speed(cpu_s: float, probe_s: float) -> float:
    """``cpu_s``, measured while the host-speed probe took ``probe_s``, at reference speed."""
    return cpu_s * PROBE_REFERENCE_S / probe_s


def end_to_end(runs: list[dict], setup_runs: list[dict]) -> dict[str, float]:
    """Medians over the untraced runs of one invocation.

    The host's speed is taken once for the invocation, as the median of
    every probe its processes made: one probe is short, and the speed
    changes over minutes, not within one invocation's half minute.
    """

    def median(key, source=None):
        return statistics.median(r[key] if source is None else r[source][key] for r in runs)

    probe_s = statistics.median(p for r in runs + setup_runs for p in r["probe_cpu_s"])
    return {
        "setup_s": at_reference_speed(
            statistics.median(r["setup_cpu_s"] for r in runs + setup_runs), probe_s
        ),
        "ops_per_ref_cpu_s": statistics.median(
            r["outcome"]["ops"] / at_reference_speed(r["cpu_s"], probe_s) for r in runs
        ),
        "cpu_utilization": statistics.median(
            r["cpu_s"] / ((r["wall_s"] - r["stolen_s"]) * r["workers"]) for r in runs
        ),
        "peak_rss_mb": median("peak_rss_mb"),
        "dynn_hv": median("dynn_hv", "outcome"),
        "latency_ms": median("latency_ms", "outcome"),
        "energy_mj": median("energy_mj", "outcome"),
    }


def measure(args, scratch: Path) -> tuple[list[dict], dict[str, float]]:
    """All child runs of one invocation, and the metrics they give."""
    deadline = time.monotonic() + INVOCATION_TIMEOUT_S
    if args.trace:
        untraced = spawn(args, "full", 0, scratch, deadline)
        traced = spawn(args, "full", 1, scratch, deadline)
        metrics = dict(traced["layers"])
        metrics["run.wall_s"] = untraced["wall_s"]
        metrics["obs.overhead_s"] = (traced["build_s"] + traced["wall_s"]) - (
            untraced["build_s"] + untraced["wall_s"]
        )
        metrics.update(import_times(args, deadline))
        return [untraced, traced], metrics
    runs: list[dict] = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < args.seconds:
        runs.append(spawn(args, "full", 0, scratch, deadline))
    setup_runs = [
        spawn(args, "setup", 0, scratch, deadline) for _ in range(SETUP_SAMPLES - len(runs))
    ]
    return runs, end_to_end(runs, setup_runs)


def verdict(runs: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over every full run."""
    problems = [p for r in runs for p in r["outcome"]["problems"]]
    digests = {r["outcome"]["digest"] for r in runs}
    if len(digests) > 1:
        problems.append(f"results differ between runs of one seed: {sorted(digests)}")
    attempted = sum(r["outcome"]["attempted"] for r in runs)
    failed = sum(
        r["outcome"]["attempted"] if (r["outcome"]["problems"] or len(digests) > 1)
        else r["outcome"]["failed"]
        for r in runs
    )
    return not problems, attempted, failed, problems


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def record(args, runs, result, problems) -> Path:
    """Write the invocation, tied to each run's manifest, under .perfbench/runs/."""
    directory = ROOT / ".perfbench" / "runs"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    )
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "result": result,
        "problems": problems,
        "context": {"src_lines": src_lines()},
        "runs": [
            {
                key: run[key]
                for key in ("setup_cpu_s", "setup_wall_s", "import_s", "build_s",
                            "wall_s", "stolen_s", "cpu_s", "probe_cpu_s", "peak_rss_mb", "manifest")
            }
            for run in runs
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness self-test only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or SPEC is None:
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    scratch_root = ROOT / ".perfbench" / "tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        try:
            runs, metrics = measure(args, Path(scratch))
        except RunFailed as error:
            print(f"perfbench: {args.workload} seed {args.seed}: {error}", file=sys.stderr)
            return 2
    correct, attempted, failed, problems = verdict(runs)
    if not args.trace:
        metrics["success_rate"] = 1.0 - failed / attempted
    unit_of = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in metrics.items()
        },
    }
    path = record(args, runs, result, problems)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} runs={len(runs)} "
          f"record={path.relative_to(ROOT)}")
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
