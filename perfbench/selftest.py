"""Harness self-test at smoke scale.

Checks, without the full-size inputs:

* ``BENCHMARK.json`` has the documented shape (keys, name and unit
  characters, bounds, a ``setup_s`` metric);
* every workload, traced and untraced, on two seeds, exits 0 with every
  output check passing, and its last output line is the result object
  with every metric ``BENCHMARK.json`` names for that mode, each with its
  unit and a finite value (end-to-end values also non-zero);
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Usage::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEEDS = (1, 2)


def check_spec(spec: dict) -> list[str]:
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(expected)}")
    names = []
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"workload entry {workload}")
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            problems.append(f"end-to-end entry {metric}")
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            problems.append(f"per-layer entry {metric}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("higher", "lower"):
            problems.append(f"unit/better of {metric['name']}")
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or malformed")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        problems.append("workload count or run_seconds out of range")
    return problems


def check_result(line: str, wanted: dict[str, str], end_to_end: bool) -> list[str]:
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("an output check failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"failed {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        problems.append(f"metrics differ: missing {sorted(set(wanted) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(wanted))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != wanted.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r} != {wanted.get(name)!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif end_to_end and value == 0:
            problems.append(f"{name}: end-to-end value is 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = [f"BENCHMARK.json: {p}" for p in check_spec(spec)]
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in modes.items():
            for seed in SEEDS:
                completed = subprocess.run(
                    command + ["--workload", workload, "--seed", str(seed),
                               "--seconds", "1", "--trace", str(trace), "--smoke"],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                )
                where = f"{workload} trace={trace} seed={seed}"
                lines = completed.stdout.strip().splitlines()
                if completed.returncode != 0 or not lines:
                    failures.append(f"{where}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
                    continue
                problems = check_result(lines[-1], wanted, trace == 0)
                failures += [f"{where}: {p}" for p in problems]
                print(f"{'FAIL' if problems else 'ok'} {where}")

    # Without the program the benchmark must fail cleanly, printing no result.
    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            command + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                       "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
        )
        if completed.returncode == 0 or completed.stdout.strip():
            failures.append("without the program the benchmark did not fail cleanly")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
