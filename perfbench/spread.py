"""Seed-to-seed spread of the end-to-end metrics, and their drift, against the bounds.

Runs the benchmark (untraced) on every workload once per seed, in two
rounds with different seeds (round 1: seeds 1..N, round 2: seeds N+1..2N).
For every end-to-end metric it prints each round's median and spread (the
distance between the first and third quartiles as a share of the median)
and the drift (how much worse round 2's median is than round 1's, as a
share of round 1's).  A metric is steady when every spread is within a
third of its ``bound`` in ``BENCHMARK.json`` and the drift is within the
bound.  ``setup_s`` is judged by its drift alone.

Usage::

    python3 perfbench/spread.py            # 2 rounds x 10 seeds x every workload
    python3 perfbench/spread.py --seeds 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = 2


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def drift(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    worse = second - first if better == "lower" else first - second
    return worse / first


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10, help="seeds per round")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        rounds = []
        for first_seed in range(1, ROUNDS * args.seeds + 1, args.seeds):
            results = []
            for seed in range(first_seed, first_seed + args.seeds):
                completed = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True,
                )
                lines = completed.stdout.strip().splitlines()
                if completed.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {completed.returncode}", file=sys.stderr)
                    return 1
                results.append(json.loads(lines[-1])["metrics"])
            rounds.append(results)
        print(f"# {workload}: {ROUNDS} rounds of {args.seeds} seeds", flush=True)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = zip(*(spread([r[name]["value"] for r in rs]) for rs in rounds))
            worse = drift(medians[0], medians[-1], metric["better"])
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound / 3)
            steady &= ok
            print(f"{name:16s} medians {' '.join(f'{m:12.6g}' for m in medians)}  "
                  f"spreads {' '.join(f'{s:6.4f}' for s in spreads)}  drift {worse:+7.4f}  "
                  f"bound {bound:4.2f}  {'ok' if ok else 'WIDE'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
