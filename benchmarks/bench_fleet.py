"""Fleet-serving benchmark: load pattern × router × fleet composition.

Sweeps the request routers (round_robin, least_backlog, difficulty_aware)
over heterogeneous fleet compositions and load patterns, fanning all cells
concurrently through the engine's EvaluationService (results keyed into the
persistent ResultCache under the ``fleet`` namespace when ``--cache-dir``
is set).  Emits a JSON report and asserts the PR's acceptance contract: in
every bursty cell the difficulty-aware router matches-or-beats round-robin
on p95 latency at equal-or-lower fleet energy — and strictly beats it
somewhere.

Run directly::

    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke --json fleet-report.json
    PYTHONPATH=src python benchmarks/bench_fleet.py --workers 8 --cache-dir .cache/engine
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from repro.serving.fleet import FleetReport, FleetSpec, fleet_sweep
from repro.serving.router import ROUTER_NAMES
from repro.utils.serialization import save_json

#: Fleet compositions under test: a GPU pair and the full four-platform mix.
FLEETS = {
    "duo": ("tx2-gpu", "agx-gpu"),
    "quad": ("agx-gpu", "carmel-cpu", "tx2-gpu", "denver-cpu"),
}

PATTERNS = ("poisson", "bursty")


def build_grid(duration_s: float, seed: int, model: str) -> list[FleetSpec]:
    """The full fleet × pattern × router grid."""
    return [
        FleetSpec(
            platforms=platforms,
            model=model,
            pattern=pattern,
            router=router,
            duration_s=duration_s,
            seed=seed,
        )
        for platforms in FLEETS.values()
        for pattern in PATTERNS
        for router in ROUTER_NAMES
    ]


def summarize(specs: list[FleetSpec], reports: list[FleetReport]) -> dict:
    """Per-cell router-vs-router verdicts plus the acceptance flags."""
    cells: dict[tuple[tuple[str, ...], str], dict[str, FleetReport]] = {}
    for spec, report in zip(specs, reports):
        cells.setdefault((spec.platforms, spec.pattern), {})[spec.router] = report
    rows = []
    for (platforms, pattern), by_router in sorted(cells.items()):
        rr, da = by_router["round_robin"], by_router["difficulty_aware"]
        rows.append(
            {
                "platforms": list(platforms),
                "pattern": pattern,
                "p95_ms": {name: r.latency_ms_p95 for name, r in by_router.items()},
                "miss_rate": {name: r.deadline_miss_rate for name, r in by_router.items()},
                "energy_j": {name: r.total_energy_j for name, r in by_router.items()},
                "da_wins_both": bool(
                    da.latency_ms_p95 <= rr.latency_ms_p95
                    and da.total_energy_j <= rr.total_energy_j
                ),
                "da_strict_p95_win": bool(da.latency_ms_p95 < rr.latency_ms_p95),
            }
        )
    bursty = [row for row in rows if row["pattern"] == "bursty"]
    return {
        "cells": rows,
        "wins_both": sum(row["da_wins_both"] for row in rows),
        "bursty_win": bool(bursty) and all(row["da_wins_both"] for row in bursty)
        and any(row["da_strict_p95_win"] for row in bursty),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="short traces (CI)")
    parser.add_argument("--duration-s", type=float, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--model", default="a3")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--executor", default="auto",
                        help="auto routes the codec-backed grid to a process pool")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--json", default="fleet-report.json")
    args = parser.parse_args(argv)

    duration = args.duration_s or (8.0 if args.smoke else 16.0)
    specs = build_grid(duration, args.seed, args.model)
    start = time.perf_counter()
    reports = fleet_sweep(
        specs, workers=args.workers, executor=args.executor, cache_dir=args.cache_dir
    )
    elapsed = time.perf_counter() - start
    summary = summarize(specs, reports)

    header = (
        f"{'fleet':>28s} {'pattern':>8s} {'router':>17s} "
        f"{'p95 ms':>9s} {'miss%':>6s} {'J':>8s} {'win':>4s}"
    )
    print(header)
    print("-" * len(header))
    for spec, report in zip(specs, reports):
        row = next(
            r for r in summary["cells"]
            if r["platforms"] == list(spec.platforms) and r["pattern"] == spec.pattern
        )
        print(
            f"{'+'.join(spec.platforms):>28s} {spec.pattern:>8s} {spec.router:>17s} "
            f"{report.latency_ms_p95:9.1f} {report.deadline_miss_rate * 100:6.1f} "
            f"{report.total_energy_j:8.2f} "
            f"{'yes' if spec.router == 'difficulty_aware' and row['da_wins_both'] else '':>4s}"
        )
    print(
        f"\n{len(specs)} cells in {elapsed:.1f}s "
        f"({args.workers} workers, {args.executor} executor); "
        f"difficulty_aware wins both axes in {summary['wins_both']}/{len(summary['cells'])} cells"
    )

    # Contract: every cell served traffic and produced a meaningful report.
    for report in reports:
        assert report.num_requests > 0, "empty trace"
        assert report.total_energy_j > 0, "no energy accounted"
        assert report.latency_ms_p99 >= report.latency_ms_p50 > 0
        assert len(report.devices) == len(report.platforms)
        assert sum(d.requests for d in report.devices) == report.num_requests
    # Acceptance: difficulty-aware >= round-robin on p95 at <= fleet energy in
    # every bursty cell (strictly better p95 in at least one).
    assert summary["bursty_win"], (
        "difficulty_aware router failed to match-or-beat round_robin on p95 "
        "latency at equal-or-lower fleet energy across the bursty cells"
    )

    if args.json:
        payload = {
            "grid": [dataclasses.asdict(spec) for spec in specs],
            "reports": reports,
            "summary": summary,
            "elapsed_s": elapsed,
        }
        path = save_json(payload, args.json)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
