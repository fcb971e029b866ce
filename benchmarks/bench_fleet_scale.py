"""Serving-core scale benchmark: trace size × fleet size, old vs new loop.

Measures the million-request serving core — the vectorized trace
generators, the array-backed batcher and the event loop with compiled
per-config pricing — against the per-request/per-batch Python loop it
replaced.  That loop is the executable spec in ``tests/spec/serving.py``
(``MicroBatcher`` + per-batch ``execute_batch``, run by
``ReferenceSimulator``), and rows report it as the ``reference`` engine;
the production ``ServingSimulator`` is ``indexed``.

The grid sweeps trace scales (10⁴ → 10⁶ requests by default) down one
axis and fleet compositions (single device, duo, quad) down the other,
reporting wall clock, simulated-requests-per-wall-second and peak RSS for
every cell.  The reference loop runs up to ``--reference-cap`` requests
(its per-batch Python pricing makes 10⁶ impractical — that being the
point); its throughput is per-batch work and therefore scale-independent,
so the speedup contract compares the indexed loop's largest run against
the reference loop's largest feasible run.

Fleet rows sweep the same axis: every fleet × scale cell runs the
heap-drained ``FleetSimulator`` (``indexed``), the lane-scanning loop of
``tests/spec/fleet.py`` (``ReferenceFleetSimulator``, ``reference``) up to
``--reference-cap``, and one work-stealing variant at the largest scale
(``indexed+steal``; measured, but outside the identity contract by
design).

Contracts (asserted):

- single-device: indexed req/s at the largest scale ≥ ``--speedup-floor``
  × the reference engine's largest feasible run (10× full, 3× smoke);
- fleet: indexed req/s at the largest fleet scale ≥ ``--fleet-floor`` ×
  the reference fleet loop's largest feasible run (1.25× full, 1.1×
  smoke — both loops route one arrival at a time and are bit-identical,
  so the floor is honest wall clock, not a vector-vs-Python cliff);
- identity: both loops produce full-field-equal ``FleetReport``s on a
  shared probe cell;
- memory: peak RSS over the whole grid stays under ``--rss-ceiling``
  (no full-trace ``tolist`` materialization).

Both loops serve every request they are offered.  The JSON payload
embeds a ``fleet.*`` counter rollup (routed arrivals, batch-size
histogram, steals) from a separate observed run, so the dispatch shape
ships with the numbers.

Run directly::

    PYTHONPATH=src python benchmarks/bench_fleet_scale.py --smoke --json scale.json
    PYTHONPATH=src python benchmarks/bench_fleet_scale.py --max-scale 1000000
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

from repro.obs import trace as obs_trace
from repro.obs.export import counter_rollup
from repro.obs.trace import Recorder
from repro.serving.fleet import (
    FleetSimulator,
    FleetSpec,
    build_fleet_stacks,
    build_fleet_trace_and_stream,
)
from repro.serving.harness import ServingSpec, build_serving_stack
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import make_trace
from repro.utils.serialization import save_json

# The reference loops are test code: executable specs under tests/spec/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from spec.fleet import ReferenceFleetSimulator  # noqa: E402
from spec.serving import ReferenceSimulator  # noqa: E402

#: Simulator class per row label.
SINGLE_ENGINES = {"reference": ReferenceSimulator, "indexed": ServingSimulator}
FLEET_ENGINES = {"reference": ReferenceFleetSimulator, "indexed": FleetSimulator}

#: Fleet compositions on the second axis (1 × is the single-device engine).
FLEETS = {
    "duo": ("tx2-gpu", "agx-gpu"),
    "quad": ("agx-gpu", "carmel-cpu", "tx2-gpu", "denver-cpu"),
}


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (monotone)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0  # Linux reports KiB


def _simulator(stack, spec: ServingSpec, engine: str) -> ServingSimulator:
    return SINGLE_ENGINES[engine](
        evaluator=stack.evaluator,
        placement=stack.placement,
        policy=stack.make_policy(),
        ladder=stack.ladder,
        scenario=stack.scenario,
        slo_s=spec.slo_ms / 1e3,
        batch_policy=stack.batch_policy,
        window_s=spec.window_ms / 1e3,
    )


def run_single(spec: ServingSpec, scale: int, engine: str, seed: int) -> dict:
    """One single-device cell at ``scale`` requests through ``engine``."""
    stack = build_serving_stack(spec)
    duration_s = scale / stack.rate_hz
    t0 = time.perf_counter()
    trace = make_trace(spec.pattern, stack.rate_hz, duration_s, seed=seed)
    trace_s = time.perf_counter() - t0
    stream = stack.synthesizer.synthesize(trace.difficulties())
    simulator = _simulator(stack, spec, engine)
    t0 = time.perf_counter()
    report = simulator.run(
        trace, stream, platform=spec.platform, model=spec.model_label, seed=seed
    )
    wall_s = time.perf_counter() - t0
    assert report.num_served == report.num_requests, "unbounded queue dropped work"
    return {
        "engine": engine,
        "fleet": "single",
        "platforms": [spec.platform],
        "requests": report.num_requests,
        "trace_build_s": trace_s,
        "wall_s": wall_s,
        "rps": report.num_requests / wall_s,
        "rss_mb": peak_rss_mb(),
        "p95_ms": report.latency_ms_p95,
        "total_energy_j": report.total_energy_j,
    }


def _fleet_spec(
    platforms: tuple[str, ...], scale: int, seed: int, steal: bool, **extra
) -> FleetSpec:
    """A fleet spec provisioned so the trace carries ``scale`` requests."""
    probe = FleetSpec(platforms=platforms, duration_s=1.0, seed=seed, **extra)
    fleet_rate = sum(stack.rate_hz for stack in build_fleet_stacks(probe))
    return FleetSpec(
        platforms=platforms,
        duration_s=scale / fleet_rate,
        seed=seed,
        steal=steal,
        **extra,
    )


def run_fleet(
    name: str,
    platforms: tuple[str, ...],
    scale: int,
    engine: str,
    seed: int,
    steal: bool = False,
) -> dict:
    """One fleet cell at ``scale`` total requests across ``platforms``."""
    spec = _fleet_spec(platforms, scale, seed, steal)
    stacks = build_fleet_stacks(spec)
    t0 = time.perf_counter()
    trace, stream = build_fleet_trace_and_stream(spec, stacks)
    trace_s = time.perf_counter() - t0
    simulator = FLEET_ENGINES[engine](spec, stacks)
    t0 = time.perf_counter()
    report = simulator.run(trace, stream)
    wall_s = time.perf_counter() - t0
    if not steal:
        assert report.num_served == report.num_requests, "unbounded fleet dropped work"
    return {
        "engine": engine + ("+steal" if steal else ""),
        "fleet": name,
        "platforms": list(platforms),
        "requests": report.num_requests,
        "trace_build_s": trace_s,
        "wall_s": wall_s,
        "rps": report.num_requests / wall_s,
        "rss_mb": peak_rss_mb(),
        "p95_ms": report.latency_ms_p95,
        "total_energy_j": report.total_energy_j,
        "num_stolen": report.num_stolen,
    }


def check_fleet_identity(
    platforms: tuple[str, ...], scale: int, seed: int
) -> dict:
    """Run both loops on one shared (trace, stream) cell; full-field compare."""
    reports = {}
    for engine, simulator_cls in FLEET_ENGINES.items():
        spec = _fleet_spec(platforms, scale, seed, steal=False)
        stacks = build_fleet_stacks(spec)
        trace, stream = build_fleet_trace_and_stream(spec, stacks)
        reports[engine] = simulator_cls(spec, stacks).run(trace, stream)
    return {
        "scale": scale,
        "platforms": list(platforms),
        "identical": reports["indexed"] == reports["reference"],
    }


def fleet_counter_rollup(
    platforms: tuple[str, ...], scale: int, seed: int
) -> dict:
    """One observed indexed run (with stealing armed) under a live recorder.

    Separate from the timed rows so recorder overhead never lands in the
    throughput contract; surfaces ``fleet.routed`` (one per arrival), the
    ``fleet.batch_size`` histogram and ``fleet.steals`` next to the numbers,
    bench_dynamic_eval style.
    """
    # round_robin + bursty load is the configuration where stealing earns its
    # keep: the load-blind router builds imbalance the governor-horizon thief
    # then drains (backlog-aware routers self-balance and rarely steal).
    spec = _fleet_spec(
        platforms, scale, seed, steal=True,
        pattern="bursty", utilization=0.95, router="round_robin",
    )
    stacks = build_fleet_stacks(spec)
    trace, stream = build_fleet_trace_and_stream(spec, stacks)
    recorder = Recorder()
    obs_trace.install(recorder)
    try:
        FleetSimulator(spec, stacks).run(trace, stream)
    finally:
        obs_trace.uninstall()
    return counter_rollup(recorder)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small scales + relaxed speedup floor (CI)")
    parser.add_argument("--max-scale", type=int, default=None,
                        help="largest trace scale (default 10⁶; smoke 2×10⁴)")
    parser.add_argument("--reference-cap", type=int, default=None,
                        help="largest scale the reference engine runs at "
                             "(default 10⁵; smoke uncapped)")
    parser.add_argument("--speedup-floor", type=float, default=None,
                        help="required indexed/reference rps ratio "
                             "(default 10; smoke 3)")
    parser.add_argument("--fleet-floor", type=float, default=None,
                        help="required fleet indexed/reference rps ratio "
                             "(default 1.25; smoke 1.0)")
    parser.add_argument("--rss-ceiling", type=float, default=2048.0,
                        help="peak RSS ceiling over the whole grid, MiB")
    parser.add_argument("--policy", default="static", choices=("static", "adaptive"),
                        help="governor for the single-device scale runs")
    parser.add_argument("--pattern", default="poisson")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", default=None, help="write rows to this JSON file")
    args = parser.parse_args(argv)

    if args.smoke:
        scales = [5_000, 20_000]
        reference_cap = args.reference_cap or 20_000
        floor = args.speedup_floor or 3.0
        fleet_floor = args.fleet_floor or 1.1
        fleet_scales = [20_000]
        fleets = {"duo": FLEETS["duo"]}
        identity_scale = 5_000
    else:
        scales = [10_000, 100_000, 1_000_000]
        reference_cap = args.reference_cap or 100_000
        floor = args.speedup_floor or 10.0
        fleet_floor = args.fleet_floor or 1.25
        fleet_scales = [10_000, 100_000, 1_000_000]
        fleets = dict(FLEETS)
        identity_scale = 10_000
    if args.max_scale is not None:
        scales = [s for s in scales if s <= args.max_scale] or [args.max_scale]
        fleet_scales = [s for s in fleet_scales if s <= args.max_scale] or [args.max_scale]

    spec = ServingSpec(pattern=args.pattern, policy=args.policy, seed=args.seed)
    rows = []
    header = (
        f"{'engine':>10s} {'fleet':>7s} {'requests':>10s} {'trace s':>8s} "
        f"{'wall s':>8s} {'req/s':>10s} {'RSS MiB':>8s}"
    )
    print(header)
    print("-" * len(header))
    for scale in scales:
        for engine in ("reference", "indexed"):
            if engine == "reference" and scale > reference_cap:
                continue
            row = run_single(spec, scale, engine, args.seed)
            rows.append(row)
            print(
                f"{row['engine']:>10s} {row['fleet']:>7s} {row['requests']:>10d} "
                f"{row['trace_build_s']:8.2f} {row['wall_s']:8.2f} "
                f"{row['rps']:10.0f} {row['rss_mb']:8.0f}"
            )
    def emit(row: dict) -> None:
        rows.append(row)
        print(
            f"{row['engine']:>10s} {row['fleet']:>7s} {row['requests']:>10d} "
            f"{row['trace_build_s']:8.2f} {row['wall_s']:8.2f} "
            f"{row['rps']:10.0f} {row['rss_mb']:8.0f}"
        )

    for scale in fleet_scales:
        for name, platforms in fleets.items():
            for engine in ("reference", "indexed"):
                if engine == "reference" and scale > reference_cap:
                    continue
                emit(run_fleet(name, platforms, scale, engine, args.seed))
    # One stealing row per fleet at the largest scale: measured, but kept out
    # of the speedup contract — stealing departs from the reference semantics.
    for name, platforms in fleets.items():
        emit(run_fleet(name, platforms, fleet_scales[-1], "indexed",
                       args.seed, steal=True))

    identity = check_fleet_identity(
        next(iter(fleets.values())), identity_scale, args.seed
    )
    print(
        f"\nengine identity at {identity['scale']:,} requests "
        f"({'/'.join(identity['platforms'])}): "
        f"{'OK' if identity['identical'] else 'MISMATCH'}"
    )

    reference = [r for r in rows if r["engine"] == "reference"]
    singles = {
        "reference": [r for r in reference if r["fleet"] == "single"],
        "indexed": [r for r in rows
                    if r["engine"] == "indexed" and r["fleet"] == "single"],
    }
    fleet_rows = {
        engine: [r for r in rows if r["engine"] == engine and r["fleet"] != "single"]
        for engine in ("reference", "indexed")
    }
    by_requests = lambda r: r["requests"]  # noqa: E731
    best_reference = max(singles["reference"], key=by_requests)
    largest_indexed = max(singles["indexed"], key=by_requests)
    speedup = largest_indexed["rps"] / best_reference["rps"]
    best_fleet_ref = max(fleet_rows["reference"], key=by_requests)
    largest_fleet_idx = max(fleet_rows["indexed"], key=by_requests)
    fleet_speedup = largest_fleet_idx["rps"] / best_fleet_ref["rps"]
    peak_rss = max(r["rss_mb"] for r in rows)
    summary = {
        "speedup": speedup,
        "speedup_floor": floor,
        "speedup_ok": speedup >= floor,
        "reference_rps": best_reference["rps"],
        "indexed_rps": largest_indexed["rps"],
        "largest_scale": largest_indexed["requests"],
        "fleet_speedup": fleet_speedup,
        "fleet_floor": fleet_floor,
        "fleet_speedup_ok": fleet_speedup >= fleet_floor,
        "fleet_reference_rps": best_fleet_ref["rps"],
        "fleet_indexed_rps": largest_fleet_idx["rps"],
        "fleet_largest_scale": largest_fleet_idx["requests"],
        "fleet_identity_ok": identity["identical"],
        "peak_rss_mb": peak_rss,
        "rss_ceiling_mb": args.rss_ceiling,
        "rss_ok": peak_rss <= args.rss_ceiling,
    }
    print(
        f"indexed engine at {largest_indexed['requests']:,} requests: "
        f"{largest_indexed['rps']:,.0f} simulated req/s — {speedup:.1f}x the "
        f"reference loop ({best_reference['rps']:,.0f} req/s at "
        f"{best_reference['requests']:,})"
    )
    print(
        f"indexed fleet at {largest_fleet_idx['requests']:,} requests "
        f"({largest_fleet_idx['fleet']}): {largest_fleet_idx['rps']:,.0f} req/s — "
        f"{fleet_speedup:.2f}x the reference fleet loop "
        f"({best_fleet_ref['rps']:,.0f} req/s at {best_fleet_ref['requests']:,}); "
        f"peak RSS {peak_rss:,.0f} MiB"
    )
    assert identity["identical"], "indexed fleet engine diverged from reference"
    assert summary["speedup_ok"], (
        f"indexed engine speedup {speedup:.1f}x below the {floor:.0f}x floor"
    )
    assert summary["fleet_speedup_ok"], (
        f"fleet speedup {fleet_speedup:.2f}x below the {fleet_floor:.2f}x floor"
    )
    assert summary["rss_ok"], (
        f"peak RSS {peak_rss:.0f} MiB above the {args.rss_ceiling:.0f} MiB ceiling"
    )

    if args.json:
        counters = fleet_counter_rollup(
            next(iter(fleets.values())), identity_scale, args.seed
        )
        path = save_json(
            {"rows": rows, "summary": summary, "identity": identity,
             "counters": counters},
            args.json,
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
