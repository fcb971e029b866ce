"""``repro serve`` — run the online edge-serving simulator from the shell.

Usage::

    repro serve --trace diurnal --slo-ms 20
    repro serve --trace bursty --scenario battery-budget --policy both
    repro serve --trace poisson --platform agx-gpu --model a0 --json out.json
    repro serve --trace replay --workers 4 --cache-dir .cache/engine
    repro serve --from-result design.json --fleet tx2,xavier --router difficulty_aware
    repro serve --fleet agx-gpu,tx2-gpu,denver-cpu --router all --trace bursty

``--policy both`` (the default) runs the static baseline and the adaptive
governor on the *same* trace and logits stream and prints the comparison.
``--fleet`` switches to multi-device serving: the named platforms (aliases
like ``tx2``/``xavier`` work) sit behind one shared queue and ``--router``
picks the request router (``all`` compares the three routers on the same
trace).  ``--from-result`` mounts the design a ``repro search --out`` run
selected instead of the default AttentiveNAS backbone.  Grid cells go
through the engine's EvaluationService, so ``--workers`` runs them
concurrently and ``--cache-dir`` persists the reports.
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.hardware.platform import (
    PAPER_PLATFORM_ORDER,
    canonical_platform_key,
    resolve_platform_keys,
    validate_platform_keys,
)
from repro.serving.batcher import ADMISSION_MODES
from repro.serving.fleet import FleetSpec, fleet_sweep
from repro.serving.harness import POLICY_NAMES, ServingSpec, sweep
from repro.serving.router import ROUTER_NAMES
from repro.serving.scenarios import SCENARIO_NAMES
from repro.serving.telemetry import (
    render_comparison,
    render_fleet_report,
    render_report,
    render_router_comparison,
)
from repro.serving.workload import LOAD_PATTERNS
from repro.utils.serialization import save_json


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--trace", "--pattern", dest="trace", default="poisson", choices=LOAD_PATTERNS,
        help="load pattern feeding the simulator",
    )
    parser.add_argument("--scenario", default="nominal", choices=SCENARIO_NAMES)
    parser.add_argument(
        "--policy", default="both", choices=POLICY_NAMES + ("both",),
        help="runtime policy; 'both' compares adaptive against the static baseline "
             "(fleet runs use the adaptive governor unless overridden)",
    )
    parser.add_argument("--slo-ms", type=float, default=75.0)
    parser.add_argument("--platform", default="tx2-gpu",
                        help=f"one of: {', '.join(PAPER_PLATFORM_ORDER)} (aliases ok)")
    parser.add_argument("--fleet", default=None,
                        help="comma-separated platforms behind one queue "
                             "(e.g. tx2,xavier); switches to fleet serving")
    parser.add_argument("--router", default="difficulty_aware",
                        choices=ROUTER_NAMES + ("all",),
                        help="fleet request router; 'all' compares every router")
    parser.add_argument("--from-result", dest="from_result", default=None,
                        help="mount the searched design from a `repro search --out` artifact")
    parser.add_argument("--model", default="a3", help="AttentiveNAS backbone a0..a6")
    parser.add_argument("--duration-s", type=float, default=20.0)
    parser.add_argument("--utilization", type=float, default=0.7,
                        help="offered load relative to the reference capacity")
    parser.add_argument("--rate-hz", type=float, default=None,
                        help="explicit mean arrival rate (overrides --utilization)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--num-exits", type=int, default=3)
    parser.add_argument("--max-batch", type=int, default=6)
    parser.add_argument("--batch-timeout-ms", type=float, default=4.0)
    parser.add_argument("--window-ms", type=float, default=400.0)
    parser.add_argument("--critical-fraction", type=float, default=0.0,
                        help="share of arrivals tagged latency-critical "
                             "(per-class percentiles land in the report)")
    parser.add_argument("--admission-queue", type=int, default=None,
                        help="backlog cap; arrivals beyond it are dropped or "
                             "deferred instead of queueing unboundedly")
    parser.add_argument("--admission-mode", default="drop",
                        choices=list(ADMISSION_MODES),
                        help="what happens past the cap (fleet runs are drop-only)")
    parser.add_argument("--steal", action="store_true",
                        help="fleet work stealing at governor horizons")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--executor", default="auto",
                        choices=["auto", "serial", "thread", "process"])
    parser.add_argument("--cache-dir", default=None,
                        help="persistent result cache for serving cells")
    parser.add_argument("--json", default=None, help="write reports to this JSON file")
    parser.add_argument("--trace-out", default=None, metavar="OUT.jsonl",
                        help="record an observability trace + run manifest of "
                             "the sweep (`--trace` names the load pattern; "
                             "inspect with `python -m repro trace summary`)")
    args = parser.parse_args(argv)

    if args.workers <= 0:
        parser.error(f"--workers must be > 0, got {args.workers}")

    design = None
    if args.from_result is not None:
        from repro.serving.deploy import load_design

        try:
            design = load_design(args.from_result)
        except (OSError, ValueError, TypeError, KeyError) as error:
            parser.error(f"cannot load design from {args.from_result}: {error}")
        print(f"mounting {design.describe()}")

    from repro.obs.cli import traced_run

    fleet_platforms = [args.fleet] if args.fleet is not None else [args.platform]
    with traced_run(
        args.trace_out,
        command="repro serve " + " ".join(argv or []),
        config={"pattern": args.trace, "scenario": args.scenario,
                "policy": args.policy, "slo_ms": args.slo_ms},
        seed=args.seed,
        platforms=fleet_platforms,
    ):
        if args.fleet is not None:
            return _serve_fleet(parser, args, design)
        if args.steal:
            parser.error("--steal needs a fleet (use --fleet)")
        return _serve_single(parser, args, design)


def _serve_single(parser, args, design) -> int:
    args.platform = canonical_platform_key(args.platform)
    try:
        validate_platform_keys([args.platform])
    except ValueError as error:
        parser.error(str(error))

    policies = list(POLICY_NAMES) if args.policy == "both" else [args.policy]
    try:
        specs = [
            ServingSpec(
                platform=args.platform,
                model=args.model,
                pattern=args.trace,
                scenario=args.scenario,
                policy=policy,
                slo_ms=args.slo_ms,
                utilization=args.utilization,
                rate_hz=args.rate_hz,
                duration_s=args.duration_s,
                num_exits=args.num_exits,
                seed=args.seed,
                max_batch=args.max_batch,
                batch_timeout_ms=args.batch_timeout_ms,
                window_ms=args.window_ms,
                design=design,
                critical_fraction=args.critical_fraction,
                admission_max_queue=args.admission_queue,
                admission_mode=args.admission_mode,
            )
            for policy in policies
        ]
    except ValueError as error:
        parser.error(str(error))

    reports = sweep(
        specs, workers=args.workers, executor=args.executor, cache_dir=args.cache_dir
    )
    by_policy = dict(zip(policies, reports))
    for report in reports:
        print(render_report(report))
        print()
    if "static" in by_policy and "adaptive" in by_policy:
        print(render_comparison(by_policy["static"], by_policy["adaptive"]))
    if args.json is not None:
        payload = {
            "specs": [dataclasses.asdict(spec) for spec in specs],
            "reports": reports,
        }
        path = save_json(payload, args.json)
        print(f"\nwrote {path}")
    return 0


def _serve_fleet(parser, args, design) -> int:
    try:
        platforms = tuple(
            resolve_platform_keys(
                [key.strip() for key in args.fleet.split(",") if key.strip()]
            )
        )
    except ValueError as error:
        parser.error(str(error))
    if not platforms:
        parser.error("--fleet needs at least one platform (e.g. --fleet tx2,xavier)")
    if args.admission_queue is not None and args.admission_mode != "drop":
        parser.error("fleet admission is drop-only; use --admission-mode drop")

    routers = list(ROUTER_NAMES) if args.router == "all" else [args.router]
    policy = "adaptive" if args.policy == "both" else args.policy
    try:
        specs = [
            FleetSpec(
                platforms=platforms,
                model=args.model,
                pattern=args.trace,
                scenario=args.scenario,
                policy=policy,
                router=router,
                slo_ms=args.slo_ms,
                utilization=args.utilization,
                rate_hz=args.rate_hz,
                duration_s=args.duration_s,
                num_exits=args.num_exits,
                seed=args.seed,
                max_batch=args.max_batch,
                batch_timeout_ms=args.batch_timeout_ms,
                window_ms=args.window_ms,
                design=design,
                critical_fraction=args.critical_fraction,
                admission_max_queue=args.admission_queue,
                steal=args.steal,
            )
            for router in routers
        ]
    except ValueError as error:
        parser.error(str(error))

    reports = fleet_sweep(
        specs, workers=args.workers, executor=args.executor, cache_dir=args.cache_dir
    )
    by_router = dict(zip(routers, reports))
    for report in reports:
        print(render_fleet_report(report))
        print()
    if "round_robin" in by_router:
        for name in ("least_backlog", "difficulty_aware"):
            if name in by_router:
                print(render_router_comparison(by_router["round_robin"], by_router[name]))
    if args.json is not None:
        payload = {
            "specs": [dataclasses.asdict(spec) for spec in specs],
            "reports": reports,
        }
        path = save_json(payload, args.json)
        print(f"\nwrote {path}")
    return 0
