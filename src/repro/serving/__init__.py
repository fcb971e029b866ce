"""Online edge-serving: trace-driven simulation with adaptive runtime scaling.

HADAS's output is a *dynamic* model — backbone + early exits + DVFS — whose
value shows at deployment, under real traffic.  This package serves
timestamped request streams through searched designs:

* :mod:`~repro.serving.workload` — load generators (Poisson, bursty MMPP,
  diurnal, replayed flash-crowd traces) with per-request difficulty;
* :mod:`~repro.serving.batcher` — the array-backed micro-batcher (size
  cap / head-of-line timeout) and queue-depth admission control
  (drop/defer, critical bypass);
* :mod:`~repro.serving.stream` — difficulty-conditioned logits so the real
  entropy controllers make the exit decisions;
* :mod:`~repro.serving.governor` — the runtime-config ladder (exit-rate ×
  DVFS tier) and the adaptive governor vs the static baseline;
* :mod:`~repro.serving.scenarios` — thermal-cap and battery-budget
  environments;
* :mod:`~repro.serving.simulator` — the discrete-event loop with batched
  hardware pricing and SLO telemetry;
* :mod:`~repro.serving.harness` — spec → report cells, fanned out through
  the engine's :class:`~repro.engine.service.EvaluationService`;
* :mod:`~repro.serving.deploy` — the searched-design mount
  (``repro search --out`` → ``repro serve --from-result``);
* :mod:`~repro.serving.router` — fleet request routers (round-robin,
  least-backlog, difficulty-aware);
* :mod:`~repro.serving.fleet` — N heterogeneous devices behind one queue,
  with per-device governors and fleet-level telemetry.

Entry points: ``repro serve ...`` (CLI), ``benchmarks/bench_serving.py``
and ``benchmarks/bench_fleet.py``.
"""

from repro.serving.batcher import (
    ADMISSION_MODES,
    AdmissionPolicy,
    ArrayBatcher,
    BatchPolicy,
)
from repro.serving.governor import (
    AdaptiveGovernor,
    GovernorObservation,
    RuntimeConfig,
    ServingPolicy,
    StaticPolicy,
    plan_config_ladder,
    static_config_for,
)
from repro.serving.harness import (
    SERVING_CELL_VERSION,
    ServingSpec,
    ServingStack,
    build_serving_stack,
    build_trace_and_stream,
    run_serving_cell,
    sweep,
)
from repro.serving.deploy import (
    DeployedDesign,
    design_from_individual,
    load_design,
    save_design,
)
from repro.serving.fleet import (
    FLEET_CELL_VERSION,
    DeviceTelemetry,
    FleetReport,
    FleetSimulator,
    FleetSpec,
    build_fleet_stacks,
    build_fleet_trace_and_stream,
    fleet_sweep,
    run_fleet_cell,
)
from repro.serving.router import (
    ROUTER_NAMES,
    DifficultyAwareRouter,
    FleetRouter,
    LeastBacklogRouter,
    RoundRobinRouter,
    make_router,
)
from repro.serving.scenarios import SCENARIO_NAMES, SCENARIOS, Scenario, get_scenario
from repro.serving.simulator import (
    CompiledStream,
    ServingSimulator,
    compile_stream,
)
from repro.serving.stream import LogitsSynthesizer, ServingStream
from repro.serving.telemetry import (
    ServingReport,
    class_latency_stats,
    render_comparison,
    render_fleet_report,
    render_report,
    render_router_comparison,
)
from repro.serving.workload import (
    BEST_EFFORT,
    LATENCY_CRITICAL,
    LOAD_PATTERNS,
    SLO_CLASSES,
    Request,
    Trace,
    bursty_trace,
    diurnal_trace,
    flash_crowd_trace,
    make_trace,
    poisson_trace,
    replay_trace,
)

__all__ = [
    "ADMISSION_MODES",
    "AdaptiveGovernor",
    "AdmissionPolicy",
    "ArrayBatcher",
    "BEST_EFFORT",
    "BatchPolicy",
    "CompiledStream",
    "LATENCY_CRITICAL",
    "SLO_CLASSES",
    "DeployedDesign",
    "DeviceTelemetry",
    "DifficultyAwareRouter",
    "FLEET_CELL_VERSION",
    "FleetReport",
    "FleetRouter",
    "FleetSimulator",
    "FleetSpec",
    "GovernorObservation",
    "LOAD_PATTERNS",
    "LeastBacklogRouter",
    "ROUTER_NAMES",
    "RoundRobinRouter",
    "LogitsSynthesizer",
    "Request",
    "RuntimeConfig",
    "SCENARIO_NAMES",
    "SCENARIOS",
    "SERVING_CELL_VERSION",
    "Scenario",
    "ServingPolicy",
    "ServingReport",
    "ServingSimulator",
    "ServingSpec",
    "ServingStack",
    "ServingStream",
    "StaticPolicy",
    "Trace",
    "build_fleet_stacks",
    "build_fleet_trace_and_stream",
    "build_serving_stack",
    "build_trace_and_stream",
    "bursty_trace",
    "class_latency_stats",
    "compile_stream",
    "design_from_individual",
    "diurnal_trace",
    "flash_crowd_trace",
    "fleet_sweep",
    "get_scenario",
    "load_design",
    "make_router",
    "make_trace",
    "plan_config_ladder",
    "poisson_trace",
    "render_comparison",
    "render_fleet_report",
    "render_report",
    "render_router_comparison",
    "replay_trace",
    "run_fleet_cell",
    "run_serving_cell",
    "save_design",
    "static_config_for",
    "sweep",
]
