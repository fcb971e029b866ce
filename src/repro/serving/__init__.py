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

Importing the package imports none of its modules: each name below loads
its module on first access (PEP 562), so a search that only needs
:mod:`~repro.serving.deploy` does not load the simulator, the fleet or the
runtime.
"""

from __future__ import annotations

import importlib

#: Public names by the module that defines them.
_EXPORTS = {
    "batcher": ("ADMISSION_MODES", "AdmissionPolicy", "ArrayBatcher", "BatchPolicy"),
    "governor": (
        "AdaptiveGovernor",
        "GovernorObservation",
        "RuntimeConfig",
        "ServingPolicy",
        "StaticPolicy",
        "plan_config_ladder",
        "static_config_for",
    ),
    "harness": (
        "SERVING_CELL_VERSION",
        "ServingSpec",
        "ServingStack",
        "build_serving_stack",
        "build_trace_and_stream",
        "run_serving_cell",
        "sweep",
    ),
    "deploy": ("DeployedDesign", "design_from_individual", "load_design", "save_design"),
    "fleet": (
        "FLEET_CELL_VERSION",
        "DeviceTelemetry",
        "FleetReport",
        "FleetSimulator",
        "FleetSpec",
        "build_fleet_stacks",
        "build_fleet_trace_and_stream",
        "fleet_sweep",
        "run_fleet_cell",
    ),
    "router": (
        "ROUTER_NAMES",
        "DifficultyAwareRouter",
        "FleetRouter",
        "LeastBacklogRouter",
        "RoundRobinRouter",
        "make_router",
    ),
    "scenarios": ("SCENARIO_NAMES", "SCENARIOS", "Scenario", "get_scenario"),
    "simulator": ("CompiledStream", "ServingSimulator", "compile_stream"),
    "stream": ("LogitsSynthesizer", "ServingStream"),
    "telemetry": (
        "ServingReport",
        "class_latency_stats",
        "render_comparison",
        "render_fleet_report",
        "render_report",
        "render_router_comparison",
    ),
    "workload": (
        "BEST_EFFORT",
        "LATENCY_CRITICAL",
        "LOAD_PATTERNS",
        "SLO_CLASSES",
        "Request",
        "Trace",
        "bursty_trace",
        "diurnal_trace",
        "flash_crowd_trace",
        "make_trace",
        "poisson_trace",
        "replay_trace",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
