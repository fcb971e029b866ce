"""Serving cells: spec → stack → report, and the concurrent sweep.

A :class:`ServingSpec` fully describes one serving run (platform, model,
load pattern, scenario, policy, SLO, seed ...) as plain JSON-able fields,
and a :class:`ServingStack` is what one spec builds once: the deployed
DyNN, its config ladder, the static baseline and the serving policy
(:meth:`ServingStack.make_policy`, for the single device and every fleet
lane alike).  :func:`run_serving_cell` is the pure module-level function
evaluating one spec — picklable for the process executor and
content-addressable for the persistent
:class:`~repro.engine.cache.ResultCache` — and :func:`sweep` fans a grid of
specs through the :class:`~repro.engine.service.EvaluationService` so a
full scenario grid runs concurrently with results keyed into the cache;
the fleet's ``fleet_sweep`` runs through the same helper.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.accuracy.exit_model import BackboneExitOracle
from repro.accuracy.surrogate import AccuracySurrogate
from repro.baselines.attentivenas import ATTENTIVENAS_MODELS, attentivenas_model
from repro.engine.cache import ResultCache
from repro.engine.service import EvaluationService
from repro.engine.tasks import spec_task, task_spec
from repro.eval.dynamic import DynamicEvaluator
from repro.eval.static import StaticEvaluator
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement
from repro.hardware.dvfs import DvfsSpace
from repro.hardware.energy import EnergyModel
from repro.hardware.platform import get_platform, validate_platform_keys
from repro.serving import workload
from repro.serving.batcher import ADMISSION_MODES, AdmissionPolicy, BatchPolicy
from repro.serving.deploy import DeployedDesign
from repro.serving.governor import (
    AdaptiveGovernor,
    RuntimeConfig,
    ServingPolicy,
    StaticPolicy,
    plan_config_ladder,
    static_config_for,
)
from repro.serving.scenarios import Scenario, get_scenario
from repro.serving.simulator import ServingSimulator
from repro.serving.stream import LogitsSynthesizer, ServingStream
from repro.serving.telemetry import ServingReport
from repro.serving.workload import LOAD_PATTERNS, Trace
from repro.utils.validation import check_nonneg, check_positive

#: Bump when serving-cell semantics change; orphans persisted serving entries.
SERVING_CELL_VERSION = "2"

POLICY_NAMES = ("static", "adaptive")


@dataclass(frozen=True)
class ServingSpec:
    """Everything one serving run depends on, as plain data.

    ``design`` mounts a searched :class:`~repro.serving.deploy.
    DeployedDesign` — the backbone, exit placement and accuracy then come
    from the search output instead of the named AttentiveNAS model with the
    default exit spread (``model``/``num_exits`` are ignored for the mount
    but kept in the cache key via the design itself).
    """

    platform: str = "tx2-gpu"
    model: str = "a3"
    pattern: str = "poisson"
    scenario: str = "nominal"
    policy: str = "adaptive"
    slo_ms: float = 75.0
    utilization: float = 0.7  # offered load relative to reference capacity
    rate_hz: float | None = None  # explicit arrival rate overrides utilization
    duration_s: float = 20.0
    num_exits: int = 3
    seed: int = 7
    max_batch: int = 6
    batch_timeout_ms: float = 4.0
    window_ms: float = 400.0
    num_classes: int = 10
    calibration_samples: int = 512
    design: DeployedDesign | None = None
    critical_fraction: float = 0.0  # share of latency-critical arrivals
    admission_max_queue: int | None = None  # backlog cap; None = unbounded
    admission_mode: str = "drop"  # "drop" | "defer" when a cap is set
    admission_critical_bypass: bool = True  # criticals ignore the cap

    def __post_init__(self):
        validate_platform_keys([self.platform])
        if self.design is None and self.model not in ATTENTIVENAS_MODELS:
            raise ValueError(
                f"unknown model {self.model!r}; valid: {ATTENTIVENAS_MODELS}"
            )
        if self.pattern not in LOAD_PATTERNS:
            raise ValueError(
                f"unknown load pattern {self.pattern!r}; valid: {LOAD_PATTERNS}"
            )
        get_scenario(self.scenario)  # raises with the valid names
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}; valid: {POLICY_NAMES}")
        check_positive("slo_ms", self.slo_ms)
        check_positive("duration_s", self.duration_s)
        check_positive("num_exits", self.num_exits)
        check_positive("utilization", self.utilization)
        check_positive("max_batch", self.max_batch)
        check_nonneg("batch_timeout_ms", self.batch_timeout_ms)
        check_positive("window_ms", self.window_ms)
        if self.rate_hz is not None:
            check_positive("rate_hz", self.rate_hz)
        if not 0.0 <= self.critical_fraction <= 1.0:
            raise ValueError("critical_fraction must lie in [0, 1]")
        if self.admission_mode not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {self.admission_mode!r}; "
                f"valid: {ADMISSION_MODES}"
            )
        if self.admission_max_queue is not None:
            check_positive("admission_max_queue", self.admission_max_queue)

    def admission_policy(self) -> AdmissionPolicy | None:
        """The admission gate this spec configures (None = admit everything)."""
        if self.admission_max_queue is None:
            return None
        return AdmissionPolicy(
            max_queue=self.admission_max_queue,
            mode=self.admission_mode,
            critical_bypass=self.admission_critical_bypass,
        )

    @property
    def model_label(self) -> str:
        """What telemetry reports as the served model."""
        if self.design is not None:
            return f"{self.design.label}:{self.design.backbone.key}"
        return self.model


@dataclass
class ServingStack:
    """Everything built once per (platform, model, seed) serving setup."""

    spec: ServingSpec
    evaluator: DynamicEvaluator
    placement: ExitPlacement
    synthesizer: LogitsSynthesizer
    ladder: list[RuntimeConfig]
    static_config: RuntimeConfig
    batch_policy: BatchPolicy
    scenario: Scenario
    rate_hz: float

    def make_policy(self) -> ServingPolicy:
        """The spec's serving policy on this stack: the static baseline or
        the adaptive governor over the ladder."""
        if self.spec.policy == "static":
            return StaticPolicy(self.static_config)
        return AdaptiveGovernor(self.ladder, self.batch_policy)

    def battery_budget_j(self, num_requests: int) -> float | None:
        """Absolute allowance: scenario scale × static-baseline spend."""
        if self.scenario.battery_scale is None:
            return None
        return (
            self.scenario.battery_scale
            * self.static_config.expected_energy_j
            * max(num_requests, 1)
        )


def reference_config(ladder: list[RuntimeConfig]) -> RuntimeConfig:
    """The mid-rate "balanced" rung: the device's comparable-load anchor.

    Used both to size offered load (utilization × its capacity) and, by the
    fleet routers, as each device's capacity/energy reference.
    """
    balanced = [c for c in ladder if c.name.endswith("-balanced")]
    return balanced[len(balanced) // 2]


def default_placement(total_layers: int, num_exits: int) -> ExitPlacement:
    """Exits spread over the backbone's depth (30–80 % of the layers)."""
    fractions = np.linspace(0.3, 0.8, num_exits)
    positions = sorted(
        {
            int(np.clip(round(f * total_layers), MIN_EXIT_POSITION, total_layers - 1))
            for f in fractions
        }
    )
    return ExitPlacement(total_layers, tuple(positions))


def build_serving_stack(spec: ServingSpec) -> ServingStack:
    """Materialise the full serving stack for one spec."""
    platform = get_platform(spec.platform)
    if spec.design is not None:
        backbone = spec.design.backbone
        accuracy = spec.design.backbone_accuracy
    else:
        backbone = attentivenas_model(spec.model)
        accuracy = None
    surrogate = AccuracySurrogate(seed=spec.seed)
    static_eval = StaticEvaluator(platform, surrogate, seed=spec.seed)
    static = static_eval.evaluate(backbone)
    if accuracy is None:
        accuracy = surrogate.accuracy_fraction(backbone)
    oracle = BackboneExitOracle(
        backbone.key, backbone.total_mbconv_layers, accuracy, seed=spec.seed
    )
    evaluator = DynamicEvaluator(
        config=backbone,
        cost=static_eval.cost(backbone),
        oracle=oracle,
        energy_model=EnergyModel(platform),
        baseline_energy_j=static.energy_j,
        baseline_latency_s=static.latency_s,
    )
    if spec.design is not None:
        placement = spec.design.placement()
    else:
        placement = default_placement(backbone.total_mbconv_layers, spec.num_exits)
    synthesizer = LogitsSynthesizer(
        placement=placement,
        backbone_accuracy=accuracy,
        num_classes=spec.num_classes,
        seed=spec.seed,
    )
    calibration = synthesizer.calibration_stream(spec.calibration_samples)
    batch_policy = BatchPolicy(spec.max_batch, spec.batch_timeout_ms / 1e3)
    ladder = plan_config_ladder(evaluator, placement, DvfsSpace(platform), calibration)

    # Offered load is tied to the device: utilization × the capacity of the
    # mid-rate "balanced" rung, so every platform is stressed comparably.
    reference = reference_config(ladder)
    if spec.rate_hz is not None:
        rate_hz = spec.rate_hz
    else:
        rate_hz = spec.utilization * reference.capacity_rps(batch_policy)

    static_config = static_config_for(
        ladder, rate_hz, spec.slo_ms / 1e3, batch_policy
    )
    return ServingStack(
        spec=spec,
        evaluator=evaluator,
        placement=placement,
        synthesizer=synthesizer,
        ladder=ladder,
        static_config=static_config,
        batch_policy=batch_policy,
        scenario=get_scenario(spec.scenario),
        rate_hz=rate_hz,
    )


def build_trace_and_stream(stack: ServingStack) -> tuple[Trace, ServingStream]:
    """The paired (trace, logits) inputs both policies are compared on."""
    spec = stack.spec
    trace = workload.make_trace(
        spec.pattern,
        stack.rate_hz,
        spec.duration_s,
        seed=spec.seed,
        critical_fraction=spec.critical_fraction,
    )
    stream = stack.synthesizer.synthesize(trace.difficulties())
    return trace, stream


def run_serving_cell(spec: ServingSpec) -> ServingReport:
    """Evaluate one grid cell: pure function of the spec (cache-safe)."""
    stack = build_serving_stack(spec)
    trace, stream = build_trace_and_stream(stack)
    simulator = ServingSimulator(
        evaluator=stack.evaluator,
        placement=stack.placement,
        policy=stack.make_policy(),
        ladder=stack.ladder,
        scenario=stack.scenario,
        slo_s=spec.slo_ms / 1e3,
        batch_policy=stack.batch_policy,
        window_s=spec.window_ms / 1e3,
        battery_budget_j=stack.battery_budget_j(trace.num_requests),
        admission=spec.admission_policy(),
    )
    return simulator.run(
        trace, stream, platform=spec.platform, model=spec.model_label, seed=spec.seed
    )


def cell_cache_key(cache: ResultCache, spec: ServingSpec):
    """Content address of one serving cell in the persistent cache."""
    return cache.key(
        "serving",
        version=SERVING_CELL_VERSION,
        spec=dataclasses.asdict(spec),
    )


def sweep(
    specs: list[ServingSpec],
    service: EvaluationService | None = None,
    workers: int = 1,
    executor: str = "auto",
    cache_dir: str | None = None,
) -> list[ServingReport]:
    """Run a grid of serving cells concurrently through the engine.

    Results come back in submission order; cells sharing a spec are
    deduplicated within the batch and, with ``cache_dir`` set, persist
    across runs under the ``serving`` cache namespace.
    """
    return _sweep_cells(
        "serving-cell", cell_cache_key, ServingReport, specs, service, workers, executor, cache_dir
    )


def _sweep_cells(kind, key_of, cls, specs, service, workers, executor, cache_dir) -> list:
    """Evaluate one ``kind`` task per spec (:func:`sweep`, and the fleet's
    ``fleet_sweep``), each keyed by ``key_of(cache, spec)`` when the
    service has a cache, on ``service`` or on one built for the call."""
    owned = service is None
    if service is None:
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        service = EvaluationService(executor=executor, workers=workers, cache=cache)
    try:
        # Codec-backed: a spec *is* the slim task payload, so the
        # multi-worker ``auto`` executor runs the grid on its process pool.
        tasks = [
            spec_task(
                task_spec(kind, spec=spec),
                # `is not None`, not truthiness: an *empty* ResultCache has
                # len() == 0 and would otherwise be skipped on first use.
                key=key_of(service.cache, spec) if service.cache is not None else None,
                cls=cls,
            )
            for spec in specs
        ]
        return service.evaluate_batch(tasks)
    except BaseException:
        if owned:
            service.close(cancel=True)  # drop queued cells; leak no workers
        raise
    finally:
        if owned:
            service.close()
