"""Spec of the dynamic evaluation D(x, f | b) and its accuracy side.

Production evaluates through cost tables, a stacked population kernel, a
batched oracle pass and fused objective reductions.  Each piece has a
plain twin here, and each twin is a subclass that overrides exactly the
hook it replaces, so everything else stays shared:

* :class:`ReferenceEvaluator` — exit and full paths walked layer by layer
  (:func:`path_costs`), one pair at a time;
* :class:`PerCallEvaluator` — the cost tables, but populations as a loop
  of :meth:`~repro.eval.dynamic.DynamicEvaluator.evaluate` calls;
* :class:`UnfusedEvaluator` — the population kernel without the fused
  objective pass: :meth:`objectives` recomputes every vector;
* :class:`PerPlacementOracle` — oracle statistics one placement at a time;
* :class:`SpecInnerEngine` — an IOE run on any of the above.

:func:`profiles_for` and :func:`plan_per_exit_dvfs` are the runtime
planners' per-setting loops.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.accuracy.exit_model import BackboneExitOracle
from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import ExitPlacement
from repro.hardware.dvfs import DvfsSetting, DvfsSpace
from repro.hardware.energy import EnergyReport, PathProfile
from repro.runtime.governor import DvfsGovernor
from repro.runtime.planner import PerExitPlan
from repro.search.ioe import InnerEngine
from spec import hardware


def exit_path_report(
    evaluator: DynamicEvaluator,
    positions: tuple[int, ...],
    upto: int,
    setting: DvfsSetting,
) -> EnergyReport:
    """Energy report of executing to exit index ``upto``: the backbone
    prefix plus every branch up to and including that exit's."""
    layers = list(evaluator.cost.prefix(positions[upto]))
    layers.extend(evaluator.branch_cost(p) for p in positions[: upto + 1])
    return hardware.composite_report(evaluator.energy_model, layers, setting)


def full_path_report(
    evaluator: DynamicEvaluator, positions: tuple[int, ...], setting: DvfsSetting
) -> EnergyReport:
    """Energy report of the full network plus every branch."""
    layers = list(evaluator.cost.layers)
    layers.extend(evaluator.branch_cost(p) for p in positions)
    return hardware.composite_report(evaluator.energy_model, layers, setting)


def path_costs(
    evaluator: DynamicEvaluator, positions: tuple[int, ...], setting: DvfsSetting
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``(exit_energy, exit_latency, full_energy, full_latency)`` by walking
    every path layer by layer — what ``DynamicEvaluator._path_costs``
    gathers from its cost tables."""
    positions = tuple(positions)
    exit_reports = [
        exit_path_report(evaluator, positions, i, setting)
        for i in range(len(positions))
    ]
    full = full_path_report(evaluator, positions, setting)
    return (
        np.asarray([r.energy_j for r in exit_reports]),
        np.asarray([r.latency_s for r in exit_reports]),
        full.energy_j,
        full.latency_s,
    )


class PerCallEvaluator(DynamicEvaluator):
    """Populations evaluated as a loop of per-pair :meth:`evaluate` calls."""

    def evaluate_population(self, placements, setting):
        placements = list(placements)
        if isinstance(setting, DvfsSetting):
            settings = [setting] * len(placements)
        else:
            settings = list(setting)
        return [self.evaluate(p, s) for p, s in zip(placements, settings)]


class ReferenceEvaluator(PerCallEvaluator):
    """The pre-cost-table evaluator: every path walked layer by layer."""

    def _path_costs(self, positions, setting):
        return path_costs(self, positions, setting)


class UnfusedEvaluator(DynamicEvaluator):
    """The population kernel without the fused objective pass.

    No objective vectors are reduced alongside the evaluations, and
    :meth:`objectives` computes each vector from the evaluation's arrays on
    every call, with no memo.
    """

    def _fused_objectives(self, *args):
        return ()

    def objectives(self, evaluation):
        return self._scalar_objectives(evaluation)


class PerPlacementOracle(BackboneExitOracle):
    """Population statistics as a loop of :meth:`evaluate_placement` calls.

    The columns every placement needs are built up front, so the loop
    times the ideal-mapping statistics alone.
    """

    def evaluate_placements(self, placements):
        for placement in placements:
            if placement.total_layers != self.total_layers:
                raise ValueError(
                    f"placement assumes {placement.total_layers} layers, oracle "
                    f"has {self.total_layers}"
                )
        for position in sorted({p for pl in placements for p in pl.positions}):
            self.exit_column(position)
        self.final_column()
        return [self.evaluate_placement(placement) for placement in placements]


class SpecInnerEngine(InnerEngine):
    """An :class:`InnerEngine` whose evaluator and oracle are spec classes.

    Same arguments as the production engine, plus the two classes; the
    engine is built as usual and its evaluator and oracle are then rebuilt
    from the spec classes with identical settings.
    """

    def __init__(
        self,
        *args,
        evaluator_cls: type[DynamicEvaluator] = DynamicEvaluator,
        oracle_cls: type[BackboneExitOracle] = BackboneExitOracle,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        built = self.evaluator
        oracle = built.oracle
        fields = {
            f.name: getattr(built, f.name)
            for f in dataclasses.fields(DynamicEvaluator)
            if f.init and not f.name.startswith("_")
        }
        fields["oracle"] = oracle_cls(
            oracle.backbone_key,
            oracle.total_layers,
            oracle.backbone_accuracy,
            model=oracle.model,
            difficulty=oracle.difficulty,
            n_samples=oracle.n_samples,
            seed=oracle.seed,
            cache=oracle.cache,
        )
        self.evaluator = evaluator_cls(**fields)
        self.problem.evaluator = self.evaluator


def profiles_for(
    evaluator: DynamicEvaluator, placement: ExitPlacement, governor: DvfsGovernor
) -> list[PathProfile]:
    """Per-path execution profiles under a (per-exit) DVFS map, by walking
    each path's layers through the timing kernel."""
    positions = placement.positions
    profiles = []
    for index in range(len(positions) + 1):
        if index < len(positions):
            layers = list(evaluator.cost.prefix(positions[index]))
            layers.extend(evaluator.branch_cost(p) for p in positions[: index + 1])
        else:
            layers = list(evaluator.cost.layers)
            layers.extend(evaluator.branch_cost(p) for p in positions)
        profiles.append(
            hardware.path_profile(
                evaluator.energy_model, layers, governor.setting_for(index)
            )
        )
    return profiles


def plan_per_exit_dvfs(
    evaluator: DynamicEvaluator,
    placement: ExitPlacement,
    dvfs_space: DvfsSpace,
    latency_slack: float = 1.5,
) -> PerExitPlan:
    """:func:`repro.runtime.planner.plan_per_exit_dvfs` costing one setting
    at a time through ``evaluator._path_costs`` (layer walks on a
    :class:`ReferenceEvaluator`)."""
    positions = placement.positions
    default = dvfs_space.default_setting()
    usage = evaluator.oracle.evaluate_placement(placement).usage

    def all_path_costs(setting: DvfsSetting) -> tuple[np.ndarray, np.ndarray]:
        exit_energy, exit_latency, full_energy, full_latency = evaluator._path_costs(
            positions, setting
        )
        return (
            np.append(exit_energy, full_energy),
            np.append(exit_latency, full_latency),
        )

    default_energy, default_latency = all_path_costs(default)
    candidate_costs = [
        (setting, *all_path_costs(setting)) for setting in dvfs_space.all_settings()
    ]
    settings: dict[int, DvfsSetting] = {}
    per_exit_energy = np.zeros(len(positions) + 1)
    for index in range(len(positions) + 1):
        bound = default_latency[index] * latency_slack
        best_setting, best_energy = default, default_energy[index]
        for setting, energies, latencies in candidate_costs:
            if latencies[index] <= bound and energies[index] < best_energy:
                best_setting, best_energy = setting, energies[index]
        settings[index] = best_setting
        per_exit_energy[index] = best_energy

    def expected_energy(energies: np.ndarray) -> float:
        return float(sum(usage[i] * energies[i] for i in range(len(usage))))

    full_bound = default_latency[len(positions)] * latency_slack
    feasible = [
        (setting, energies)
        for setting, energies, latencies in candidate_costs
        if latencies[len(positions)] <= full_bound
    ]
    single_best = min(
        feasible or [(default, default_energy)],
        key=lambda item: expected_energy(item[1]),
    )
    return PerExitPlan(
        placement=placement,
        settings=settings,
        single_setting_energy_j=expected_energy(single_best[1]),
        per_exit_energy_j=float(usage @ per_exit_energy),
    )


def balanced_setting(
    evaluator: DynamicEvaluator, placement: ExitPlacement, plan: PerExitPlan
) -> DvfsSetting:
    """The ladder's "balanced" tier: the plan setting with the cheapest
    full path, costing one candidate at a time (first minimum wins)."""
    return min(
        plan.settings.values(),
        key=lambda s: evaluator._path_costs(placement.positions, s)[2],
    )
