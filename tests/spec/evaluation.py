"""Spec of the dynamic evaluation D(x, f | b) and its accuracy side.

Production evaluates through cost tables, a stacked population kernel, a
batched oracle pass and fused objective reductions.  Each piece has a
plain twin here, and each twin is a subclass that overrides exactly the
hook it replaces, so everything else stays shared:

* :class:`ReferenceEvaluator` — exit and full paths walked layer by layer
  (:func:`path_costs`), one pair at a time;
* :class:`PerCallEvaluator` — the cost tables, but populations as a loop
  of :meth:`~repro.eval.dynamic.DynamicEvaluator.evaluate` calls, each
  objective vector from :func:`scalar_objectives`;
* :class:`UnfusedEvaluator` — the population kernel without the
  width-grouped reductions: every mean is ``np.mean`` of one row slice;
* :class:`PerPlacementOracle` — oracle statistics one placement at a time
  from the boolean columns, restacked by :func:`stack_exit_evaluations`;
* :class:`SpecInnerEngine` — an IOE run on any of the above.

:func:`profiles_for` and :func:`plan_per_exit_dvfs` are the runtime
planners' per-setting loops.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.accuracy.exit_model import BackboneExitOracle
from repro.eval.dynamic import DynamicEvaluation, DynamicEvaluator
from repro.exits.evaluation import (
    ExitEvaluation,
    PopulationExitStats,
    ideal_mapping_stats,
)
from repro.exits.placement import ExitPlacement, position_matrix
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


def scalar_objectives(
    evaluator: DynamicEvaluator, evaluation: DynamicEvaluation
) -> tuple[float, float, float]:
    """The IOE objective vector of one evaluation, from its own arrays: the
    per-exit means ``np.mean(N_i * dissim_i^gamma)`` and the means of the
    clamped energy and latency savings (raw ratios with
    ``literal_ratios``) — what a :class:`~repro.eval.dynamic.
    DynamicGeneration` holds in the evaluation's ``objectives`` row."""
    stats = evaluation.exit_stats
    dissim = stats.dissimilarity**evaluator.gamma
    d_acc = float(np.mean(stats.n_i * dissim))
    energy_ratio = evaluation.exit_energy_j / evaluator.baseline_energy_j
    latency_ratio = evaluation.exit_latency_s / evaluator.baseline_latency_s
    if evaluator.literal_ratios:
        d_energy = float(np.mean(energy_ratio))
        d_latency = float(np.mean(latency_ratio))
    else:
        d_energy = float(np.mean(np.clip(1.0 - energy_ratio, 0.0, None)))
        d_latency = float(np.mean(np.clip(1.0 - latency_ratio, 0.0, None)))
    return d_acc, d_energy, d_latency


def as_placements(total_layers: int, placements) -> list[ExitPlacement]:
    """``placements`` as validated :class:`ExitPlacement` objects; a
    position matrix is read row by row."""
    if not isinstance(placements, np.ndarray):
        return list(placements)
    positions, widths = position_matrix(placements)
    return [
        ExitPlacement(total_layers, tuple(row[:width]))
        for row, width in zip(positions.tolist(), widths.tolist())
    ]


class EvaluationRows(list):
    """Per-pair evaluations in a list, with the ``(N, 3)`` objective matrix
    and the fig5 points a :class:`~repro.eval.dynamic.DynamicGeneration`
    carries."""

    def __init__(self, rows, objectives: np.ndarray):
        super().__init__(rows)
        self.objectives = objectives

    def points(self) -> np.ndarray:
        """Each row's ``(energy_gain, mean_n_i, dynamic_accuracy)``, read
        from its fields."""
        fields = [(row.energy_gain, row.mean_n_i, row.dynamic_accuracy) for row in self]
        return np.asarray(fields).reshape(len(self), 3)


class PerCallEvaluator(DynamicEvaluator):
    """Populations evaluated as a loop of per-pair :meth:`evaluate` calls.

    A group of one only: ``counts``, when given, names this evaluator's
    rows, and the rows come back as a list of one."""

    def evaluate_population(self, placements, setting, counts=None):
        assert counts is None or list(counts) == [len(placements)], counts
        placements = as_placements(self.oracle.total_layers, placements)
        if isinstance(setting, DvfsSetting):
            settings = [setting] * len(placements)
        else:
            settings = list(setting)
        rows = [self.evaluate(p, s) for p, s in zip(placements, settings)]
        objectives = [scalar_objectives(self, row) for row in rows]
        rows = EvaluationRows(rows, np.asarray(objectives).reshape(len(rows), 3))
        return rows if counts is None else [rows]


class ReferenceEvaluator(PerCallEvaluator):
    """The pre-cost-table evaluator: every path walked layer by layer."""

    def _path_costs(self, positions, setting):
        return path_costs(self, positions, setting)


class UnfusedEvaluator(DynamicEvaluator):
    """The population kernel without the width-grouped reductions.

    Every objective component and every d_score is ``np.mean`` of one row's
    valid slice, one row at a time.
    """

    def _row_means(self, per_exit, widths):
        return np.asarray(
            [
                [np.mean(matrix[row, :width]) for row, width in enumerate(widths.tolist())]
                for matrix in per_exit
            ]
        ).reshape(per_exit.shape[:2])


def stack_exit_evaluations(
    placements: list[ExitPlacement], evaluations: list[ExitEvaluation]
) -> PopulationExitStats:
    """Stack per-placement evaluations into population matrices, values
    copied from each evaluation's arrays; pads are 0.0."""
    positions, widths = position_matrix([p.positions for p in placements])
    count, e_max = positions.shape
    n_i = np.zeros((count, e_max))
    usage_head = np.zeros((count, e_max))
    dissim = np.zeros((count, e_max))
    usage_tail = np.zeros(count)
    dynamic_accuracy = np.zeros(count)
    for j, evaluation in enumerate(evaluations):
        w = int(widths[j])
        n_i[j, :w] = evaluation.n_i
        dissim[j, :w] = evaluation.dissimilarity
        head, tail = evaluation.usage_split
        usage_head[j, :w] = head
        usage_tail[j] = tail
        dynamic_accuracy[j] = evaluation.dynamic_accuracy
    return PopulationExitStats(
        positions=positions,
        widths=widths,
        n_i=n_i,
        usage_head=usage_head,
        usage_tail=usage_tail,
        dissimilarity=dissim,
        dynamic_accuracy=dynamic_accuracy,
        final_accuracy=np.array([evaluation.final_accuracy for evaluation in evaluations]),
    )


class PerPlacementOracle(BackboneExitOracle):
    """Population statistics as a loop of :meth:`evaluate_placement` calls,
    each placement's from its boolean columns.

    :meth:`_assemble_stats` runs :func:`~repro.exits.evaluation.
    ideal_mapping_stats` on the placement's exit columns and the final
    classifier's, so no statistic reads the packed column bank.  The
    columns every placement needs are built up front, so the loop times
    the ideal-mapping statistics alone.
    """

    def _assemble_stats(self, positions):
        return ideal_mapping_stats(
            np.column_stack(
                [self.exit_column(p) for p in positions] + [self.final_column()]
            )
        )

    def evaluate_placements(self, placements, members=None):
        """Every row this oracle's (``members``, if given, names only it)."""
        assert members is None or (np.asarray(members) == self.member).all(), members
        placements = as_placements(self.total_layers, placements)
        for placement in placements:
            if placement.total_layers != self.total_layers:
                raise ValueError(
                    f"placement assumes {placement.total_layers} layers, oracle "
                    f"has {self.total_layers}"
                )
        for position in sorted({p for pl in placements for p in pl.positions}):
            self.exit_column(position)
        self.final_column()
        return stack_exit_evaluations(
            placements, [self.evaluate_placement(placement) for placement in placements]
        )


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
