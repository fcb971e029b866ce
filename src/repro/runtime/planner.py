"""Per-exit DVFS planning (the Predictive-Exit-style extension).

HADAS searches a single operating point per DyNN; related work (EdgeBERT
[13], Predictive Exit [14]) scales frequency per exit decision.  This module
plans such a per-exit table on top of a searched design: for every exit path
it sweeps the platform grid for the energy-optimal setting subject to a
latency budget, producing the table a :class:`~repro.runtime.governor.
DvfsGovernor` consumes.  ``examples/dvfs_sweep.py`` and the ablation bench
quantify the additional savings over the single-setting design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import ExitPlacement
from repro.hardware.dvfs import DvfsSetting, DvfsSpace


@dataclass(frozen=True)
class PerExitPlan:
    """Planned per-exit operating points and their expected savings."""

    placement: ExitPlacement
    settings: dict[int, DvfsSetting]  # exit index -> setting (index E = full)
    single_setting_energy_j: float
    per_exit_energy_j: float

    @property
    def extra_gain(self) -> float:
        """Energy saved by per-exit scaling over the best single setting."""
        if self.single_setting_energy_j <= 0:
            return 0.0
        return 1.0 - self.per_exit_energy_j / self.single_setting_energy_j


def plan_per_exit_dvfs(
    evaluator: DynamicEvaluator,
    placement: ExitPlacement,
    dvfs_space: DvfsSpace,
    latency_slack: float = 1.5,
) -> PerExitPlan:
    """Choose an energy-optimal setting per exit path.

    Parameters
    ----------
    evaluator:
        The backbone's dynamic evaluator (supplies per-path energy reports).
    placement:
        The exit configuration being deployed.
    latency_slack:
        Per-path latency bound as a multiple of the path's latency at
        maximum clocks; prevents the planner trading unbounded latency for
        energy.

    Notes
    -----
    The expected energies are usage-weighted with the same ideal-mapping
    fractions the design-time objective uses, so ``extra_gain`` is directly
    comparable with the searched single-setting result.

    Every setting's path costs come from one population gather over the
    evaluator's cost-table bank (:meth:`PopulationKernel.path_costs`, one
    row per setting), bit-identical to costing the settings one by one.
    """
    if latency_slack < 1.0:
        raise ValueError(f"latency_slack must be >= 1, got {latency_slack}")
    positions = placement.positions
    default = dvfs_space.default_setting()
    usage = evaluator.oracle.evaluate_placement(placement).usage
    candidates = dvfs_space.all_settings()

    # Row 0 is the default setting, then one row per candidate; columns run
    # over every path (exits then full).
    costs = evaluator.population.path_costs(
        [positions] * (len(candidates) + 1), [default, *candidates]
    )
    energies = np.column_stack([costs.exit_energy_j, costs.full_energy_j])
    latencies = np.column_stack([costs.exit_latency_s, costs.full_latency_s])
    default_energy, default_latency = energies[0], latencies[0]
    candidate_costs = list(zip(candidates, energies[1:], latencies[1:]))

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

    # Best single setting under the same slack rule, for a fair comparison.
    def expected_energy(energies: np.ndarray) -> float:
        return float(
            sum(usage[i] * energies[i] for i in range(len(usage)))
        )

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
