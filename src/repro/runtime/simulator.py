"""Deployment simulation: controller + governor + hardware over a stream.

Replays per-sample exit decisions against the per-exit execution costs to
report what a deployed DyNN would actually deliver — the bridge between the
design-time ideal-mapping objective and a realistic entropy-thresholded
deployment (quantified in ``examples/edge_deployment.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import ExitPlacement
from repro.runtime.controller import ExitController
from repro.runtime.governor import DvfsGovernor


@dataclass(frozen=True)
class RuntimeReport:
    """Aggregate deployment statistics over a sample stream."""

    accuracy: float
    mean_energy_j: float
    mean_latency_s: float
    exit_usage: np.ndarray  # fraction per exit, last = full network
    switching_energy_j: float

    @property
    def early_exit_fraction(self) -> float:
        return float(self.exit_usage[:-1].sum())


class StreamSimulator:
    """Simulates deployment of one (b, x, f) design on a logits stream."""

    def __init__(
        self,
        evaluator: DynamicEvaluator,
        placement: ExitPlacement,
        governor: DvfsGovernor,
    ):
        self.evaluator = evaluator
        self.placement = placement
        self.governor = governor
        self._path_costs: dict[tuple[float, float], tuple[list, list]] = {}

    def _path_cost(self, exit_index: int) -> tuple[float, float]:
        """(energy, latency) of leaving at ``exit_index`` under its setting.

        Each setting's paths (exits then full) come from one read of its
        cost-table view.
        """
        setting = self.governor.setting_for(exit_index)
        key = (setting.core_ghz, setting.emc_ghz)
        if key not in self._path_costs:
            table = self.evaluator.bank.table(setting)
            energy, latency = table.path_costs(self.placement.positions)
            self._path_costs[key] = (energy.tolist(), latency.tolist())
        energies, latencies = self._path_costs[key]
        return energies[exit_index], latencies[exit_index]

    def simulate(
        self,
        exit_logits: np.ndarray,
        final_logits: np.ndarray,
        labels: np.ndarray,
        controller: ExitController,
    ) -> RuntimeReport:
        """Run the controller over the stream and aggregate outcomes.

        ``exit_logits`` has shape (E, n, classes) ordered by position;
        ``final_logits`` is (n, classes).
        """
        num_exits, n, _ = exit_logits.shape
        if num_exits != self.placement.num_exits:
            raise ValueError(
                f"stream has {num_exits} exits, placement expects {self.placement.num_exits}"
            )
        decisions = controller.decide(exit_logits, labels)

        predictions = np.empty(n, dtype=np.int64)
        energy = np.empty(n)
        latency = np.empty(n)
        usage = np.zeros(num_exits + 1)
        for i in range(num_exits):
            mask = decisions == i
            usage[i] = mask.mean()
            if mask.any():
                predictions[mask] = exit_logits[i, mask].argmax(axis=-1)
                e, lat = self._path_cost(i)
                energy[mask] = e
                latency[mask] = lat
        mask = decisions == num_exits
        usage[-1] = mask.mean()
        if mask.any():
            predictions[mask] = final_logits[mask].argmax(axis=-1)
            e, lat = self._path_cost(num_exits)
            energy[mask] = e
            latency[mask] = lat

        switching = self.governor.switching_energy(decisions)
        return RuntimeReport(
            accuracy=float((predictions == labels).mean()),
            mean_energy_j=float(energy.mean() + switching / n),
            mean_latency_s=float(latency.mean()),
            exit_usage=usage,
            switching_energy_j=switching,
        )
