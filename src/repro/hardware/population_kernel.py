"""Population-batched path costs: one stacked gather per population.

The cost tables made a *single* dynamic evaluation an O(exits) cumsum
gather, but an NSGA-II generation (or an exhaustive DVFS sweep) still pays
full Python per-call overhead per individual: index arrays, branch-scalar
loops and small-array arithmetic are re-dispatched N times.
:class:`PopulationKernel` amortises that across a whole population — N
(exit placement, DVFS setting) rows, with settings mixed freely, become
one padded ``(N, E_max)`` gather over the
:class:`~repro.hardware.cost_table.CostTableBank`'s stacked (setting ×
layer) grid at the flat index ``setting_row · L + prefix``, plus ``E_max``
broadcast column additions, independent of N.

Bit-identity contract (same as every kernel in this repo): the stacked path
costs equal :meth:`SettingCostTable.path_costs` — and therefore the
per-layer loop of ``tests/spec/evaluation.py`` — bit for bit, for every
row:

* Row ``n``'s gathered prefix values are the same cumulative-array elements
  the per-placement kernel reads from its setting's table.
* Branch scalars are added as broadcast *column* operations in ascending
  exit order (``M[:, j:] += B[:, j:j+1]``): each matrix element receives
  exactly the per-placement sequence of scalar float64 additions, in the
  same left-to-right association — elementwise ops carry no cross-element
  reduction, so stacking cannot reorder anything.
* Rows are padded to ``E_max`` with a sentinel position whose branch terms
  are ``0.0``; for the full-path accumulators the pad contributes trailing
  ``x + 0.0`` no-ops (bitwise identity for the strictly positive costs
  involved), and padded exit columns are never read.

Reductions (usage-weighted dots, score and objective means) stay out of
this kernel: a reduction over padded rows would change BLAS/pairwise
summation order and drift by ULPs.  The evaluator reduces each row over
its exact valid slice, grouped by width.  What gets stacked here is
exactly the elementwise work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exits.evaluation import PopulationExitStats
from repro.exits.placement import position_matrix
from repro.hardware.cost_table import CostTableBank
from repro.hardware.dvfs import DvfsSetting


@dataclass(frozen=True)
class PopulationPathCosts:
    """Stacked path costs of N placements, each at its row's DVFS setting.

    ``exit_energy_j`` / ``exit_latency_s`` are ``(N, E_max)`` matrices; row
    ``n`` is valid through ``widths[n]`` columns (the rest is padding and
    must not be read).  ``full_energy_j`` / ``full_latency_s`` are ``(N,)``
    full-path (every-branch) costs.
    """

    widths: np.ndarray
    exit_energy_j: np.ndarray
    exit_latency_s: np.ndarray
    full_energy_j: np.ndarray
    full_latency_s: np.ndarray

    def row(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(energy, latency) views of row ``n``'s valid exit-path costs."""
        w = int(self.widths[n])
        return self.exit_energy_j[n, :w], self.exit_latency_s[n, :w]


@dataclass(frozen=True)
class FusedPopulationBatch:
    """Accuracy and cost matrices of one population.

    The fusion of the two population kernels: ``stats`` is the oracle's
    stacked accuracy side (N_i, usage, dissimilarity, union accuracies) and
    ``costs`` the cost-table side (exit/full path energies and latencies),
    aligned row for row and padded to the same ``E_max`` — widths are
    asserted equal at construction.  One :meth:`PopulationKernel.fused_batch`
    call produces everything eq. 5–7 needs for a whole population.
    """

    stats: PopulationExitStats
    costs: PopulationPathCosts

    def __post_init__(self):
        if not np.array_equal(self.stats.widths, self.costs.widths):
            raise ValueError("accuracy and cost batches disagree on exit widths")

    @property
    def widths(self) -> np.ndarray:
        return self.costs.widths

    def __len__(self) -> int:
        return len(self.costs.widths)


class PopulationKernel:
    """Batched analysis surface over a :class:`CostTableBank`.

    One kernel hangs off a :class:`~repro.eval.dynamic.DynamicEvaluator`
    (same lifetime as its bank); :meth:`path_costs` is the stable entry
    point the evaluator, the IOE batch hook, the exhaustive-grid sweeps and
    the runtime DVFS planners all call.
    """

    def __init__(self, bank: CostTableBank):
        self._bank = bank

    def path_costs(
        self,
        position_lists: Sequence[Sequence[int]],
        settings: Sequence[DvfsSetting],
    ) -> PopulationPathCosts:
        """Exit-path and full-path costs of N placements, row ``n`` at
        ``settings[n]``.  ``position_lists`` holds one position sequence
        per placement or is the padded
        :func:`~repro.exits.placement.position_matrix` itself.

        One ``(N, E_max)`` gather over the bank's stacked grid at the flat
        index ``setting_row · L + prefix``, then one broadcast column
        addition per exit slot — total work O(N · E_max) array elements
        with no per-placement Python loop over branches.  A setting off
        the platform's grid or a position without an exit branch raises
        ``ValueError``.
        """
        positions, widths = position_matrix(position_lists)
        e_max = positions.shape[1]
        bank = self._bank
        grid, rows = bank.rows(settings, positions)
        cum, branch = grid.cum, grid.branch

        layers = cum["total"].shape[1]
        index = rows[:, None] * layers + bank.prefix_index[positions]
        latency = cum["total"].take(index)
        core = cum["core"].take(index)
        mem = cum["mem"].take(index)
        static = cum["static"].take(index)
        branch_index = rows[:, None] * len(bank.prefix_index) + positions
        branch_total = branch["total_s"].take(branch_index)
        branch_core = branch["core_j"].take(branch_index)
        branch_mem_dyn = branch["mem_dyn_j"].take(branch_index)
        branch_mem_bg = branch["mem_bg_j"].take(branch_index)
        branch_static = branch["static_j"].take(branch_index)

        last = rows * layers + (layers - 1)
        full_latency = cum["total"].take(last)
        full_core = cum["core"].take(last)
        full_mem = cum["mem"].take(last)
        full_static = cum["static"].take(last)

        # Ascending exit order mirrors the per-placement kernel: branch j
        # lands on every exit i >= j before branch j+1 does, and the memory
        # rail adds its two terms per branch in the reference order.
        for j in range(e_max):
            latency[:, j:] += branch_total[:, j : j + 1]
            core[:, j:] += branch_core[:, j : j + 1]
            mem[:, j:] += branch_mem_dyn[:, j : j + 1]
            mem[:, j:] += branch_mem_bg[:, j : j + 1]
            static[:, j:] += branch_static[:, j : j + 1]
            full_latency += branch_total[:, j]
            full_core += branch_core[:, j]
            full_mem += branch_mem_dyn[:, j]
            full_mem += branch_mem_bg[:, j]
            full_static += branch_static[:, j]

        return PopulationPathCosts(
            widths=widths,
            exit_energy_j=core + mem + static,
            exit_latency_s=latency,
            full_energy_j=(full_core + full_mem) + full_static,
            full_latency_s=full_latency,
        )

    def fused_batch(
        self, placements, settings: Sequence[DvfsSetting], oracle
    ) -> FusedPopulationBatch:
        """Accuracy + cost matrices of N placements in one fused call.

        Row ``n`` is costed at ``settings[n]``.  ``oracle`` is any provider
        whose ``evaluate_placements(placements)`` returns stacked
        :class:`PopulationExitStats` (a
        :class:`~repro.accuracy.exit_model.BackboneExitOracle`);
        ``placements`` is whatever it accepts, and its position matrix
        drives this kernel's path costs, so both sides come back aligned
        and width-checked.  This is the surface
        :meth:`DynamicEvaluator.evaluate_population` drives.
        """
        stats = oracle.evaluate_placements(placements)
        costs = self.path_costs(stats.positions, settings)
        return FusedPopulationBatch(stats=stats, costs=costs)
