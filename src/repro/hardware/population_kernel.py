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
broadcast column additions, independent of N.  Over several backbones'
banks (an IOE lockstep group), a row's flat index gains its bank's offset.

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


#: The kernel's two stacked operands: the cumulative rails it gathers, in
#: this order, and the branch terms added to them, the first four onto the
#: four rails and the last onto the memory rail.
_RAILS = ("total", "core", "mem", "static")
_BRANCH_TERMS = ("total_s", "core_j", "mem_dyn_j", "static_j", "mem_bg_j")


class PopulationKernel:
    """Batched analysis surface over the :class:`CostTableBank` of one
    :class:`~repro.eval.dynamic.DynamicEvaluator`, or the banks of a
    joined group (one DVFS grid); :meth:`path_costs` is the stable entry
    point the evaluator, the IOE batch hook, the exhaustive-grid sweeps and
    the runtime DVFS planners all call.

    On first use it concatenates its grids along the layer axis: four
    cumulative rails as one ``(4, S, Σ L_b)`` array and five branch terms
    as one ``(5, S, Σ W_b)`` array, bank ``b``'s columns at an offset.  The
    grids then read those terms from views of the concatenation.
    """

    def __init__(self, *banks: CostTableBank):
        self._banks = banks
        self._stack: tuple | None = None

    def _build(self) -> tuple:
        grids = [bank.rows(())[0] for bank in self._banks]
        if any(grid.settings != grids[0].settings for grid in grids):
            raise ValueError("the banks of one population kernel must share a DVFS grid")
        layers = np.array([grid.cum["total"].shape[1] for grid in grids])
        widths = np.array([len(grid.branched) for grid in grids])
        paths = np.concatenate([[grid.cum[name] for name in _RAILS] for grid in grids], axis=2)
        terms = np.concatenate(
            [[grid.branch[name] for name in _BRANCH_TERMS] for grid in grids], axis=2
        )
        layer_base, column_base = np.cumsum([0, *layers]), np.cumsum([0, *widths])
        for grid, start, stop, first, last in zip(
            grids, layer_base, layer_base[1:], column_base, column_base[1:]
        ):
            grid.cum.update(zip(_RAILS, paths[:, :, start:stop]))
            grid.branch.update(zip(_BRANCH_TERMS, terms[:, :, first:last]))
        prefix = np.concatenate([bank.prefix_index for bank in self._banks])
        branched = np.concatenate([grid.branched for grid in grids])
        stack = paths.reshape(4, -1), terms.reshape(5, -1), layer_base, layers
        self._stack = stack + (column_base, widths, prefix, branched)  # one store, race-safe
        return self._stack

    def path_costs(
        self,
        position_lists: Sequence[Sequence[int]],
        settings: Sequence[DvfsSetting],
        members: np.ndarray | None = None,
    ) -> PopulationPathCosts:
        """Exit-path and full-path costs of N placements, row ``n`` at
        ``settings[n]`` on the network of bank ``members[n]`` (default:
        the first bank, for every row).  ``position_lists`` holds one
        position sequence per placement or is the padded
        :func:`~repro.exits.placement.position_matrix` itself.

        One ``take`` gathers the four rails at every row's exit prefixes
        plus, as one more column, its full path (flat index
        ``setting_row · Σ L + offset + prefix``); one more gathers the five
        branch terms at the exit positions; then two broadcast additions
        per exit slot — total work O(N · E_max) array elements with no
        per-placement Python loop.  A setting off the platform's grid or a
        position without an exit branch raises ``ValueError``.
        """
        positions, widths = position_matrix(position_lists)
        _, rows = self._banks[0].rows(settings)
        paths, terms, layer_base, layers, column_base, columns, prefix, branched = (
            self._stack or self._build()
        )
        if members is None:
            members = np.zeros(len(rows), dtype=np.intp)
        column = column_base[members][:, None] + positions
        inside = positions < columns[members][:, None]
        if not (inside.all() and branched[column].all()):
            legal = inside & branched[np.where(inside, column, 0)]
            raise ValueError(f"no exit branch at position {positions[~legal][0]}")
        start = (rows * layer_base[-1] + layer_base[members])[:, None]
        full = start + layers[members][:, None] - 1
        rails = paths.take(np.concatenate((start + prefix[column], full), axis=1), axis=1)
        branch = terms.take(rows[:, None] * column_base[-1] + column, axis=1)

        # Ascending exit order mirrors the per-placement kernel: branch j
        # lands on every exit i >= j, and on the full path, before branch
        # j+1 does, and the memory rail adds its two terms per branch in
        # the reference order.  Pad slots add 0.0 to the full path.
        for j in range(positions.shape[1]):
            rails[:, :, j:] += branch[:4, :, j : j + 1]
            rails[2, :, j:] += branch[4, :, j : j + 1]
        energy = rails[1] + rails[2] + rails[3]
        latency = rails[0].copy()  # the other rails are not kept
        return PopulationPathCosts(
            widths=widths,
            exit_energy_j=energy[:, :-1],
            exit_latency_s=latency[:, :-1],
            full_energy_j=energy[:, -1],
            full_latency_s=latency[:, -1],
        )

    def fused_batch(
        self, placements, settings: Sequence[DvfsSetting], oracle, members: np.ndarray | None = None
    ) -> tuple[PopulationExitStats, PopulationPathCosts]:
        """Accuracy and cost matrices of N placements in one fused call.

        ``oracle`` is any provider whose ``evaluate_placements(placements,
        members)`` returns stacked :class:`PopulationExitStats` (a
        :class:`~repro.accuracy.exit_model.BackboneExitOracle` whose column
        bank lists its oracles in this kernel's bank order); its position
        matrix drives :meth:`path_costs`, so both sides come back aligned
        row for row: everything eq. 5–7 needs for a whole population.
        """
        stats = oracle.evaluate_placements(placements, members)
        return stats, self.path_costs(stats.positions, settings, members)
