"""Exhaustive core × EMC DVFS grids as first-class artifacts.

HADAS's inner search samples the (X, F) space; deployment questions
("what is the true energy-optimal operating point for *this* DyNN?",
"how flat is the energy landscape around the searched setting?") want the
*whole* grid.  The population kernel mixes settings row by row, so
:func:`compute_grid` evaluates every (placement, setting) pair of the grid
in one :meth:`~repro.eval.dynamic.DynamicEvaluator.evaluate_population`
call — one generation-wide table lookup — and fills the ``(P, C, E)``
arrays: placement × core-index × emc-index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import ExitPlacement
from repro.hardware.dvfs import DvfsSetting, DvfsSpace


@dataclass(frozen=True)
class DvfsGridArtifact:
    """One exhaustive sweep: every placement at every grid setting.

    Arrays are shaped ``(P, C, E)`` — placement index × core-frequency
    index × EMC-frequency index, matching ``core_ghz``/``emc_ghz`` order.
    """

    platform: str
    backbone_key: str
    placements: tuple[tuple[int, ...], ...]
    core_ghz: tuple[float, ...]
    emc_ghz: tuple[float, ...]
    dynamic_energy_j: np.ndarray
    dynamic_latency_s: np.ndarray
    d_score: np.ndarray

    @property
    def num_settings(self) -> int:
        return len(self.core_ghz) * len(self.emc_ghz)

    def min_energy_j(self, placement_index: int = 0) -> float:
        """Lowest dynamic energy over the grid for one placement.

        Exact minimum of the same float set an explicit candidate loop
        would compare, hence order-independent and bit-identical to it.
        """
        return float(self.dynamic_energy_j[placement_index].min())

    def best_energy_setting(self, placement_index: int = 0) -> DvfsSetting:
        """The setting achieving :meth:`min_energy_j` (first in grid order)."""
        grid = self.dynamic_energy_j[placement_index]
        ci, ei = np.unravel_index(int(np.argmin(grid)), grid.shape)
        return DvfsSetting(self.core_ghz[int(ci)], self.emc_ghz[int(ei)])


def compute_grid(
    evaluator: DynamicEvaluator,
    dvfs_space: DvfsSpace,
    placements: list[ExitPlacement],
) -> DvfsGridArtifact:
    """Every placement at every grid setting, in one population call.

    Rows run placement-major over the core-major settings of
    :meth:`DvfsSpace.all_settings`, so they reshape straight into the
    ``(P, C, E)`` arrays.  Each cell is its row's
    :class:`~repro.eval.dynamic.DynamicEvaluation` field, bit-identical to
    ``evaluator.evaluate(placement, setting)``.
    """
    settings = dvfs_space.all_settings()
    generation = evaluator.evaluate_population(
        [placement for placement in placements for _ in settings],
        settings * len(placements),
    )
    shape = (len(placements), len(dvfs_space.core_freqs), len(dvfs_space.emc_freqs))
    cells = np.array(
        [(row.dynamic_energy_j, row.dynamic_latency_s, row.d_score) for row in generation]
    ).reshape(*shape, 3)
    return DvfsGridArtifact(
        platform=dvfs_space.platform.key,
        backbone_key=evaluator.config.key,
        placements=tuple(p.positions for p in placements),
        core_ghz=tuple(dvfs_space.core_freqs),
        emc_ghz=tuple(dvfs_space.emc_freqs),
        dynamic_energy_j=cells[..., 0],
        dynamic_latency_s=cells[..., 1],
        d_score=cells[..., 2],
    )
