"""The DVFS search space F (paper Table II).

A :class:`DvfsSetting` is one (core clock, EMC clock) operating point; a
:class:`DvfsSpace` is the grid of such points a platform supports.  The inner
engine searches this space jointly with the exit configuration, encoding a
setting as two integer genes (core index, EMC index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.platform import HardwarePlatform
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class DvfsSetting:
    """One operating point: core and memory-controller clocks in GHz."""

    core_ghz: float
    emc_ghz: float

    def __str__(self) -> str:
        return f"core={self.core_ghz:.3f}GHz emc={self.emc_ghz:.3f}GHz"


class DvfsSpace:
    """The frequency grid of a platform, indexable for genome encoding."""

    def __init__(self, platform: HardwarePlatform):
        self.platform = platform
        self.core_freqs = platform.core_freqs_ghz
        self.emc_freqs = platform.emc_freqs_ghz
        #: Every setting once, core-major: row ``core · |emc| + emc``.
        self._grid = [
            DvfsSetting(core, emc) for core in self.core_freqs for emc in self.emc_freqs
        ]

    @property
    def cardinality(self) -> int:
        """Number of distinct (core, emc) settings."""
        return len(self.core_freqs) * len(self.emc_freqs)

    def gene_bounds(self) -> np.ndarray:
        """Exclusive upper bounds of the two DVFS genes."""
        return np.asarray([len(self.core_freqs), len(self.emc_freqs)], dtype=np.int64)

    def decode(self, core_idx: int, emc_idx: int) -> DvfsSetting:
        """Indices -> concrete setting."""
        return self.decode_rows(np.array([[int(core_idx), int(emc_idx)]]))[0]

    def decode_rows(self, genes: np.ndarray) -> list[DvfsSetting]:
        """``(N, 2)`` (core, EMC) indices -> N settings; an off-grid index
        raises ``ValueError`` naming the gene and its bound."""
        genes = np.asarray(genes)
        bounds = self.gene_bounds()
        for name, column, bound in zip(("core", "emc"), genes.T, bounds.tolist()):
            bad = (column < 0) | (column >= bound)
            if bad.any():
                raise ValueError(f"{name} gene {column[bad][0]} outside [0, {bound - 1}]")
        grid = self._grid
        return [grid[row] for row in (genes[:, 0] * bounds[1] + genes[:, 1]).tolist()]

    def encode(self, setting: DvfsSetting) -> tuple[int, int]:
        """Concrete setting -> indices (must be on the grid)."""
        return self.core_freqs.index(setting.core_ghz), self.emc_freqs.index(setting.emc_ghz)

    def default_setting(self) -> DvfsSetting:
        """The platform default: maximum performance clocks.

        The paper's static (OOE) evaluations use default hardware settings,
        leaving DVFS exploration to the IOE; Jetson boards under `nvpmodel
        MAXN` run at maximum clocks, which we adopt as the default.
        """
        return self._grid[-1]

    def sample(self, rng=None) -> DvfsSetting:
        """Uniform random setting."""
        rng = make_rng(rng)
        return self.decode(
            rng.integers(0, len(self.core_freqs)), rng.integers(0, len(self.emc_freqs))
        )

    def all_settings(self) -> list[DvfsSetting]:
        """Enumerate the full grid (used by exhaustive sweeps), core-major."""
        return list(self._grid)
