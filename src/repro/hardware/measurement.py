"""Simulated hardware-in-the-loop measurement.

The paper obtains latency/energy estimates "based on hardware measurements —
as through a HW-in-the-loop setup (adopted here), lookup tables, or
prediction models".  This module emulates that setup on top of the analytical
models: warm-up runs, repeated timed runs with multiplicative lognormal
noise, and a lookup-table cache keyed by (network, setting) so repeated
queries are free — mirroring how a real measurement harness amortises cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.cost import LayerTable, NetworkCost
from repro.hardware.dvfs import DvfsSetting
from repro.hardware.energy import EnergyModel
from repro.hardware.platform import HardwarePlatform
from repro.utils.rng import child_rng
from repro.utils.validation import check_nonneg, check_positive


@dataclass(frozen=True)
class Measurement:
    """Aggregated repeated measurement of one (network, setting) pair."""

    latency_s_mean: float
    latency_s_std: float
    energy_j_mean: float
    energy_j_std: float
    repeats: int


class HardwareInTheLoop:
    """Noisy measurement wrapper with warm-up and LUT caching.

    Parameters
    ----------
    platform:
        The device model to "measure".
    noise_cv:
        Coefficient of variation of the multiplicative measurement noise
        (2 % by default — typical of Jetson power-rail sampling).
    repeats, warmup:
        Timed and discarded runs per query.
    seed:
        Root seed; noise streams are keyed per (network, setting) so a
        re-measurement of the same point reproduces exactly.
    """

    def __init__(
        self,
        platform: HardwarePlatform,
        noise_cv: float = 0.02,
        repeats: int = 5,
        warmup: int = 2,
        seed: int = 0,
    ):
        check_nonneg("noise_cv", noise_cv)
        check_positive("repeats", repeats)
        self.platform = platform
        self.model = EnergyModel(platform)
        self.noise_cv = noise_cv
        self.repeats = repeats
        self.warmup = warmup
        self.seed = seed
        self._cache: dict[tuple[str, float, float], Measurement] = {}
        self.query_count = 0
        self.cache_hits = 0

    def _noise(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.noise_cv == 0:
            return np.ones(n)
        sigma = np.sqrt(np.log1p(self.noise_cv**2))
        return rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=n)

    def measure(self, cost: NetworkCost, setting: DvfsSetting) -> Measurement:
        """Measure latency/energy of a network at a DVFS setting."""
        return self.measure_population(
            [cost.config_key], LayerTable.of_layers([cost.layers]), setting
        )[0]

    def measure_population(
        self, keys: Sequence[str], table: LayerTable, setting: DvfsSetting
    ) -> list[Measurement]:
        """Measure every row of a layer table at one DVFS setting.

        ``keys[i]`` names row ``i``'s network.  Rows already in the lookup
        table are served from it, as are repeats of a row earlier in the
        batch, each counted as a query and a hit; the rest are reported in
        one :meth:`EnergyModel.population_report` pass.  Each of those rows
        draws from its own ``(seed, "hwil", key, core, emc)`` stream: the
        discarded warm-up runs, then ``repeats`` latency and ``repeats``
        energy runs, as one draw of the same values in the same order.
        """
        point = (setting.core_ghz, setting.emc_ghz)
        self.query_count += len(keys)
        lookups = [(key, *point) for key in keys]
        fresh: dict[tuple[str, float, float], int] = {}
        for row, lookup in enumerate(lookups):
            if lookup in self._cache or lookup in fresh:
                self.cache_hits += 1
            else:
                fresh[lookup] = row
        if fresh:
            report = self.model.population_report(table.take(list(fresh.values())), setting)
            warmup, repeats = self.warmup, self.repeats
            noise = np.stack(
                [
                    self._noise(child_rng(self.seed, "hwil", *lookup), warmup + 2 * repeats)
                    for lookup in fresh
                ]
            )[:, warmup:]
            latency = report[0][:, None] * noise[:, :repeats]
            energy = report[1][:, None] * noise[:, repeats:]
            columns = zip(
                latency.mean(axis=1).tolist(), latency.std(axis=1).tolist(),
                energy.mean(axis=1).tolist(), energy.std(axis=1).tolist(),
            )
            for lookup, stats in zip(fresh, columns):
                self._cache[lookup] = Measurement(*stats, repeats=repeats)
        return [self._cache[lookup] for lookup in lookups]

    @property
    def cache_size(self) -> int:
        return len(self._cache)
