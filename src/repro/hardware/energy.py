"""Per-inference energy from roofline timing and rail power.

Each layer contributes ``(P_static + P_core·a_core + P_mem·a_mem) · t_layer``
where the activity factors come from its roofline occupancy.  Dispatch
overhead burns static power only.  The resulting energy-vs-frequency surface
is convex with a workload-dependent minimum: at low clocks static energy
dominates (run-to-idle argument), at high clocks the V²f term dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.cost import LayerCost, LayerTable, NetworkCost
from repro.hardware.dvfs import DvfsSetting
from repro.hardware.latency import BatchTiming, LatencyModel
from repro.hardware.platform import HardwarePlatform
from repro.hardware.power import PowerModel


def interleaved_cumsum(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Running totals of the alternating sequence ``first_0, second_0,
    first_1, second_1, ...``, reported after each pair.

    Element ``i`` is the float64 result of adding ``first_0, second_0, ..,
    first_i, second_i`` strictly left to right — exactly what a Python loop
    doing ``acc += first[i]; acc += second[i]`` produces.  The memory-rail
    accumulator adds two terms per layer in that order, and float addition
    is not associative, so a plain cumsum of ``first + second`` would drift
    by ULPs; the interleave preserves the reference association.  Runs
    along the last axis, so each row of a matrix gets its own totals.
    """
    interleaved = np.empty(first.shape[:-1] + (2 * first.shape[-1],))
    interleaved[..., 0::2] = first
    interleaved[..., 1::2] = second
    return np.cumsum(interleaved, axis=-1)[..., 1::2]


@dataclass(frozen=True)
class PathProfile:
    """Execution profile of one request path, split for batch accounting.

    ``busy_s`` is roofline compute/memory time (serialised across a batch),
    ``overhead_s`` is per-layer dispatch overhead (shared across a batch —
    co-scheduled requests reuse the same kernel launches), ``dynamic_energy_j``
    is the activity-scaled rail energy and ``passive_power_w`` the always-on
    power (static + DRAM background) that burns for as long as the device is
    occupied.
    """

    busy_s: float
    overhead_s: float
    dynamic_energy_j: float
    passive_power_w: float

    @property
    def latency_s(self) -> float:
        """Stand-alone (batch-of-one) latency."""
        return self.busy_s + self.overhead_s

    @property
    def energy_j(self) -> float:
        """Stand-alone (batch-of-one) energy."""
        return self.dynamic_energy_j + self.passive_power_w * self.latency_s


def batched_execution(profiles: Sequence[PathProfile]) -> tuple[float, float]:
    """(latency, energy) of running several request paths as one micro-batch.

    Busy time serialises (a single edge accelerator), but dispatch overhead
    is paid once — by the path with the most of it, since shallower paths'
    kernel launches are a prefix of the deepest path's.  Passive power burns
    for the whole occupancy.  A batch of one reduces exactly to the path's
    stand-alone latency/energy, so serving at batch size 1 matches the
    offline :class:`EnergyModel` numbers.
    """
    if not profiles:
        return 0.0, 0.0
    longest = max(profiles, key=lambda p: p.overhead_s)
    latency = sum(p.busy_s for p in profiles) + longest.overhead_s
    energy = (
        sum(p.dynamic_energy_j + p.passive_power_w * p.busy_s for p in profiles)
        + longest.passive_power_w * longest.overhead_s
    )
    return latency, energy


@dataclass(frozen=True)
class EnergyReport:
    """Latency and energy of one network execution at one DVFS setting."""

    latency_s: float
    energy_j: float
    core_energy_j: float
    mem_energy_j: float
    static_energy_j: float

    @property
    def average_power_w(self) -> float:
        if self.latency_s <= 0:
            return 0.0
        return self.energy_j / self.latency_s


class EnergyModel:
    """Evaluates latency + energy jointly for one platform."""

    def __init__(self, platform: HardwarePlatform):
        self.platform = platform
        self.latency = LatencyModel(platform)
        self.power = PowerModel(platform)
        self._table_scalars: dict[tuple[float, float], tuple[float, ...]] = {}

    def rail_powers(self, setting: DvfsSetting) -> tuple[float, float, float, float]:
        """Full-activity ``(core dynamic, mem dynamic, mem background,
        static)`` rail power (W) at a setting."""
        power = self.power
        return (
            power.core_dynamic_power(setting, 1.0),
            power.mem_dynamic_power(setting, 1.0),
            power.mem_background_power(setting),
            power.static_power(setting),
        )

    def table_scalars(self, setting: DvfsSetting) -> tuple[float, ...]:
        """The seven per-setting operands of a cost-table build
        (:meth:`LatencyModel.setting_scalars` + :meth:`rail_powers`),
        memoised per clock pair; racing threads store equal tuples."""
        key = (setting.core_ghz, setting.emc_ghz)
        scalars = self._table_scalars.get(key)
        if scalars is None:
            scalars = self.latency.setting_scalars(setting) + self.rail_powers(setting)
            self._table_scalars[key] = scalars
        return scalars

    def layer_energy_terms(
        self, timing: BatchTiming, setting: DvfsSetting
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-layer ``(core, mem_dynamic, mem_background, static)`` energy
        vectors for one batch timing — the operands both the vectorized
        accumulators and the cost tables sum.

        Each element is the exact term the reference loop adds for that
        layer (``(P · busy) · activity`` and ``P · total`` in the same
        association), so any left-to-right cumulative sum of these vectors
        is bit-identical to the loop's running accumulators.
        """
        return self.power_energy_terms(timing, *self.rail_powers(setting))

    @staticmethod
    def power_energy_terms(
        timing: BatchTiming, core_w, mem_w, mem_background_w, static_w
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`layer_energy_terms` from :meth:`rail_powers` operands.

        Float powers pair with a one-setting timing; ``(S, 1)`` power
        columns pair with an ``(S, n)`` grid timing from
        :meth:`LatencyModel.scalar_timing`, row for row bit-identical.
        """
        busy = timing.busy_s
        core = core_w * busy * timing.core_activity
        mem_dyn = mem_w * busy * timing.mem_activity
        mem_bg = mem_background_w * timing.total_s
        static = static_w * timing.total_s
        return core, mem_dyn, mem_bg, static

    def population_report(self, table: LayerTable, setting: DvfsSetting) -> np.ndarray:
        """Latency and energy of every row of a layer table at one setting.

        Returns a ``(5, B)`` matrix whose rows are the :class:`EnergyReport`
        fields in order (latency, energy, core, memory and static energy).
        One :meth:`LatencyModel.scalar_timing` and energy-term pass covers
        the padded table; each row's totals are read from the cumulative
        sums at its own last layer, so padding never enters them.  A cumsum
        adds left to right along each row, and the memory rail's two
        per-layer terms are interleaved before summing, so each column is
        bit-identical to a per-layer loop over that row's layers.
        """
        timing = self.latency.batch_timing_arrays(table.macs, table.traffic, setting)
        core, mem_dyn, mem_bg, static = self.layer_energy_terms(timing, setting)
        last = (np.arange(len(table)), table.lengths - 1)
        core_j = np.cumsum(core, axis=-1)[last]
        mem_j = interleaved_cumsum(mem_dyn, mem_bg)[last]
        static_j = np.cumsum(static, axis=-1)[last]
        latency_s = np.cumsum(timing.total_s, axis=-1)[last]
        return np.stack([latency_s, core_j + mem_j + static_j, core_j, mem_j, static_j])

    def _accumulate(self, layers: list[LayerCost], setting: DvfsSetting) -> EnergyReport:
        """One layer sequence's report: a one-row :meth:`population_report`."""
        if not layers:
            return EnergyReport(0.0, 0.0, 0.0, 0.0, 0.0)
        report = self.population_report(LayerTable.of_layers([layers]), setting)
        return EnergyReport(*report[:, 0].tolist())

    def composite_report(self, layers: list[LayerCost], setting: DvfsSetting) -> EnergyReport:
        """Latency/energy of an arbitrary layer sequence (e.g. prefix +
        several exit branches — the early-exit execution paths)."""
        return self._accumulate(layers, setting)

    def network_report(self, cost: NetworkCost, setting: DvfsSetting) -> EnergyReport:
        """Latency/energy of the full network."""
        return self._accumulate(cost.layers, setting)

    def network_energy_j(self, cost: NetworkCost, setting: DvfsSetting) -> float:
        """Full-network energy (J)."""
        return self.network_report(cost, setting).energy_j
