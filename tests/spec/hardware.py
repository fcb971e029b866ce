"""Spec of the energy model: the per-layer accumulation loop.

:class:`~repro.hardware.energy.EnergyModel` accumulates a layer sequence in
one batched timing pass with cumulative sums, and the cost tables gather
those sums; both must equal this loop bit for bit — same float64 additions
in the same order, with the memory rail's two per-layer terms added one
after the other.
"""

from __future__ import annotations

import numpy as np

from repro.arch.cost import LayerCost
from repro.hardware.dvfs import DvfsSetting
from repro.hardware.energy import (
    EnergyModel,
    EnergyReport,
    PathProfile,
    interleaved_cumsum,
)


def composite_report(
    model: EnergyModel, layers: list[LayerCost], setting: DvfsSetting
) -> EnergyReport:
    """Latency and energy of a layer sequence, one layer at a time."""
    power = model.power
    p_static = power.static_power(setting)
    p_mem_bg = power.mem_background_power(setting)
    core_j = mem_j = static_j = 0.0
    latency_s = 0.0
    for layer in layers:
        timing = model.latency.layer_timing(layer, setting)
        busy = timing.total_s - timing.overhead_s
        core_j += power.core_dynamic_power(setting, 1.0) * busy * timing.core_activity
        mem_j += power.mem_dynamic_power(setting, 1.0) * busy * timing.mem_activity
        mem_j += p_mem_bg * timing.total_s
        static_j += p_static * timing.total_s
        latency_s += timing.total_s
    return EnergyReport(
        latency_s=latency_s,
        energy_j=core_j + mem_j + static_j,
        core_energy_j=core_j,
        mem_energy_j=mem_j,
        static_energy_j=static_j,
    )


def path_profile(
    model: EnergyModel, layers: list[LayerCost], setting: DvfsSetting
) -> PathProfile:
    """Batch-decomposable profile of a layer sequence at one setting.

    Consistent with :func:`composite_report`: the profile's stand-alone
    ``latency_s``/``energy_j`` equal the report's.  The dynamic rail's two
    per-layer terms are interleaved to keep the loop's addition order.
    """
    power = model.power
    p_passive = power.static_power(setting) + power.mem_background_power(setting)
    if not layers:
        return PathProfile(0.0, 0.0, 0.0, p_passive)
    timing = model.latency.batch_timing(layers, setting)
    core, mem_dyn, _, _ = model.layer_energy_terms(timing, setting)
    return PathProfile(
        busy_s=float(np.cumsum(timing.busy_s)[-1]),
        overhead_s=float(np.cumsum(timing.overhead_s)[-1]),
        dynamic_energy_j=float(interleaved_cumsum(core, mem_dyn)[-1]),
        passive_power_w=p_passive,
    )
