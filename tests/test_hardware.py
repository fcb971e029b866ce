"""Hardware models: platforms, DVFS grids, power, roofline latency, energy,
and the simulated HW-in-the-loop measurement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cost import LayerCost, estimate_cost
from repro.baselines.attentivenas import attentivenas_model
from repro.hardware.dvfs import DvfsSetting, DvfsSpace
from repro.hardware.energy import EnergyModel, PathProfile, batched_execution
from repro.hardware.latency import LatencyModel
from repro.hardware.measurement import HardwareInTheLoop
from repro.hardware.platform import (
    PAPER_PLATFORM_ORDER,
    PLATFORM_ALIASES,
    VoltageCurve,
    canonical_platform_key,
    get_platform,
    list_platforms,
    resolve_platform_keys,
)
from repro.hardware.power import PowerModel


def _layer(macs=1e7, traffic=1e6) -> LayerCost:
    return LayerCost("l", "mbconv", 1, macs, 1e4, traffic / 3, traffic / 3, traffic / 3)


class TestPlatformRegistry:
    def test_four_paper_platforms(self):
        platforms = list_platforms()
        assert [p.key for p in platforms] == list(PAPER_PLATFORM_ORDER)

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            get_platform("rtx-4090")

    def test_aliases_resolve_to_registry_keys(self):
        for alias, key in PLATFORM_ALIASES.items():
            assert canonical_platform_key(alias) == key
            assert key in PAPER_PLATFORM_ORDER
        assert canonical_platform_key("tx2-gpu") == "tx2-gpu"  # canonical passes through
        assert canonical_platform_key("rtx-4090") == "rtx-4090"  # unknown untouched

    def test_resolve_platform_keys_validates(self):
        assert resolve_platform_keys(["tx2", "xavier"]) == ["tx2-gpu", "agx-gpu"]
        with pytest.raises(ValueError, match="valid platforms"):
            resolve_platform_keys(["tx2", "gamecube"])

    # Table II DVFS grid counts and ranges, per platform.
    @pytest.mark.parametrize("key,n_core,lo,hi,n_emc,emc_lo,emc_hi", [
        ("agx-gpu", 14, 0.1, 1.4, 9, 0.2, 2.1),
        ("carmel-cpu", 29, 0.1, 2.3, 9, 0.2, 2.1),
        ("tx2-gpu", 13, 0.1, 1.4, 11, 0.2, 1.8),
        ("denver-cpu", 12, 0.3, 2.1, 11, 0.2, 1.8),
    ])
    def test_table2_dvfs_grids(self, key, n_core, lo, hi, n_emc, emc_lo, emc_hi):
        platform = get_platform(key)
        assert len(platform.core_freqs_ghz) == n_core
        assert platform.core_freqs_ghz[0] == pytest.approx(lo)
        assert platform.core_freqs_ghz[-1] == pytest.approx(hi)
        assert len(platform.emc_freqs_ghz) == n_emc
        assert platform.emc_freqs_ghz[0] == pytest.approx(emc_lo)
        assert platform.emc_freqs_ghz[-1] == pytest.approx(emc_hi)

    def test_utilization_increases_with_layer_size(self, tx2_gpu):
        assert tx2_gpu.utilization(1e8) > tx2_gpu.utilization(1e5)
        assert tx2_gpu.utilization(1e12) <= tx2_gpu.util_base

    def test_with_overrides(self, tx2_gpu):
        modified = tx2_gpu.with_overrides(util_base=0.5)
        assert modified.util_base == 0.5
        assert tx2_gpu.util_base != 0.5  # original untouched

    def test_voltage_curve_clamps(self):
        curve = VoltageCurve(0.1, 1.0, 0.6, 1.1)
        assert curve.voltage(0.05) == pytest.approx(0.6)
        assert curve.voltage(2.0) == pytest.approx(1.1)
        assert curve.voltage(0.55) == pytest.approx(0.85)


class TestDvfsSpace:
    def test_cardinality(self, tx2_dvfs):
        assert tx2_dvfs.cardinality == 13 * 11

    def test_encode_decode_roundtrip(self, tx2_dvfs):
        for core in (0, 5, 12):
            for emc in (0, 10):
                setting = tx2_dvfs.decode(core, emc)
                assert tx2_dvfs.encode(setting) == (core, emc)

    def test_default_is_max(self, tx2_dvfs, tx2_gpu):
        default = tx2_dvfs.default_setting()
        assert default.core_ghz == tx2_gpu.max_core_freq
        assert default.emc_ghz == tx2_gpu.max_emc_freq

    def test_all_settings_unique(self, tx2_dvfs):
        settings_list = tx2_dvfs.all_settings()
        assert len(set(settings_list)) == tx2_dvfs.cardinality

    def test_sample_on_grid(self, tx2_dvfs, rng):
        for _ in range(20):
            s = tx2_dvfs.sample(rng)
            assert s.core_ghz in tx2_dvfs.core_freqs
            assert s.emc_ghz in tx2_dvfs.emc_freqs

    def test_decode_rows_core_major(self, tx2_dvfs):
        n_core, n_emc = tx2_dvfs.gene_bounds().tolist()
        genes = np.array([(c, e) for c in range(n_core) for e in range(n_emc)])
        want = [
            DvfsSetting(tx2_dvfs.core_freqs[c], tx2_dvfs.emc_freqs[e]) for c, e in genes
        ]
        assert tx2_dvfs.decode_rows(genes) == want == tx2_dvfs.all_settings()
        assert [tx2_dvfs.decode(c, e) for c, e in genes] == want
        assert tx2_dvfs.default_setting() == want[-1]

    def test_decode_rejects_off_grid_genes(self, tx2_dvfs):
        """Off-grid genes raise ValueError naming the gene and its bound; a
        negative index must not wrap around to the top clock."""
        cases = (
            (-1, 0, r"core gene -1 outside \[0, 12\]"),
            (13, 0, r"core gene 13 outside \[0, 12\]"),
            (0, -1, r"emc gene -1 outside \[0, 10\]"),
            (0, 11, r"emc gene 11 outside \[0, 10\]"),
        )
        for core, emc, message in cases:
            with pytest.raises(ValueError, match=message):
                tx2_dvfs.decode(core, emc)
            with pytest.raises(ValueError, match=message):
                tx2_dvfs.decode_rows(np.array([[0, 0], [core, emc]]))


class TestPowerModel:
    def test_dynamic_power_scales_superlinearly_with_freq(self, tx2_gpu):
        power = PowerModel(tx2_gpu)
        lo = power.core_dynamic_power(DvfsSetting(0.7, 1.8))
        hi = power.core_dynamic_power(DvfsSetting(1.4, 1.8))
        assert hi > 2 * lo  # V^2 f: doubling f more than doubles power

    def test_activity_scales_linearly(self, tx2_gpu):
        power = PowerModel(tx2_gpu)
        setting = DvfsSetting(1.0, 1.0)
        full = power.core_dynamic_power(setting, 1.0)
        half = power.core_dynamic_power(setting, 0.5)
        assert half == pytest.approx(full / 2)

    def test_invalid_activity(self, tx2_gpu):
        with pytest.raises(ValueError):
            PowerModel(tx2_gpu).core_dynamic_power(DvfsSetting(1.0, 1.0), 1.5)

    def test_static_power_grows_with_voltage(self, tx2_gpu):
        power = PowerModel(tx2_gpu)
        assert power.static_power(DvfsSetting(1.4, 1.8)) > power.static_power(DvfsSetting(0.1, 1.8))

    def test_mem_background_scales_with_emc(self, tx2_gpu):
        power = PowerModel(tx2_gpu)
        assert power.mem_background_power(DvfsSetting(1.0, 1.8)) > power.mem_background_power(
            DvfsSetting(1.0, 0.2)
        )

    def test_breakdown_total(self, tx2_gpu):
        power = PowerModel(tx2_gpu)
        breakdown = power.breakdown(DvfsSetting(1.0, 1.0), 0.5, 0.25)
        assert breakdown.total_w == pytest.approx(
            breakdown.core_dynamic_w + breakdown.mem_dynamic_w
            + breakdown.mem_background_w + breakdown.static_w
        )


class TestLatencyModel:
    def test_compute_bound_layer(self, tx2_gpu):
        model = LatencyModel(tx2_gpu)
        timing = model.layer_timing(_layer(macs=1e9, traffic=1e3), DvfsSetting(1.4, 1.8))
        assert timing.bound == "compute"
        assert timing.compute_s > timing.memory_s

    def test_memory_bound_layer(self, tx2_gpu):
        model = LatencyModel(tx2_gpu)
        timing = model.layer_timing(_layer(macs=1e3, traffic=1e9), DvfsSetting(1.4, 1.8))
        assert timing.bound == "memory"

    def test_latency_decreases_with_core_freq_when_compute_bound(self, tx2_gpu):
        model = LatencyModel(tx2_gpu)
        layer = _layer(macs=1e9, traffic=1e3)
        slow = model.layer_timing(layer, DvfsSetting(0.5, 1.8)).total_s
        fast = model.layer_timing(layer, DvfsSetting(1.4, 1.8)).total_s
        assert fast < slow

    def test_latency_decreases_with_emc_when_memory_bound(self, tx2_gpu):
        model = LatencyModel(tx2_gpu)
        layer = _layer(macs=1e3, traffic=1e9)
        slow = model.layer_timing(layer, DvfsSetting(1.4, 0.2)).total_s
        fast = model.layer_timing(layer, DvfsSetting(1.4, 1.8)).total_s
        assert fast < slow

    def test_overhead_stretches_at_low_clocks(self, tx2_gpu):
        model = LatencyModel(tx2_gpu)
        assert model.dispatch_overhead_s(DvfsSetting(0.1, 0.2)) > model.dispatch_overhead_s(
            DvfsSetting(1.4, 1.8)
        )

    def test_overhead_at_max_clocks_is_base(self, tx2_gpu):
        model = LatencyModel(tx2_gpu)
        at_max = model.dispatch_overhead_s(DvfsSetting(1.4, 1.8))
        assert at_max == pytest.approx(tx2_gpu.dispatch_overhead_s)

    def test_network_latency_is_sum(self, tx2_gpu, static_evaluator):
        model = LatencyModel(tx2_gpu)
        cost = estimate_cost(attentivenas_model("a0"))
        setting = DvfsSetting(1.4, 1.8)
        total = model.network_latency_s(cost, setting)
        assert total == pytest.approx(sum(t.total_s for t in model.timings(cost, setting)))

    def test_activity_fractions_bounded(self, tx2_gpu):
        model = LatencyModel(tx2_gpu)
        for macs, traffic in [(1e9, 1e3), (1e3, 1e9), (1e6, 1e6)]:
            timing = model.layer_timing(_layer(macs, traffic), DvfsSetting(1.0, 1.0))
            assert 0.0 <= timing.core_activity <= 1.0
            assert 0.0 <= timing.mem_activity <= 1.0


class TestEnergyModel:
    def test_energy_convex_in_core_freq(self, tx2_gpu):
        """Energy vs core frequency has an interior minimum (run-to-idle vs
        V^2 f trade-off)."""
        model = EnergyModel(tx2_gpu)
        cost = estimate_cost(attentivenas_model("a0"))
        energies = [
            model.network_energy_j(cost, DvfsSetting(f, 1.8))
            for f in tx2_gpu.core_freqs_ghz
        ]
        best = int(np.argmin(energies))
        assert 0 < best < len(energies) - 1

    def test_breakdown_sums_to_total(self, tx2_gpu):
        model = EnergyModel(tx2_gpu)
        cost = estimate_cost(attentivenas_model("a0"))
        report = model.network_report(cost, DvfsSetting(1.0, 1.0))
        assert report.energy_j == pytest.approx(
            report.core_energy_j + report.mem_energy_j + report.static_energy_j
        )

    def test_bigger_network_more_energy(self, tx2_gpu):
        model = EnergyModel(tx2_gpu)
        setting = DvfsSetting(1.4, 1.8)
        small = model.network_energy_j(estimate_cost(attentivenas_model("a0")), setting)
        large = model.network_energy_j(estimate_cost(attentivenas_model("a6")), setting)
        assert large > 1.5 * small

    def test_table3_energy_scale(self, tx2_gpu, tx2_dvfs):
        """Calibration anchor: a0/a6 land at the paper's energy scale."""
        model = EnergyModel(tx2_gpu)
        default = tx2_dvfs.default_setting()
        a0 = model.network_energy_j(estimate_cost(attentivenas_model("a0")), default) * 1e3
        a6 = model.network_energy_j(estimate_cost(attentivenas_model("a6")), default) * 1e3
        assert 120 < a0 < 220  # paper: 173.78
        assert 260 < a6 < 420  # paper: 335.48
        assert 1.5 < a6 / a0 < 2.7  # paper ratio: 1.93

    def test_composite_report_additive_layers(self, tx2_gpu):
        model = EnergyModel(tx2_gpu)
        setting = DvfsSetting(1.0, 1.0)
        layer = _layer()
        one = model.composite_report([layer], setting)
        two = model.composite_report([layer, layer], setting)
        assert two.energy_j == pytest.approx(2 * one.energy_j)
        assert two.latency_s == pytest.approx(2 * one.latency_s)

    def test_average_power_reasonable(self, tx2_gpu, tx2_dvfs):
        model = EnergyModel(tx2_gpu)
        report = model.network_report(
            estimate_cost(attentivenas_model("a3")), tx2_dvfs.default_setting()
        )
        assert 2.0 < report.average_power_w < 20.0  # Jetson TX2 envelope

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 10))
    def test_energy_positive_on_grid(self, core_idx, emc_idx):
        platform = get_platform("tx2-gpu")
        model = EnergyModel(platform)
        setting = DvfsSpace(platform).decode(core_idx, emc_idx)
        energy = model.network_energy_j(estimate_cost(attentivenas_model("a0")), setting)
        assert energy > 0


class TestMeasurement:
    def _cost(self):
        return estimate_cost(attentivenas_model("a0"))

    def test_caching(self, tx2_gpu, tx2_dvfs):
        hwil = HardwareInTheLoop(tx2_gpu, seed=0)
        setting = tx2_dvfs.default_setting()
        first = hwil.measure(self._cost(), setting)
        second = hwil.measure(self._cost(), setting)
        assert first is second
        assert hwil.cache_hits == 1
        assert hwil.cache_size == 1

    def test_deterministic_across_instances(self, tx2_gpu, tx2_dvfs):
        setting = tx2_dvfs.default_setting()
        a = HardwareInTheLoop(tx2_gpu, seed=3).measure(self._cost(), setting)
        b = HardwareInTheLoop(tx2_gpu, seed=3).measure(self._cost(), setting)
        assert a.energy_j_mean == b.energy_j_mean

    def test_noise_centres_on_model(self, tx2_gpu, tx2_dvfs):
        setting = tx2_dvfs.default_setting()
        hwil = HardwareInTheLoop(tx2_gpu, noise_cv=0.02, repeats=200, seed=1)
        truth = EnergyModel(tx2_gpu).network_energy_j(self._cost(), setting)
        measured = hwil.measure(self._cost(), setting)
        assert measured.energy_j_mean == pytest.approx(truth, rel=0.02)
        assert measured.energy_j_std / measured.energy_j_mean == pytest.approx(0.02, rel=0.5)

    def test_zero_noise_exact(self, tx2_gpu, tx2_dvfs):
        setting = tx2_dvfs.default_setting()
        hwil = HardwareInTheLoop(tx2_gpu, noise_cv=0.0, seed=0)
        truth = EnergyModel(tx2_gpu).network_report(self._cost(), setting)
        measured = hwil.measure(self._cost(), setting)
        assert measured.energy_j_mean == pytest.approx(truth.energy_j)
        assert measured.latency_s_std == 0.0

    def test_different_settings_cached_separately(self, tx2_gpu, tx2_dvfs):
        hwil = HardwareInTheLoop(tx2_gpu, seed=0)
        hwil.measure(self._cost(), tx2_dvfs.decode(0, 0))
        hwil.measure(self._cost(), tx2_dvfs.decode(1, 0))
        assert hwil.cache_size == 2


class TestBatchedExecutionGoldenValues:
    """`batched_execution` pinned against hand-computed numbers.

    Fleet pricing is built on this function; these goldens freeze the
    busy-time-serialises / shared-dispatch-overhead semantics so a drift in
    either silently re-pricing every serving and fleet benchmark is caught
    here first.  All expected values are worked out by hand from

        latency = sum(busy_i) + max_overhead
        energy  = sum(dynamic_i + passive_i * busy_i)
                  + passive(argmax overhead) * max_overhead
    """

    # PathProfile(busy_s, overhead_s, dynamic_energy_j, passive_power_w)
    SHALLOW = PathProfile(0.005, 0.001, 0.01, 1.5)
    MIDDLE = PathProfile(0.010, 0.002, 0.05, 2.0)
    DEEP = PathProfile(0.020, 0.005, 0.08, 3.0)

    def test_single_path_golden(self):
        latency, energy = batched_execution([self.MIDDLE])
        assert latency == pytest.approx(0.012, rel=1e-12)  # 0.010 + 0.002
        # 0.05 + 2.0 * 0.010 + 2.0 * 0.002 = 0.074
        assert energy == pytest.approx(0.074, rel=1e-12)
        assert latency == pytest.approx(self.MIDDLE.latency_s, rel=1e-12)
        assert energy == pytest.approx(self.MIDDLE.energy_j, rel=1e-12)

    def test_mixed_batch_golden(self):
        latency, energy = batched_execution([self.SHALLOW, self.MIDDLE, self.DEEP])
        # busy serialises: 0.005 + 0.010 + 0.020; deepest overhead 0.005 shared.
        assert latency == pytest.approx(0.040, rel=1e-12)
        # (0.01 + 1.5*0.005) + (0.05 + 2.0*0.010) + (0.08 + 3.0*0.020)
        #   + 3.0*0.005 (deep path's passive burns the shared overhead)
        # = 0.0175 + 0.070 + 0.140 + 0.015 = 0.2425
        assert energy == pytest.approx(0.2425, rel=1e-12)

    def test_homogeneous_batch_golden(self):
        latency, energy = batched_execution([self.DEEP] * 4)
        assert latency == pytest.approx(4 * 0.020 + 0.005, rel=1e-12)  # 0.085
        # 4 * (0.08 + 3.0*0.020) + 3.0*0.005 = 4*0.14 + 0.015 = 0.575
        assert energy == pytest.approx(0.575, rel=1e-12)

    def test_batch_order_does_not_change_price(self):
        forward = batched_execution([self.SHALLOW, self.MIDDLE, self.DEEP])
        backward = batched_execution([self.DEEP, self.MIDDLE, self.SHALLOW])
        assert forward == pytest.approx(backward, rel=1e-12)

    def test_overhead_tie_charges_first_deepest(self):
        # Two paths tie on overhead but differ on passive power: the shared
        # overhead is charged at the *first* maximal path's passive power
        # (Python max semantics) — pinned so batch pricing stays stable.
        a = PathProfile(0.010, 0.004, 0.02, 1.0)
        b = PathProfile(0.010, 0.004, 0.02, 5.0)
        _, energy_ab = batched_execution([a, b])
        _, energy_ba = batched_execution([b, a])
        # a first: (0.02+1.0*0.01) + (0.02+5.0*0.01) + 1.0*0.004 = 0.104
        assert energy_ab == pytest.approx(0.104, rel=1e-12)
        # b first: same busy terms + 5.0*0.004 = 0.120
        assert energy_ba == pytest.approx(0.120, rel=1e-12)

    def test_zero_overhead_batch(self):
        p = PathProfile(0.003, 0.0, 0.004, 2.0)
        latency, energy = batched_execution([p, p])
        assert latency == pytest.approx(0.006, rel=1e-12)
        assert energy == pytest.approx(2 * (0.004 + 2.0 * 0.003), rel=1e-12)
