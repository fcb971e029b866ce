"""Runtime controllers, the DVFS governor, and the deployment simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy.exit_model import BackboneExitOracle
from repro.baselines.attentivenas import attentivenas_model
from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import ExitPlacement
from repro.hardware.dvfs import DvfsSetting
from repro.hardware.energy import EnergyModel
from repro.runtime.controller import (
    ConfidenceThresholdController,
    EntropyThresholdController,
    OracleController,
    tune_thresholds,
)
from repro.runtime.governor import DvfsGovernor
from repro.runtime.simulator import StreamSimulator


def _stream(n=60, classes=5, exits=3, seed=0):
    """Synthetic logits stream: later exits are more confident/correct."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    exit_logits = rng.normal(0, 1, size=(exits, n, classes))
    final_logits = rng.normal(0, 1, size=(n, classes))
    for i in range(exits):
        strength = 1.0 + 2.0 * i
        correct = rng.random(n) < 0.4 + 0.2 * i
        exit_logits[i, correct, labels[correct]] += strength
    final_logits[np.arange(n), labels] += 4.0
    return exit_logits, final_logits, labels


class TestOracleController:
    def test_requires_labels(self):
        exit_logits, _, _ = _stream()
        with pytest.raises(ValueError):
            OracleController().decide(exit_logits)

    def test_first_correct_exit_taken(self):
        labels = np.asarray([0, 0])
        exit_logits = np.zeros((2, 2, 2))
        exit_logits[0, 0, 0] = 5.0   # exit0 correct on sample0
        exit_logits[0, 1, 1] = 5.0   # exit0 wrong on sample1
        exit_logits[1, :, 0] = 5.0   # exit1 correct on both
        decisions = OracleController().decide(exit_logits, labels)
        np.testing.assert_array_equal(decisions, [0, 1])

    def test_no_exit_correct_runs_full(self):
        labels = np.asarray([0])
        exit_logits = np.zeros((2, 1, 2))
        exit_logits[:, 0, 1] = 5.0  # both exits wrong
        decisions = OracleController().decide(exit_logits, labels)
        assert decisions[0] == 2


class TestThresholdControllers:
    def test_entropy_zero_never_exits(self):
        exit_logits, _, labels = _stream()
        controller = EntropyThresholdController(0.0, num_exits=3)
        decisions = controller.decide(exit_logits)
        assert (decisions == 3).mean() > 0.9  # ~nothing below zero entropy

    def test_entropy_one_always_exits_first(self):
        exit_logits, _, _ = _stream()
        controller = EntropyThresholdController(1.0, num_exits=3)
        decisions = controller.decide(exit_logits)
        assert (decisions == 0).all()

    def test_entropy_monotone_in_threshold(self):
        exit_logits, _, _ = _stream()
        lo = EntropyThresholdController(0.2, 3).decide(exit_logits)
        hi = EntropyThresholdController(0.8, 3).decide(exit_logits)
        assert (hi <= lo).all()  # looser threshold -> exit no later

    def test_confidence_controller(self):
        exit_logits, _, _ = _stream()
        strict = ConfidenceThresholdController(0.999, 3).decide(exit_logits)
        lax = ConfidenceThresholdController(0.01, 3).decide(exit_logits)
        assert (lax == 0).all()
        assert strict.mean() > lax.mean()

    def test_num_exits_mismatch(self):
        exit_logits, _, _ = _stream()
        with pytest.raises(ValueError):
            EntropyThresholdController(0.5, 2).decide(exit_logits)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            EntropyThresholdController(1.5, 2)

    def test_per_exit_thresholds(self):
        exit_logits, _, _ = _stream()
        controller = EntropyThresholdController(np.asarray([0.0, 0.0, 1.0]), 3)
        decisions = controller.decide(exit_logits)
        assert set(decisions.tolist()) <= {2, 3}


class TestTuneThresholds:
    def test_entropy_rate_roughly_hit(self):
        exit_logits, _, _ = _stream(n=400)
        thresholds = tune_thresholds(exit_logits, target_exit_rate=0.3, kind="entropy")
        controller = EntropyThresholdController(thresholds, 3)
        decisions = controller.decide(exit_logits)
        first_rate = (decisions == 0).mean()
        assert first_rate == pytest.approx(0.3, abs=0.07)

    def test_confidence_kind(self):
        exit_logits, _, _ = _stream(n=200)
        thresholds = tune_thresholds(exit_logits, 0.5, kind="confidence")
        assert thresholds.shape == (3,)
        assert (thresholds >= 0).all() and (thresholds <= 1).all()

    @pytest.mark.parametrize("target", [0.2, 0.4, 0.6, 0.8])
    def test_entropy_rate_hit_across_targets(self, target):
        exit_logits, _, _ = _stream(n=600, seed=5)
        thresholds = tune_thresholds(exit_logits, target, kind="entropy")
        decisions = EntropyThresholdController(thresholds, 3).decide(exit_logits)
        # Per-exit take rate: of the samples *reaching* each exit, the target
        # fraction should stop there (the quantity tune_thresholds calibrates).
        reached = len(decisions)
        for i in range(3):
            taken = (decisions == i).sum()
            assert taken / reached == pytest.approx(target, abs=0.08)
            reached -= taken
            if reached < 40:  # too few survivors for a rate estimate
                break

    @pytest.mark.parametrize("target", [0.3, 0.6])
    def test_confidence_rate_hit(self, target):
        exit_logits, _, _ = _stream(n=600, seed=6)
        thresholds = tune_thresholds(exit_logits, target, kind="confidence")
        controller = ConfidenceThresholdController(thresholds, 3)
        decisions = controller.decide(exit_logits)
        first_rate = (decisions == 0).mean()
        assert first_rate == pytest.approx(target, abs=0.08)

    def test_invalid_kind(self):
        exit_logits, _, _ = _stream()
        with pytest.raises(ValueError):
            tune_thresholds(exit_logits, 0.5, kind="magic")

    def test_invalid_rate(self):
        exit_logits, _, _ = _stream()
        with pytest.raises(ValueError):
            tune_thresholds(exit_logits, 1.5)


class TestControllerMonotonicity:
    """Tighter thresholds must never produce *more* early exits."""

    def test_entropy_early_exit_fraction_monotone(self):
        exit_logits, _, _ = _stream(n=300)
        fractions = []
        for threshold in np.linspace(0.0, 1.0, 9):
            decisions = EntropyThresholdController(threshold, 3).decide(exit_logits)
            fractions.append((decisions < 3).mean())
        assert fractions == sorted(fractions)
        assert fractions[0] < fractions[-1]  # the sweep actually moves

    def test_entropy_decisions_pointwise_monotone(self):
        exit_logits, _, _ = _stream(n=300)
        previous = None
        for threshold in np.linspace(0.0, 1.0, 9):
            decisions = EntropyThresholdController(threshold, 3).decide(exit_logits)
            if previous is not None:
                assert (decisions <= previous).all()  # looser -> exit no later
            previous = decisions

    def test_confidence_early_exit_fraction_monotone(self):
        exit_logits, _, _ = _stream(n=300)
        fractions = []
        for threshold in np.linspace(0.0, 1.0, 9):
            decisions = ConfidenceThresholdController(threshold, 3).decide(exit_logits)
            fractions.append((decisions < 3).mean())
        # Higher confidence bar = tighter: fractions non-increasing.
        assert fractions == sorted(fractions, reverse=True)
        assert fractions[0] > fractions[-1]

    def test_per_exit_tightening_single_exit(self):
        exit_logits, _, _ = _stream(n=300)
        loose = np.asarray([0.8, 0.8, 0.8])
        for tightened in range(3):
            thresholds = loose.copy()
            thresholds[tightened] = 0.1
            base = EntropyThresholdController(loose, 3).decide(exit_logits)
            tight = EntropyThresholdController(thresholds, 3).decide(exit_logits)
            assert (tight == tightened).sum() <= (base == tightened).sum()


class TestGovernor:
    def test_default_setting(self):
        governor = DvfsGovernor(DvfsSetting(1.0, 1.0))
        assert governor.setting_for(0) == DvfsSetting(1.0, 1.0)

    def test_per_exit_override(self):
        governor = DvfsGovernor(
            DvfsSetting(1.0, 1.0), per_exit={0: DvfsSetting(0.5, 0.5)}
        )
        assert governor.setting_for(0) == DvfsSetting(0.5, 0.5)
        assert governor.setting_for(1) == DvfsSetting(1.0, 1.0)

    def test_switching_energy(self):
        governor = DvfsGovernor(
            DvfsSetting(1.0, 1.0),
            per_exit={0: DvfsSetting(0.5, 0.5)},
            switch_cost_j=0.01,
        )
        decisions = np.asarray([0, 1, 0, 1])  # three transitions
        assert governor.switching_energy(decisions) == pytest.approx(0.03)

    def test_no_switch_cost_by_default(self):
        governor = DvfsGovernor(DvfsSetting(1.0, 1.0))
        assert governor.switching_energy(np.asarray([0, 1, 2])) == 0.0

    def test_no_charge_when_exits_share_a_setting(self):
        # Different exits mapped to the *same* operating point: the hardware
        # never retunes, so alternating decisions must cost nothing.
        shared = DvfsSetting(0.5, 0.5)
        governor = DvfsGovernor(
            DvfsSetting(1.0, 1.0),
            per_exit={0: shared, 1: shared},
            switch_cost_j=0.01,
        )
        assert governor.switching_energy(np.asarray([0, 1, 0, 1])) == 0.0
        # ...but moving between the shared point and the default does charge.
        assert governor.switching_energy(np.asarray([0, 2, 0])) == pytest.approx(0.02)

    def test_switch_cost_counts_transitions_not_samples(self):
        governor = DvfsGovernor(
            DvfsSetting(1.0, 1.0),
            per_exit={0: DvfsSetting(0.5, 0.5)},
            switch_cost_j=0.01,
        )
        constant = np.zeros(50, dtype=np.int64)
        assert governor.switching_energy(constant) == 0.0
        blocks = np.asarray([0] * 10 + [1] * 10 + [0] * 10)  # two transitions
        assert governor.switching_energy(blocks) == pytest.approx(0.02)

    def test_single_sample_never_charged(self):
        governor = DvfsGovernor(
            DvfsSetting(1.0, 1.0),
            per_exit={0: DvfsSetting(0.5, 0.5)},
            switch_cost_j=0.01,
        )
        assert governor.switching_energy(np.asarray([0])) == 0.0


class TestStreamSimulator:
    @pytest.fixture(scope="class")
    def simulator(self, static_evaluator, surrogate):
        backbone = attentivenas_model("a3")
        static = static_evaluator.evaluate(backbone)
        oracle = BackboneExitOracle(
            backbone.key, backbone.total_mbconv_layers,
            surrogate.accuracy_fraction(backbone), seed=0,
        )
        evaluator = DynamicEvaluator(
            config=backbone, cost=static_evaluator.cost(backbone), oracle=oracle,
            energy_model=EnergyModel(static_evaluator.platform),
            baseline_energy_j=static.energy_j, baseline_latency_s=static.latency_s,
        )
        placement = ExitPlacement(backbone.total_mbconv_layers, (6, 10, 14))
        governor = DvfsGovernor(static_evaluator.default_setting)
        return StreamSimulator(evaluator, placement, governor)

    def test_report_consistency(self, simulator):
        exit_logits, final_logits, labels = _stream(n=80, exits=3)
        report = simulator.simulate(exit_logits, final_logits, labels, OracleController())
        assert 0 <= report.accuracy <= 1
        assert report.exit_usage.sum() == pytest.approx(1.0)
        assert report.mean_energy_j > 0 and report.mean_latency_s > 0

    def test_oracle_beats_never_exiting_on_energy(self, simulator):
        exit_logits, final_logits, labels = _stream(n=80, exits=3)
        oracle_report = simulator.simulate(
            exit_logits, final_logits, labels, OracleController()
        )
        never = EntropyThresholdController(0.0, 3)
        never_report = simulator.simulate(exit_logits, final_logits, labels, never)
        assert oracle_report.mean_energy_j < never_report.mean_energy_j
        assert oracle_report.accuracy >= never_report.accuracy

    def test_always_first_exit_cheapest(self, simulator):
        exit_logits, final_logits, labels = _stream(n=80, exits=3)
        always = EntropyThresholdController(1.0, 3)
        report = simulator.simulate(exit_logits, final_logits, labels, always)
        assert report.early_exit_fraction == 1.0
        oracle_report = simulator.simulate(
            exit_logits, final_logits, labels, OracleController()
        )
        assert report.mean_energy_j <= oracle_report.mean_energy_j + 1e-9

    def test_exit_count_mismatch(self, simulator):
        exit_logits, final_logits, labels = _stream(n=10, exits=2)
        with pytest.raises(ValueError):
            simulator.simulate(exit_logits, final_logits, labels, OracleController())

    def test_switching_cost_accounted(self, static_evaluator, surrogate, simulator):
        exit_logits, final_logits, labels = _stream(n=40, exits=3)
        governor = DvfsGovernor(
            static_evaluator.default_setting,
            per_exit={0: DvfsSetting(0.75, 1.0)},
            switch_cost_j=0.001,
        )
        sim = StreamSimulator(simulator.evaluator, simulator.placement, governor)
        report = sim.simulate(exit_logits, final_logits, labels, OracleController())
        assert report.switching_energy_j > 0

    def test_path_costs_match_one_row_kernel(self, tx2_dvfs, simulator):
        """Each exit index costs, bit for bit, what a one-row population
        kernel call at that index's setting gives."""
        settings = tx2_dvfs.all_settings()
        governor = DvfsGovernor(
            settings[0],
            per_exit={1: settings[len(settings) // 2], 3: settings[-1]},
        )
        sim = StreamSimulator(simulator.evaluator, simulator.placement, governor)
        positions = simulator.placement.positions
        for index in range(len(positions) + 1):
            costs = simulator.evaluator.population.path_costs(
                [positions], [governor.setting_for(index)]
            )
            energy, latency = costs.row(0)
            want = (
                np.append(energy, costs.full_energy_j)[index],
                np.append(latency, costs.full_latency_s)[index],
            )
            got = sim._path_cost(index)
            assert np.array(got).tobytes() == np.array(want).tobytes(), index
        assert len(sim._path_costs) == 3
