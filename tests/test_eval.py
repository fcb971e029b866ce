"""Static S(b) and dynamic D(x, f | b) evaluators (paper eqs. 3, 5-7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy.exit_model import BackboneExitOracle
from repro.arch.cost import estimate_cost
from repro.baselines.attentivenas import attentivenas_model
from repro.eval.dynamic import DynamicEvaluator
from repro.eval.static import StaticEvaluator
from repro.exits.placement import ExitPlacement
from repro.hardware.energy import EnergyModel
from spec import evaluation as spec_evaluation


@pytest.fixture(scope="module")
def a3():
    return attentivenas_model("a3")


@pytest.fixture(scope="module")
def dyn_evaluator(static_evaluator, surrogate, a3):
    static = static_evaluator.evaluate(a3)
    oracle = BackboneExitOracle(
        a3.key, a3.total_mbconv_layers, surrogate.accuracy_fraction(a3), seed=0
    )
    return DynamicEvaluator(
        config=a3,
        cost=static_evaluator.cost(a3),
        oracle=oracle,
        energy_model=EnergyModel(static_evaluator.platform),
        baseline_energy_j=static.energy_j,
        baseline_latency_s=static.latency_s,
        gamma=1.0,
    )


class TestStaticEvaluator:
    def test_caching(self, static_evaluator, a3):
        first = static_evaluator.evaluate(a3)
        second = static_evaluator.evaluate(a3)
        assert first is second

    def test_objectives_signs(self, static_evaluator, a3):
        evaluation = static_evaluator.evaluate(a3)
        acc, neg_lat, neg_erg = evaluation.objectives()
        assert acc > 0 and neg_lat < 0 and neg_erg < 0

    def test_uses_default_dvfs(self, static_evaluator, tx2_dvfs):
        assert static_evaluator.default_setting == tx2_dvfs.default_setting()

    def test_num_evaluations_counts_distinct(self, tx2_gpu, surrogate):
        evaluator = StaticEvaluator(tx2_gpu, surrogate, seed=0)
        evaluator.evaluate(attentivenas_model("a0"))
        evaluator.evaluate(attentivenas_model("a0"))
        evaluator.evaluate(attentivenas_model("a1"))
        assert evaluator.num_evaluations == 2

    def test_cost_cached(self, static_evaluator, a3):
        assert static_evaluator.cost(a3) is static_evaluator.cost(a3)


class TestDynamicEvaluator:
    def _placement(self, a3, positions=(6, 10, 14)):
        return ExitPlacement(a3.total_mbconv_layers, positions)

    def test_eval_cached(self, dyn_evaluator, static_evaluator, a3):
        placement = self._placement(a3)
        setting = static_evaluator.default_setting
        assert dyn_evaluator.evaluate(placement, setting) is dyn_evaluator.evaluate(
            placement, setting
        )

    def test_energy_gain_positive_for_sensible_exits(self, dyn_evaluator, static_evaluator, a3):
        evaluation = dyn_evaluator.evaluate(
            self._placement(a3), static_evaluator.default_setting
        )
        assert 0.1 < evaluation.energy_gain < 0.9
        assert 0.1 < evaluation.latency_gain < 0.9

    def test_dynamic_energy_is_usage_weighted(self, dyn_evaluator, static_evaluator, a3):
        placement = self._placement(a3)
        setting = static_evaluator.default_setting
        evaluation = dyn_evaluator.evaluate(placement, setting)
        usage = evaluation.exit_stats.usage
        full = spec_evaluation.full_path_report(dyn_evaluator, placement.positions, setting)
        manual = usage[:-1] @ evaluation.exit_energy_j + usage[-1] * full.energy_j
        assert evaluation.dynamic_energy_j == pytest.approx(manual)

    def test_exit_paths_cumulative(self, dyn_evaluator, static_evaluator, a3):
        """Later exits cost more: prefix grows and earlier branches add on."""
        evaluation = dyn_evaluator.evaluate(
            self._placement(a3), static_evaluator.default_setting
        )
        assert np.all(np.diff(evaluation.exit_energy_j) > 0)
        assert np.all(np.diff(evaluation.exit_latency_s) > 0)

    def test_full_path_costs_more_than_backbone(self, dyn_evaluator, static_evaluator, a3):
        placement = self._placement(a3)
        setting = static_evaluator.default_setting
        full = spec_evaluation.full_path_report(dyn_evaluator, placement.positions, setting)
        assert full.energy_j > dyn_evaluator.baseline_energy_j * 0.9

    def test_scores_eq6_composition(self, dyn_evaluator, static_evaluator, a3):
        placement = self._placement(a3)
        evaluation = dyn_evaluator.evaluate(placement, static_evaluator.default_setting)
        stats = evaluation.exit_stats
        expected = (
            stats.n_i
            * np.clip(1 - evaluation.exit_energy_j / dyn_evaluator.baseline_energy_j, 0, None)
            * np.clip(1 - evaluation.exit_latency_s / dyn_evaluator.baseline_latency_s, 0, None)
            * stats.dissimilarity**1.0
        )
        np.testing.assert_allclose(evaluation.scores, expected)
        assert evaluation.d_score == pytest.approx(expected.mean())

    def test_gamma_zero_removes_dissim(self, static_evaluator, surrogate, a3):
        static = static_evaluator.evaluate(a3)
        oracle = BackboneExitOracle(
            a3.key, a3.total_mbconv_layers, surrogate.accuracy_fraction(a3), seed=0
        )
        evaluator = DynamicEvaluator(
            config=a3, cost=static_evaluator.cost(a3), oracle=oracle,
            energy_model=EnergyModel(static_evaluator.platform),
            baseline_energy_j=static.energy_j, baseline_latency_s=static.latency_s,
            gamma=0.0,
        )
        placement = self._placement(a3)
        evaluation = evaluator.evaluate(placement, static_evaluator.default_setting)
        stats = evaluation.exit_stats
        expected = (
            stats.n_i
            * np.clip(1 - evaluation.exit_energy_j / evaluator.baseline_energy_j, 0, None)
            * np.clip(1 - evaluation.exit_latency_s / evaluator.baseline_latency_s, 0, None)
        )
        np.testing.assert_allclose(evaluation.scores, expected)

    def test_literal_ratios_mode(self, static_evaluator, surrogate, a3):
        static = static_evaluator.evaluate(a3)
        oracle = BackboneExitOracle(
            a3.key, a3.total_mbconv_layers, surrogate.accuracy_fraction(a3), seed=0
        )
        evaluator = DynamicEvaluator(
            config=a3, cost=static_evaluator.cost(a3), oracle=oracle,
            energy_model=EnergyModel(static_evaluator.platform),
            baseline_energy_j=static.energy_j, baseline_latency_s=static.latency_s,
            literal_ratios=True,
        )
        placement = self._placement(a3)
        evaluation = evaluator.evaluate(placement, static_evaluator.default_setting)
        ratios = evaluation.exit_energy_j / evaluator.baseline_energy_j
        assert np.all(evaluation.scores <= evaluation.exit_stats.n_i * ratios * 1.01 + 1e-9)

    def test_objectives_are_proxy_averages(self, dyn_evaluator, static_evaluator, a3):
        placement = self._placement(a3)
        generation = dyn_evaluator.evaluate_population(
            [placement], static_evaluator.default_setting
        )
        evaluation = generation[0]
        d_acc, d_energy, d_latency = generation.objectives[0]
        stats = evaluation.exit_stats
        assert d_acc == pytest.approx(float(np.mean(stats.n_i * stats.dissimilarity)))
        expected_energy = np.clip(
            1 - evaluation.exit_energy_j / dyn_evaluator.baseline_energy_j, 0, None
        ).mean()
        assert d_energy == pytest.approx(float(expected_energy))
        assert 0 <= d_latency <= 1

    def test_lower_frequency_changes_both_sides(self, dyn_evaluator, static_evaluator, a3, tx2_dvfs):
        placement = self._placement(a3)
        default = static_evaluator.default_setting
        slow = tx2_dvfs.decode(2, 2)
        fast_eval = dyn_evaluator.evaluate(placement, default)
        slow_eval = dyn_evaluator.evaluate(placement, slow)
        assert slow_eval.dynamic_latency_s > fast_eval.dynamic_latency_s
        # Accuracy side is DVFS-independent.
        np.testing.assert_array_equal(slow_eval.exit_stats.n_i, fast_eval.exit_stats.n_i)

    def test_branch_cost_cached_per_position(self, dyn_evaluator, a3):
        first = dyn_evaluator.branch_cost(6)
        second = dyn_evaluator.branch_cost(6)
        assert first is second

    def test_invalid_gamma(self, static_evaluator, surrogate, a3):
        static = static_evaluator.evaluate(a3)
        oracle = BackboneExitOracle(a3.key, a3.total_mbconv_layers, 0.87, seed=0)
        with pytest.raises(ValueError):
            DynamicEvaluator(
                config=a3, cost=static_evaluator.cost(a3), oracle=oracle,
                energy_model=EnergyModel(static_evaluator.platform),
                baseline_energy_j=static.energy_j, baseline_latency_s=static.latency_s,
                gamma=-1.0,
            )
