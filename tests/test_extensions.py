"""Extension features: HW proxy, random-search baseline, per-exit DVFS
planner, and the CLI entry point."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.cost import estimate_cost
from repro.baselines.attentivenas import attentivenas_model, attentivenas_models
from repro.exits.placement import ExitPlacement
from repro.hardware.dvfs import DvfsSpace
from repro.hardware.measurement import HardwareInTheLoop
from repro.hardware.proxy import HardwareProxy
from repro.runtime.planner import plan_per_exit_dvfs
from repro.search.ioe import InnerEngine
from repro.search.nsga2 import Nsga2Config
from repro.search.random_search import RandomSearch


@pytest.fixture(scope="module")
def fitted_proxy(tx2_gpu):
    hwil = HardwareInTheLoop(tx2_gpu, noise_cv=0.01, seed=0)
    models = attentivenas_models()
    train = [estimate_cost(models[n]) for n in ("a0", "a2", "a4", "a6")]
    proxy = HardwareProxy(tx2_gpu).fit(train, hwil, settings_per_network=10, seed=0)
    return proxy, hwil


class TestHardwareProxy:
    def test_unfitted_raises(self, tx2_gpu, tx2_dvfs):
        proxy = HardwareProxy(tx2_gpu)
        cost = estimate_cost(attentivenas_model("a0"))
        with pytest.raises(RuntimeError):
            proxy.predict_energy_j(cost, tx2_dvfs.default_setting())

    def test_interpolation_accuracy(self, fitted_proxy, tx2_dvfs):
        proxy, hwil = fitted_proxy
        held_out = [estimate_cost(attentivenas_model(n)) for n in ("a1", "a3", "a5")]
        accuracy = proxy.validate(held_out, hwil, settings_per_network=5, seed=2)
        assert accuracy.latency_mape < 0.15
        assert accuracy.energy_mape < 0.15

    def test_predictions_positive(self, fitted_proxy, tx2_dvfs):
        proxy, _ = fitted_proxy
        cost = estimate_cost(attentivenas_model("a3"))
        for setting in (tx2_dvfs.default_setting(), tx2_dvfs.decode(0, 0)):
            assert proxy.predict_latency_s(cost, setting) > 0
            assert proxy.predict_energy_j(cost, setting) > 0

    def test_predicts_size_ordering(self, fitted_proxy, tx2_dvfs):
        proxy, _ = fitted_proxy
        setting = tx2_dvfs.default_setting()
        small = proxy.predict_energy_j(estimate_cost(attentivenas_model("a1")), setting)
        large = proxy.predict_energy_j(estimate_cost(attentivenas_model("a5")), setting)
        assert large > small

    def test_predicts_frequency_trend(self, fitted_proxy, tx2_dvfs):
        """Latency must rise as the core clock falls, even off the training
        settings — the physically-motivated 1/f features guarantee it."""
        proxy, _ = fitted_proxy
        cost = estimate_cost(attentivenas_model("a3"))
        slow = proxy.predict_latency_s(cost, tx2_dvfs.decode(1, 8))
        fast = proxy.predict_latency_s(cost, tx2_dvfs.decode(12, 8))
        assert slow > fast

    def test_training_point_count(self, fitted_proxy):
        proxy, _ = fitted_proxy
        assert proxy.num_training_points == 4 * 10

    def test_invalid_ridge(self, tx2_gpu):
        with pytest.raises(ValueError):
            HardwareProxy(tx2_gpu, ridge=-1.0)


class TestRandomSearch:
    def _problem(self, static_evaluator, surrogate):
        backbone = attentivenas_model("a0")
        engine = InnerEngine(
            backbone, static_evaluator, surrogate.accuracy_fraction(backbone),
            nsga=Nsga2Config(population=4, generations=2), seed=0,
        )
        return engine.problem

    def test_budget_respected(self, static_evaluator, surrogate):
        problem = self._problem(static_evaluator, surrogate)
        search = RandomSearch(problem, budget=25, rng=0)
        history = search.run()
        assert len(history) == 25 == search.num_evaluations

    def test_pareto_archive(self, static_evaluator, surrogate):
        problem = self._problem(static_evaluator, surrogate)
        search = RandomSearch(problem, budget=30, rng=1)
        search.run()
        archive = search.pareto()
        assert 1 <= len(archive) <= 30

    def test_mostly_distinct_genomes(self, static_evaluator, surrogate):
        problem = self._problem(static_evaluator, surrogate)
        search = RandomSearch(problem, budget=40, rng=2)
        history = search.run()
        keys = {ind.key() for ind in history}
        assert len(keys) > 30

    def test_invalid_budget(self, static_evaluator, surrogate):
        with pytest.raises(ValueError):
            RandomSearch(self._problem(static_evaluator, surrogate), budget=0)

    def test_deterministic(self, static_evaluator, surrogate):
        problem = self._problem(static_evaluator, surrogate)
        a = RandomSearch(problem, budget=10, rng=3).run()
        b = RandomSearch(problem, budget=10, rng=3).run()
        assert [i.key() for i in a] == [i.key() for i in b]


class TestPerExitPlanner:
    @pytest.fixture(scope="class")
    def evaluator(self, static_evaluator, surrogate):
        backbone = attentivenas_model("a3")
        engine = InnerEngine(
            backbone, static_evaluator, surrogate.accuracy_fraction(backbone),
            nsga=Nsga2Config(population=4, generations=2), seed=0,
        )
        return engine.evaluator

    def test_plan_never_worse_than_single(self, evaluator, tx2_dvfs):
        placement = ExitPlacement(evaluator.config.total_mbconv_layers, (6, 10, 14))
        plan = plan_per_exit_dvfs(evaluator, placement, tx2_dvfs)
        assert plan.per_exit_energy_j <= plan.single_setting_energy_j + 1e-12
        assert 0.0 <= plan.extra_gain < 1.0

    def test_settings_for_every_path(self, evaluator, tx2_dvfs):
        placement = ExitPlacement(evaluator.config.total_mbconv_layers, (6, 14))
        plan = plan_per_exit_dvfs(evaluator, placement, tx2_dvfs)
        assert set(plan.settings) == {0, 1, 2}

    def test_latency_slack_respected(self, evaluator, tx2_dvfs):
        placement = ExitPlacement(evaluator.config.total_mbconv_layers, (6, 14))
        tight = plan_per_exit_dvfs(evaluator, placement, tx2_dvfs, latency_slack=1.0)
        loose = plan_per_exit_dvfs(evaluator, placement, tx2_dvfs, latency_slack=2.5)
        assert loose.per_exit_energy_j <= tight.per_exit_energy_j + 1e-12

    def test_invalid_slack(self, evaluator, tx2_dvfs):
        placement = ExitPlacement(evaluator.config.total_mbconv_layers, (6,))
        with pytest.raises(ValueError):
            plan_per_exit_dvfs(evaluator, placement, tx2_dvfs, latency_slack=0.5)


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig5" in out

    def test_table2_artifact(self, capsys):
        from repro.__main__ import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "2.94" in out

    def test_table2_dvfs_grid_artifact(self, capsys):
        from repro.__main__ import main
        from repro.hardware.platform import PAPER_PLATFORM_ORDER, get_platform

        assert main(["table2", "--dvfs-grid"]) == 0
        out = capsys.readouterr().out
        block = out[out.index("Exhaustive DVFS grids") :]
        for key in PAPER_PLATFORM_ORDER:
            assert get_platform(key).name in block

    def test_unknown_artifact(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_unknown_profile(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["table2", "--profile", "huge"])
