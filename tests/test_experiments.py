"""Experiment drivers: every paper artifact regenerates and renders."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments import fig1, fig5, fig6, fig7, table1, table2, table3
from repro.experiments.config import Profile
from repro.experiments.runner import (
    clear_memo,
    run_platform_experiment,
    run_platform_experiments,
)


@pytest.fixture(scope="module")
def micro_profile():
    """Tiny budget so the whole driver suite runs in seconds."""
    return Profile(
        name="micro",
        outer_population=8,
        outer_generations=3,
        inner_population=8,
        inner_generations=3,
        ioe_candidates=2,
        oracle_samples=512,
        seed=3,
    )


@pytest.fixture(scope="module", autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


class TestRunner:
    def test_memoisation(self, micro_profile):
        first = run_platform_experiment("tx2-gpu", micro_profile)
        second = run_platform_experiment("tx2-gpu", micro_profile)
        assert first is second

    def test_baselines_evaluated(self, micro_profile):
        experiment = run_platform_experiment("tx2-gpu", micro_profile)
        assert set(experiment.baseline_static) == {f"a{i}" for i in range(7)}
        assert set(experiment.baseline_inner) == {f"a{i}" for i in range(7)}

    def test_dynamic_points_shapes(self, micro_profile):
        experiment = run_platform_experiment("tx2-gpu", micro_profile)
        ours = experiment.hadas_dynamic_points()
        theirs = experiment.baseline_dynamic_points()
        assert ours.shape[1] == 2 and theirs.shape[1] == 2

    def test_hypervolumes_positive(self, micro_profile):
        experiment = run_platform_experiment("tx2-gpu", micro_profile)
        hv_ours, hv_theirs = experiment.hypervolumes()
        assert hv_ours > 0 and hv_theirs > 0


class TestShardedSweeps:
    """Multi-platform sweeps: one codec-backed batch, bit-identical shards."""

    PLATFORMS = ("tx2-gpu", "agx-gpu")

    @pytest.fixture(scope="class")
    def nano_profile(self):
        return Profile(
            name="nano",
            outer_population=6,
            outer_generations=2,
            inner_population=6,
            inner_generations=2,
            ioe_candidates=2,
            oracle_samples=256,
            seed=5,
        )

    def test_fig5_two_platform_process_sweep_bit_identical(self, nano_profile):
        clear_memo()
        serial = fig5.run(nano_profile, platforms=self.PLATFORMS)
        serial_text = fig5.render(serial)
        clear_memo()
        sharded_profile = dataclasses.replace(
            nano_profile, workers=2, executor="process"
        )
        sharded = fig5.run(sharded_profile, platforms=self.PLATFORMS)
        assert fig5.render(sharded) == serial_text  # whole report, bytes equal
        for platform in self.PLATFORMS:
            ours, theirs = serial.panels[platform], sharded.panels[platform]
            for name, series in ours.static_series().items():
                np.testing.assert_array_equal(series, theirs.static_series()[name])
            for name, series in ours.dynamic_series().items():
                np.testing.assert_array_equal(series, theirs.dynamic_series()[name])
            archive_a = ours.experiment.hadas.dynn_pareto()
            archive_b = theirs.experiment.hadas.dynn_pareto()
            assert len(archive_a) == len(archive_b)
            for a, b in zip(archive_a, archive_b):
                np.testing.assert_array_equal(a.genome, b.genome)
                np.testing.assert_array_equal(a.objectives, b.objectives)

        # fig6 at the same profile reuses the memoised shards (no new runs)
        # and matches the serial computation exactly.
        serial_fig6 = fig6.run(nano_profile, platforms=self.PLATFORMS)
        sharded_fig6 = fig6.run(sharded_profile, platforms=self.PLATFORMS)
        assert fig6.render(sharded_fig6) == fig6.render(serial_fig6)
        clear_memo()

    def test_sharded_runner_memoises_per_platform(self, nano_profile):
        clear_memo()
        first = run_platform_experiments(self.PLATFORMS, nano_profile)
        again = run_platform_experiments(self.PLATFORMS, nano_profile)
        for platform in self.PLATFORMS:
            assert first[platform] is again[platform]
            assert run_platform_experiment(platform, nano_profile) is first[platform]
        clear_memo()

    def test_runner_error_path_tears_down_pools(self, nano_profile, monkeypatch):
        import repro.experiments.runner as runner_mod

        created = []

        class Boom(RuntimeError):
            pass

        class ExplodingSearch(runner_mod.HadasSearch):
            def run(self):
                created.append(self)
                # Force the lazy pool into existence, then die mid-sweep.
                self.service.executor.run([(int, ("1",)), (int, ("2",))])
                assert self.service.executor._pool is not None
                raise Boom("mid-search interrupt")

        monkeypatch.setattr(runner_mod, "HadasSearch", ExplodingSearch)
        profile = dataclasses.replace(nano_profile, workers=2, executor="thread")
        with pytest.raises(Boom):
            runner_mod.compute_platform_experiment("tx2-gpu", profile)
        assert created and created[0].service.executor._pool is None

    def test_table2_sharded_rows_identical(self):
        serial = table2.run()
        sharded = table2.run(workers=2, executor="process")
        assert sharded.dvfs_rows == serial.dvfs_rows
        assert sharded.backbone_rows == serial.backbone_rows


class TestTable1:
    def test_hadas_row_full(self):
        rows = table1.run()
        hadas = next(r for r in rows if r.name == "HADAS")
        assert hadas.early_exiting and hadas.nas and hadas.dvfs and hadas.compatibility

    def test_render(self):
        text = table1.render(table1.run())
        assert "BranchyNet" in text and "HADAS" in text


class TestTable2:
    def test_cardinality_bound(self):
        result = table2.run()
        assert result.backbone_cardinality > table2.PAPER_BACKBONE_CARDINALITY

    def test_row_counts(self):
        result = table2.run()
        assert len(result.backbone_rows) == 6
        assert len(result.exit_rows) == 2
        assert len(result.dvfs_rows) == 8  # 4 platforms x (core + EMC)

    def test_render_mentions_ranges(self):
        text = table2.render(table2.run())
        assert "[16, 1984]" in text
        assert "2.94" in text

    def test_dvfs_grid_covers_every_platform(self):
        from repro.hardware.dvfs import DvfsSpace
        from repro.hardware.platform import PAPER_PLATFORM_ORDER, get_platform

        result = table2.run(dvfs_grid=True)
        assert list(result.grids) == list(PAPER_PLATFORM_ORDER)
        for key, grid in result.grids.items():
            assert grid.platform == key
            assert grid.num_settings == DvfsSpace(get_platform(key)).cardinality
        assert [row[1] for row in result.grid_rows] == [
            grid.num_settings for grid in result.grids.values()
        ]


class TestTable3:
    def test_rows_complete(self, micro_profile):
        result = table3.run(micro_profile)
        names = [row.name for row in result.rows]
        assert names[:2] == ["AttentiveNAS-a0", "AttentiveNAS-a6"]
        assert any(name.startswith("HADAS-b1") for name in names)

    def test_stage_ordering_invariants(self, micro_profile):
        result = table3.run(micro_profile)
        for row in result.rows:
            assert row.eex_energy_mj < row.baseline_energy_mj
            assert row.eex_dvfs_energy_mj <= row.eex_energy_mj + 1e-9
            assert row.eex_acc > row.baseline_acc - 0.5

    def test_b1_accuracy_matches_a6(self, micro_profile):
        result = table3.run(micro_profile)
        b1 = result.row("HADAS-b1")
        a6 = result.row("AttentiveNAS-a6")
        assert b1.eex_acc >= a6.eex_acc - 1.0

    def test_render_includes_paper_column(self, micro_profile):
        text = table3.render(table3.run(micro_profile))
        assert "paper EExDVFS" in text
        assert "116.14" in text  # paper a0 value shown alongside


class TestFig1:
    def test_stage_metrics(self, micro_profile):
        result = fig1.run(micro_profile)
        assert {s.name for s in result.stages} == {"a0", "a6", "HADAS"}
        hadas = result.model("HADAS")
        assert hadas.dyn_energy_mj < hadas.static_energy_mj
        assert hadas.dyn_hw_energy_mj <= hadas.dyn_energy_mj

    def test_gap_narrows_with_stages(self, micro_profile):
        result = fig1.run(micro_profile)
        hadas, a0 = result.model("HADAS"), result.model("a0")
        static_gap = hadas.static_energy_mj / a0.static_energy_mj
        final_gap = hadas.dyn_hw_energy_mj / a0.dyn_hw_energy_mj
        assert final_gap < static_gap

    def test_render(self, micro_profile):
        text = fig1.render(fig1.run(micro_profile))
        assert "paper: ~57%" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self, micro_profile):
        return fig5.run(micro_profile, platforms=("tx2-gpu",))

    def test_static_series(self, result):
        panel = result.panels["tx2-gpu"]
        series = panel.static_series()
        assert len(series["explored"]) >= 8
        assert len(series["baselines"]) == 7
        assert len(series["front"]) <= len(series["explored"])

    def test_baseline_domination_structure(self, result):
        panel = result.panels["tx2-gpu"]
        report = panel.baseline_domination()
        assert set(report) == {f"a{i}" for i in range(7)}
        assert all(
            "energy_reduction" in v and "accuracy_gain" in v for v in report.values()
        )

    def test_rod_in_unit_interval(self, result):
        rod = result.panels["tx2-gpu"].rod()
        assert 0.0 <= rod <= 1.0

    def test_render(self, result):
        text = fig5.render(result)
        assert "RoD" in text and "tx2-gpu" in text


class TestFig6:
    def test_rows(self, micro_profile):
        result = fig6.run(micro_profile, platforms=("tx2-gpu",))
        row = result.row("tx2-gpu")
        assert row.hv_hadas > 0
        assert -1.0 <= row.rod_advantage <= 1.0
        with pytest.raises(KeyError):
            result.row("missing")

    def test_render(self, micro_profile):
        text = fig6.render(fig6.run(micro_profile, platforms=("tx2-gpu",)))
        assert "HV" in text and "RoD" in text


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self, micro_profile):
        return fig7.run(micro_profile)

    def test_three_arms(self, result):
        assert result.without.gamma == 0.0
        assert result.with_low.gamma > 0
        assert result.with_high.gamma > result.with_low.gamma

    def test_points_shape(self, result):
        for arm in (result.without, result.with_low, result.with_high):
            points = arm.points()
            assert points.shape[1] == 2

    def test_rod_improvement_finite(self, result):
        for arm in (result.with_low, result.with_high):
            value = result.rod_improvement(arm)
            assert -1.0 <= value <= 1.0

    def test_extreme_gains_finite(self, result):
        acc_gain, energy_gain = result.extreme_gains(result.with_high)
        assert np.isfinite(acc_gain) and np.isfinite(energy_gain)

    def test_render(self, result):
        text = fig7.render(result)
        assert "gamma" in text and "paper RoD" in text
