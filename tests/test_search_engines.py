"""IOE, OOE and the bi-level HadasSearch facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.attentivenas import attentivenas_model
from repro.exits.placement import MIN_EXIT_POSITION
from repro.search.hadas import HadasConfig, HadasSearch
from repro.search.ioe import InnerEngine
from repro.search.nsga2 import Nsga2Config


@pytest.fixture(scope="module")
def inner_result(static_evaluator, surrogate):
    backbone = attentivenas_model("a3")
    engine = InnerEngine(
        backbone, static_evaluator, surrogate.accuracy_fraction(backbone),
        nsga=Nsga2Config(population=10, generations=4), seed=0,
    )
    return backbone, engine.run()


@pytest.fixture(scope="module")
def hadas_result():
    config = HadasConfig(
        platform="tx2-gpu", seed=11,
        outer_population=8, outer_generations=3,
        inner_population=8, inner_generations=3,
        ioe_candidates=2, oracle_samples=512,
    )
    return HadasSearch(config).run()


class TestInnerEngine:
    def test_pareto_nonempty(self, inner_result):
        _, result = inner_result
        assert len(result.pareto) >= 1
        assert result.num_evaluations > 0

    def test_every_member_has_valid_placement(self, inner_result):
        backbone, result = inner_result
        total = backbone.total_mbconv_layers
        for member in result.pareto:
            placement = member.payload["evaluation"].placement
            assert placement.total_layers == total
            assert all(MIN_EXIT_POSITION <= p <= total - 1 for p in placement.positions)
            assert placement.num_exits >= 1

    def test_settings_on_grid(self, inner_result, tx2_dvfs):
        _, result = inner_result
        for member in result.pareto:
            setting = member.payload["evaluation"].setting
            assert setting.core_ghz in tx2_dvfs.core_freqs
            assert setting.emc_ghz in tx2_dvfs.emc_freqs

    def test_points_2d_shapes(self, inner_result):
        _, result = inner_result
        points = result.points_2d()
        assert points.shape[1] == 2
        explored = result.points_2d(explored=True)
        assert len(explored) >= len(points)

    def test_points_dynamic_axis(self, inner_result):
        _, result = inner_result
        dyn = result.points_2d(accuracy="dynamic")
        mean_ni = result.points_2d(accuracy="mean_n_i")
        # Union accuracy is at least mean N_i everywhere.
        assert np.all(dyn[:, 1] >= mean_ni[:, 1] - 1e-12)

    def test_points_invalid_axis(self, inner_result):
        _, result = inner_result
        with pytest.raises(ValueError):
            result.points_2d(accuracy="nonsense")

    def test_best_has_max_d_score(self, inner_result):
        _, result = inner_result
        best = result.best
        scores = [m.payload["evaluation"].d_score for m in result.pareto]
        assert best.payload["evaluation"].d_score == max(scores)

    def test_deterministic(self, static_evaluator, surrogate):
        backbone = attentivenas_model("a0")

        def run():
            engine = InnerEngine(
                backbone, static_evaluator, surrogate.accuracy_fraction(backbone),
                nsga=Nsga2Config(population=6, generations=3), seed=42,
            )
            result = engine.run()
            return sorted(m.key() for m in result.pareto)

        assert run() == run()


class TestProblemVariation:
    """Both problems vary whole generations; one genome is a population of one."""

    def test_inner_mutate_keeps_rows_valid(self, inner_engine_problem):
        problem, rng = inner_engine_problem, np.random.default_rng(0)
        genomes = np.stack([problem.sample(rng) for _ in range(40)])
        genomes[::3, : problem.num_slots] = 0  # placements repair must fix
        before = genomes.copy()
        mutated = problem.mutate(genomes, rng)
        np.testing.assert_array_equal(genomes, before)
        assert mutated.shape == genomes.shape and mutated.dtype == np.int64
        bits, dvfs = problem.split(mutated)
        assert bits.any(axis=1).all() and set(np.unique(bits)) <= {0, 1}
        assert (dvfs >= 0).all() and (dvfs < problem._dvfs_bounds).all()
        one = problem.mutate(genomes[0], rng)
        assert one.shape == genomes[0].shape
        problem.decode(one)

    def test_inner_decode_rows_match_per_row(self, inner_engine_problem):
        from repro.exits.placement import ExitPlacement
        from repro.hardware.dvfs import DvfsSetting

        problem, rng = inner_engine_problem, np.random.default_rng(3)
        genomes = np.stack([problem.sample(rng) for _ in range(25)])
        dvfs = problem.dvfs_space
        layers = problem.exit_space.total_layers
        for (placement, setting), genome in zip(problem.decode_rows(genomes), genomes):
            bits, (core, emc) = problem.split(genome)
            positions = tuple(int(i) + MIN_EXIT_POSITION for i in np.flatnonzero(bits))
            assert placement == ExitPlacement(layers, positions)
            assert setting == DvfsSetting(dvfs.core_freqs[core], dvfs.emc_freqs[emc])
            assert problem.decode(genome) == (placement, setting)

    def test_outer_crossover_swaps_genes_per_position(self, static_evaluator):
        from repro.arch.space import BackboneSpace
        from repro.search.ooe import _BackboneProblem

        space = BackboneSpace()
        problem = _BackboneProblem(space, static_evaluator)
        rng = np.random.default_rng(1)
        a = np.stack([space.sample_genome(rng) for _ in range(12)])
        b = np.stack([space.sample_genome(rng) for _ in range(12)])
        ca, cb = problem.crossover(a, b, rng)
        assert ca.shape == a.shape
        np.testing.assert_array_equal(np.minimum(ca, cb), np.minimum(a, b))
        np.testing.assert_array_equal(np.maximum(ca, cb), np.maximum(a, b))
        one_a, one_b = problem.crossover(a[0], b[0], rng)
        assert one_a.shape == one_b.shape == a[0].shape
        np.testing.assert_array_equal(np.minimum(one_a, one_b), np.minimum(a[0], b[0]))
        mutated = problem.mutate(ca, rng)
        assert ((mutated >= 0) & (mutated < space.gene_bounds())).all()


@pytest.fixture(scope="module")
def inner_engine_problem(static_evaluator, surrogate):
    backbone = attentivenas_model("a3")
    engine = InnerEngine(
        backbone, static_evaluator, surrogate.accuracy_fraction(backbone),
        nsga=Nsga2Config(population=6, generations=2), seed=0,
    )
    return engine.problem


class TestHadasSearch:
    def test_archives_populated(self, hadas_result):
        assert len(hadas_result.backbone_pareto()) >= 1
        assert len(hadas_result.dynn_pareto()) >= 1

    def test_evaluation_counts(self, hadas_result):
        static_evals, dynamic_evals = hadas_result.num_evaluations
        assert static_evals >= hadas_result.config.outer_population
        assert dynamic_evals > 0

    def test_inner_results_per_backbone(self, hadas_result):
        inner = hadas_result.outer.inner_results
        assert 1 <= len(inner)
        for key, result in inner.items():
            assert result.backbone_key == key

    def test_dynamic_archive_individuals_complete(self, hadas_result):
        for member in hadas_result.dynn_pareto():
            assert "config" in member.payload
            assert "static" in member.payload
            assert "evaluation" in member.payload
            # Combined genome: backbone genes + indicators + 2 DVFS genes.
            config = member.payload["config"]
            expected = (
                hadas_result.space.genome_length
                + (config.total_mbconv_layers - MIN_EXIT_POSITION)
                + 2
            )
            assert len(member.genome) == expected

    def test_top_models_distinct_backbones(self, hadas_result):
        models = hadas_result.top_models(3)
        keys = [m.payload["config"].key for m in models]
        distinct_available = len(
            {m.payload["config"].key for m in hadas_result.dynn_pareto()}
        )
        assert len(set(keys)) == min(3, max(distinct_available, 1))

    def test_top_models_by_d_score(self, hadas_result):
        models = hadas_result.top_models(2, by="d_score", distinct_backbones=False)
        scores = [m.payload["evaluation"].d_score for m in models]
        assert scores == sorted(scores, reverse=True)

    def test_top_models_invalid_ranking(self, hadas_result):
        with pytest.raises(ValueError):
            hadas_result.top_models(2, by="nonsense")

    def test_selected_model_on_archive(self, hadas_result):
        selected = hadas_result.selected_model()
        assert selected in hadas_result.dynn_pareto()

    def test_static_points_shape(self, hadas_result):
        points = hadas_result.outer.static_points()
        assert points.shape[1] == 2
        assert (points[:, 0] > 50).all()  # accuracy in percent
        assert (points[:, 1] > 0).all()  # energy in joules

    def test_dynamic_points_sources(self, hadas_result):
        inner_points = hadas_result.outer.dynamic_points(source="inner")
        archive_points = hadas_result.outer.dynamic_points(source="archive")
        assert inner_points.shape[1] == 2
        assert archive_points.shape[1] == 2
        with pytest.raises(ValueError):
            hadas_result.outer.dynamic_points(source="x")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HadasConfig(outer_population=0)
        with pytest.raises(ValueError):
            HadasConfig(gamma=-0.5)

    def test_paper_profile_budget(self):
        config = HadasConfig.paper_profile()
        assert config.outer_iterations == 450
        assert config.inner_iterations == 3500

    def test_make_inner_engine_shares_budget(self, hadas_result):
        search = HadasSearch(hadas_result.config)
        engine = search.make_inner_engine(attentivenas_model("a0"))
        assert engine.nsga_config.population == hadas_result.config.inner_population
        assert engine.nsga_config.generations == hadas_result.config.inner_generations

    def test_each_backbone_costed_once(self, monkeypatch):
        """Static evaluation, the surrogate and the IOE set-up share one
        cost profile per backbone: ``estimate_cost`` runs once per distinct
        backbone over a whole search, deployment hand-off included."""
        from repro.accuracy import surrogate as surrogate_module
        from repro.eval import static as static_module

        search = HadasSearch(HadasConfig(
            platform="tx2-gpu", seed=3,
            outer_population=6, outer_generations=3,
            inner_population=6, inner_generations=2,
            ioe_candidates=2, oracle_samples=256,
        ))
        costed: list[str] = []
        estimate = static_module.estimate_cost

        def counted(config):
            costed.append(config.key)
            return estimate(config)

        monkeypatch.setattr(static_module, "estimate_cost", counted)
        monkeypatch.setattr(surrogate_module, "estimate_cost", counted)
        search.run().deployed_design()
        assert costed
        assert len(costed) == len(set(costed))

    def test_determinism_same_seed(self):
        config = HadasConfig(
            platform="tx2-gpu", seed=5,
            outer_population=6, outer_generations=2,
            inner_population=6, inner_generations=2,
            ioe_candidates=2, oracle_samples=256,
        )
        first = HadasSearch(config).run()
        second = HadasSearch(config).run()
        a = first.selected_model().payload["evaluation"]
        b = second.selected_model().payload["evaluation"]
        assert a.d_score == b.d_score
        assert a.placement.positions == b.placement.positions
