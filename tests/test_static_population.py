"""The static evaluator's population path against its per-backbone spec.

``StaticEvaluator.evaluate_population`` costs, measures and scores a batch
of backbones with one array pass per stage; every S(b) must equal
:mod:`spec.static`'s one-backbone-at-a-time value with ``==``, whatever the
batch holds (duplicates, memoised rows, rows a warm persistent cache
serves).  numpy's row reductions carry that identity, so the CI job on the
oldest supported numpy runs this file too.
"""

from __future__ import annotations

import pickle
import tempfile
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy.surrogate import AccuracySurrogate
from repro.arch.cost import LayerTable, estimate_cost
from repro.arch.space import BackboneSpace
from repro.engine.cache import ResultCache
from repro.eval.static import StaticEvaluator
from repro.hardware.measurement import HardwareInTheLoop
from repro.hardware.platform import get_platform
from repro.obs import trace
from repro.search.hadas import HadasConfig, HadasSearch
from repro.search.ooe import _BackboneProblem
from spec import static as spec

PLATFORMS = ("tx2-gpu", "agx-gpu", "carmel-cpu", "denver-cpu")
SPACES = {num_classes: BackboneSpace(num_classes=num_classes) for num_classes in (10, 100)}
SURROGATES = {n: AccuracySurrogate(space, seed=2) for n, space in SPACES.items()}


@st.composite
def genomes(draw, min_size=1, max_size=8):
    bounds = SPACES[100].gene_bounds()
    genome = st.tuples(*(st.integers(0, int(b) - 1) for b in bounds))
    return draw(st.lists(genome, min_size=min_size, max_size=max_size))


def _evaluator(platform: str, num_classes: int, noise_cv: float, cache=None) -> StaticEvaluator:
    hardware = get_platform(platform)
    return StaticEvaluator(
        hardware,
        SURROGATES[num_classes],
        hwil=HardwareInTheLoop(hardware, noise_cv=noise_cv, seed=4),
        seed=4,
        cache=cache,
    )


class TestPopulationMatchesSpec:
    @settings(max_examples=40, deadline=None)
    @given(
        genomes(max_size=10),
        st.sampled_from(PLATFORMS),
        st.sampled_from(sorted(SPACES)),
        st.sampled_from((0.0, 0.02)),
        st.data(),
    )
    def test_every_row_equals_the_per_backbone_spec(
        self, batch, platform, num_classes, noise_cv, data
    ):
        space = SPACES[num_classes]
        configs = [space.decode(np.asarray(genome)) for genome in batch]
        # Duplicates within the batch, rows memoised by an earlier call and
        # rows a warm persistent cache serves all ride along.
        configs += data.draw(st.lists(st.sampled_from(configs), max_size=3))
        memoised = data.draw(st.lists(st.sampled_from(configs), max_size=3))
        warm = data.draw(st.lists(st.sampled_from(configs), max_size=3))
        with tempfile.TemporaryDirectory() as directory:
            cache = ResultCache(directory)
            _evaluator(platform, num_classes, noise_cv, cache).evaluate_population(warm)
            evaluator = _evaluator(platform, num_classes, noise_cv, cache)
            evaluator.evaluate_population(memoised)
            result = evaluator.evaluate_population(configs)
        reference = _evaluator(platform, num_classes, noise_cv)
        assert result == [spec.static_evaluation(reference, config) for config in configs]
        assert [evaluator.evaluate(config) for config in configs] == result

    def test_one_row_entry_points_equal_the_spec(self, space):
        evaluator = _evaluator("tx2-gpu", 100, 0.02)
        config = space.sample(np.random.default_rng(8))
        layers = spec.layer_costs(config)
        cost = estimate_cost(config)
        setting = evaluator.default_setting
        model = evaluator.hwil.model
        assert model.network_report(cost, setting) == spec.composite_report(model, layers, setting)
        assert evaluator.hwil.measure(cost, setting) == spec.measure(
            HardwareInTheLoop(evaluator.platform, seed=4), config.describe(), layers, setting
        )
        assert evaluator.surrogate.accuracy(config, cost) == spec.accuracy(
            evaluator.surrogate, config
        )


class TestPopulationAccounting:
    def _configs(self, count, seed=0):
        rng = np.random.default_rng(seed)
        return [SPACES[100].sample(rng) for _ in range(count)]

    def test_duplicates_and_cache_hits_count_once(self, tmp_path):
        a, b, c, d = self._configs(4)
        cache = ResultCache(tmp_path)
        _evaluator("tx2-gpu", 100, 0.02, cache).evaluate_population([c])
        evaluator = _evaluator("tx2-gpu", 100, 0.02, cache)
        evaluator.evaluate(a)
        puts = cache.stats("static").puts
        with trace.recording(trace.Recorder()) as recorder:
            result = evaluator.evaluate_population([a, b, b, c, d, a])
            evaluator.evaluate_population([a, b, c])  # every row memoised
        assert result[1] is result[2] and result[0] is result[5]
        # a was memoised; c came from the cache; b and d were measured once.
        assert evaluator.num_measurements == 3
        assert evaluator.num_evaluations == 4
        stats = cache.stats("static")
        assert (stats.hits, stats.puts - puts) == (1, 2)
        assert recorder.counters["static.population_calls"] == 1
        assert recorder.counters["static.population_rows"] == 3
        assert [event["name"] for event in recorder.events] == ["static.population"]

    def test_costs_are_built_only_when_asked(self):
        evaluator = _evaluator("tx2-gpu", 100, 0.02)
        configs = self._configs(5, seed=1)
        evaluator.evaluate_population(configs)
        assert evaluator._cost_cache == {}
        assert evaluator.cost(configs[0]) is evaluator.cost(configs[0])

    def test_measurement_lut_counts_queries_and_hits(self):
        configs = self._configs(3, seed=2)
        hwil = HardwareInTheLoop(get_platform("agx-gpu"), seed=1)
        setting = StaticEvaluator(get_platform("agx-gpu"), SURROGATES[100]).default_setting
        keys = [configs[0].key, configs[1].key, configs[0].key]
        table = LayerTable.of_configs([configs[i] for i in (0, 1, 0)])
        first = hwil.measure_population(keys, table, setting)
        assert first[0] is first[2]
        assert (hwil.query_count, hwil.cache_hits, hwil.cache_size) == (3, 1, 2)
        again = hwil.measure(estimate_cost(configs[1]), setting)
        assert again is first[1]
        assert (hwil.query_count, hwil.cache_hits) == (4, 2)


class TestCostWalk:
    @settings(max_examples=60, deadline=None)
    @given(genomes(max_size=1), st.sampled_from(sorted(SPACES)), st.booleans())
    def test_estimate_cost_equals_the_layer_spec_walk(self, batch, num_classes, include_se):
        config = SPACES[num_classes].decode(np.asarray(batch[0]))
        expected = spec.layer_costs(config, include_se=include_se)
        cost = estimate_cost(config, include_se=include_se)
        assert cost.config_key == config.key
        assert [astuple(layer) for layer in cost.layers] == [astuple(layer) for layer in expected]

    @settings(max_examples=30, deadline=None)
    @given(genomes(max_size=6))
    def test_layer_table_rows_are_the_layer_lists(self, batch):
        configs = [SPACES[100].decode(np.asarray(genome)) for genome in batch]
        table = LayerTable.of_configs(configs)
        for row, config in enumerate(configs):
            layers = spec.layer_costs(config)
            width = len(layers)
            assert table.lengths[row] == width
            assert table.macs[row, :width].tolist() == [layer.macs for layer in layers]
            assert table.traffic[row, :width].tolist() == [layer.traffic_bytes for layer in layers]
            assert not table.macs[row, width:].any() and not table.traffic[row, width:].any()
            assert table.total_macs[row] == sum(layer.macs for layer in layers)
        stacked = LayerTable.of_layers([spec.layer_costs(config) for config in configs])
        for mine, theirs in zip(astuple(stacked), astuple(table)):
            np.testing.assert_array_equal(mine, theirs)


class TestBackboneKey:
    def test_key_is_rendered_once_and_left_out_of_pickles(self, space):
        config = space.sample(np.random.default_rng(4))
        older = pickle.dumps(config)  # what an entry written before key caching holds
        assert config.key is config.key
        assert config.key == config.describe()
        assert pickle.dumps(config) == older
        restored = pickle.loads(older)
        assert "key" not in vars(restored)
        assert restored.key == config.key
        assert restored == config and hash(restored) == hash(config)


class TestSearchBatches:
    def test_one_population_call_per_ooe_batch(self, monkeypatch):
        batches = []
        evaluate_batch = _BackboneProblem.evaluate_batch

        def counted(problem, genomes):
            batches.append(len(genomes))
            return evaluate_batch(problem, genomes)

        monkeypatch.setattr(_BackboneProblem, "evaluate_batch", counted)
        search = HadasSearch(
            HadasConfig(
                platform="tx2-gpu", seed=3,
                outer_population=6, outer_generations=3,
                inner_population=6, inner_generations=2,
                ioe_candidates=2, oracle_samples=256,
            )
        )
        with trace.recording(trace.Recorder()) as recorder:
            result = search.run()
        assert recorder.counters["static.population_calls"] == len(batches) >= 2
        assert recorder.counters["static.population_rows"] == sum(batches)
        assert sum(batches) == result.outer.num_static_evaluations
        # Static batches run inline: the service sees only inner runs.
        assert search.service.stats.tasks == len(result.outer.inner_results)


@pytest.mark.parametrize("platform", PLATFORMS)
def test_problem_objectives_are_the_static_vectors(platform):
    space = SPACES[100]
    evaluator = _evaluator(platform, 100, 0.02)
    problem = _BackboneProblem(space, evaluator)
    rng = np.random.default_rng(6)
    genomes = np.stack([space.sample_genome(rng) for _ in range(5)])
    objectives, payloads = problem.evaluate_batch(genomes)
    assert objectives.shape == (5, 3)
    reference = _evaluator(platform, 100, 0.02)
    for row, genome in enumerate(genomes):
        config = space.decode(genome)
        assert payloads[row]["config"] == config
        assert payloads[row]["static"] == spec.static_evaluation(reference, config)
        assert objectives[row].tolist() == list(payloads[row]["static"].objectives())
