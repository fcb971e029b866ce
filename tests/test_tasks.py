"""The task codec: slim specs, registry dispatch, spec ≡ direct evaluation.

The codec's load-bearing contract is the round trip: for every registered
kind, ``run_spec(task_spec(kind, ...))`` — the path a worker process takes,
rebuilding the evaluator stack from data — must be *value-identical* to
evaluating directly against live objects in the submitting process.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy.exit_model import ExitCapabilityModel
from repro.arch.space import BackboneSpace
from repro.engine.executors import ProcessExecutor, is_codec_call
from repro.engine.tasks import (
    TaskSpec,
    register_task,
    run_spec,
    spec_task,
    task_kinds,
    task_spec,
)
from repro.search.hadas import HadasConfig, HadasSearch

SPACE = BackboneSpace()


@st.composite
def space_genomes(draw):
    bounds = SPACE.gene_bounds()
    return tuple(draw(st.integers(0, int(b) - 1)) for b in bounds)


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = task_kinds()
        for kind in (
            "inner-run",
            "platform-experiment",
            "serving-cell",
            "fleet-cell",
            "table2-dvfs",
        ):
            assert kind in kinds

    def test_unknown_kind_rejected_at_build_and_run(self):
        with pytest.raises(KeyError, match="unknown task kind"):
            task_spec("warp-drive", x=1)
        with pytest.raises(KeyError, match="unknown task kind"):
            run_spec(TaskSpec(kind="warp-drive", params={}))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_task("table2-dvfs")(lambda: None)

    def test_fingerprint_stable_and_content_addressed(self):
        a = task_spec("table2-dvfs", platform="tx2-gpu")
        b = task_spec("table2-dvfs", platform="tx2-gpu")
        c = task_spec("table2-dvfs", platform="agx-gpu")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_spec_task_is_codec_detectable(self):
        task = spec_task(task_spec("table2-dvfs", platform="tx2-gpu"))
        assert is_codec_call((task.fn, task.args))
        assert not is_codec_call((len, ((),)))

    @settings(max_examples=15, deadline=None)
    @given(space_genomes())
    def test_specs_are_slim_pickles(self, genome):
        # The codec's raison d'être: a spec pickle is orders of magnitude
        # smaller than the evaluator graph a closure task would drag along.
        backbone = SPACE.decode(np.asarray(genome, dtype=np.int64))
        spec = task_spec(
            "inner-run",
            platform="tx2-gpu",
            num_classes=100,
            seed=0,
            cache_dir=None,
            backbone=backbone,
            gamma=1.0,
            population=50,
            generations=10,
            oracle_samples=4096,
            literal_ratios=False,
            capability_model=ExitCapabilityModel(),
        )
        assert len(pickle.dumps(spec)) < 2_000


class TestInnerRunRoundTrip:
    def test_spec_matches_direct_inner_run(self):
        config = HadasConfig(
            platform="tx2-gpu",
            seed=5,
            outer_population=6,
            outer_generations=2,
            inner_population=6,
            inner_generations=2,
            ioe_candidates=2,
            oracle_samples=256,
        )
        search = HadasSearch(config)
        backbone = search.space.sample(np.random.default_rng(3))
        direct = search.make_inner_engine(backbone).run()

        result = run_spec(
            task_spec(
                "inner-run",
                platform=config.platform,
                num_classes=config.num_classes,
                seed=config.seed,
                cache_dir=None,
                backbone=backbone,
                gamma=config.gamma,
                population=config.inner_population,
                generations=config.inner_generations,
                oracle_samples=config.oracle_samples,
                literal_ratios=config.literal_ratios,
                capability_model=ExitCapabilityModel(),
            )
        )
        assert result.backbone_key == direct.backbone_key
        assert result.num_evaluations == direct.num_evaluations
        assert len(result.pareto.items) == len(direct.pareto.items)
        for mine, theirs in zip(result.pareto.items, direct.pareto.items):
            np.testing.assert_array_equal(mine.genome, theirs.genome)
            np.testing.assert_array_equal(mine.objectives, theirs.objectives)

    def test_inner_task_lowers_to_spec_only_when_worth_it(self):
        config = HadasConfig(
            platform="tx2-gpu",
            seed=5,
            outer_population=6,
            outer_generations=2,
            inner_population=6,
            inner_generations=2,
            ioe_candidates=2,
            oracle_samples=256,
        )
        backbone = SPACE.sample(np.random.default_rng(3))
        serial = HadasSearch(config)
        assert serial._spec_context is not None
        assert serial.inner_task(backbone).fn is not run_spec  # serial: closure
        pooled = HadasSearch(
            HadasConfig(**{**config.__dict__, "workers": 2, "executor": "process"})
        )
        try:
            task = pooled.inner_task(backbone)
            assert task.fn is run_spec  # process boundary: slim spec
            assert len(pickle.dumps(task)) < 4_000
        finally:
            pooled.close()

    def test_custom_space_disables_spec_lowering(self):
        # An injected space whose fingerprint differs from the default one
        # is not reconstructible from (platform, num_classes, seed) alone,
        # so tasks must stay closures even across a process executor.
        custom = BackboneSpace(num_classes=10)
        search = HadasSearch(
            HadasConfig(workers=2, executor="process"), space=custom
        )
        try:
            assert search._spec_context is None
            backbone = custom.sample(np.random.default_rng(0))
            assert search.inner_task(backbone).fn is not run_spec
        finally:
            search.close()

    def test_equivalent_injected_space_keeps_spec_lowering(self):
        search = HadasSearch(
            HadasConfig(workers=2, executor="process"),
            space=BackboneSpace(num_classes=100),
        )
        try:
            assert search._spec_context is not None
        finally:
            search.close()


class TestServingCellRoundTrip:
    def test_spec_matches_direct_cell(self):
        from repro.serving.harness import ServingSpec, run_serving_cell, sweep

        spec = ServingSpec(pattern="poisson", duration_s=2.0, seed=3)
        direct = run_serving_cell(spec)
        assert run_spec(task_spec("serving-cell", spec=spec)) == direct
        # And through a real process pool (the bench_serving cell contract).
        via_pool = sweep([spec, spec], workers=2, executor="process")
        assert via_pool == [direct, direct]


class TestProcessTransport:
    def test_specs_evaluate_identically_across_the_process_boundary(self):
        specs = [
            task_spec("table2-dvfs", platform=p)
            for p in ("tx2-gpu", "agx-gpu", "carmel-cpu", "denver-cpu")
        ]
        inline = [run_spec(spec) for spec in specs]
        executor = ProcessExecutor(2)
        try:
            pooled = executor.run([(run_spec, (spec,)) for spec in specs])
        finally:
            executor.close()
        assert pooled == inline


class TestSpecKeyedCacheAddresses:
    """`spec_task(..., cache=...)`: the fingerprint as the default address."""

    def test_two_equal_specs_hit_the_same_entry(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.service import EvaluationService

        cache = ResultCache(tmp_path / "engine-cache")
        first_task = spec_task(task_spec("table2-dvfs", platform="tx2-gpu"), cache=cache)
        second_task = spec_task(task_spec("table2-dvfs", platform="tx2-gpu"), cache=cache)
        assert first_task.key == second_task.key
        assert first_task.key.namespace == "spec"
        with EvaluationService(cache=cache) as service:
            first = service.evaluate_batch([first_task])[0]
            second = service.evaluate_batch([second_task])[0]
        assert service.stats.executed == 1  # second batch was a pure cache read
        assert service.stats.cache_hits == 1
        assert first == second

    def test_distinct_specs_get_distinct_addresses(self, tmp_path):
        from repro.engine.cache import ResultCache

        cache = ResultCache(tmp_path / "engine-cache")
        tx2 = spec_task(task_spec("table2-dvfs", platform="tx2-gpu"), cache=cache)
        agx = spec_task(task_spec("table2-dvfs", platform="agx-gpu"), cache=cache)
        assert tx2.key != agx.key

    def test_explicit_domain_key_wins_over_fingerprint(self, tmp_path):
        from repro.engine.cache import ResultCache

        cache = ResultCache(tmp_path / "engine-cache")
        spec = task_spec("table2-dvfs", platform="tx2-gpu")
        domain_key = cache.key("custom", platform="tx2-gpu")
        assert spec_task(spec, key=domain_key, cache=cache).key is domain_key
        assert spec_task(spec).key is None  # no cache, no implicit key
