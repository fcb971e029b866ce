"""Lockstep inner runs: a group of IOE runs shares one population call per round.

Each member of a group keeps its own NSGA-II, RNG stream, evaluation table,
archive and fold; only evaluation is shared, one
``DynamicEvaluator.evaluate_generation`` call per round over the unseen
genomes of every member that has some.  Every member's result must
therefore pickle byte for byte like its solo run, whatever the group: its
size, its members' depths (genome widths and exit counts differ), members
that sit a round out, the same backbone twice, or the executor the
evaluation service runs the group on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.baselines.attentivenas import attentivenas_model
from repro.engine.service import EvalTask, EvaluationService
from repro.obs import trace
from repro.obs.trace import Recorder
from repro.search.hadas import HadasConfig, HadasSearch
from repro.search.ioe import InnerEngine
from repro.search.nsga2 import NSGA2, Nsga2Config

#: Five backbones of five depths: 17, 18, 19, 20 and 22 MBConv layers.
_BACKBONES = ("a0", "a5", "a2", "a3", "a6")


def _engine(static_evaluator, surrogate, name, seed=3, generations=4):
    backbone = attentivenas_model(name)
    return InnerEngine(
        backbone,
        static_evaluator,
        surrogate.accuracy_fraction(backbone),
        nsga=Nsga2Config(population=10, generations=generations),
        oracle_samples=512,
        seed=seed,
    )


def _traced(run):
    recorder = Recorder()
    trace.install(recorder)
    try:
        return run(), recorder.counters
    finally:
        trace.uninstall()


def _assert_solo_results(group_results, solo_results):
    assert len(group_results) == len(solo_results)
    for got, want in zip(group_results, solo_results):
        assert got.backbone_key == want.backbone_key
        assert pickle.dumps(got) == pickle.dumps(want)


class TestLockstepIdentity:
    def test_backbones_differ_in_depth(self):
        depths = [attentivenas_model(name).total_mbconv_layers for name in _BACKBONES]
        assert len(set(depths)) == len(depths)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_members_pickle_like_their_solo_runs(self, static_evaluator, surrogate, size):
        names = _BACKBONES[:size]
        solo = [_engine(static_evaluator, surrogate, name).run() for name in names]
        engines = [_engine(static_evaluator, surrogate, name) for name in names]
        group = engines[0].run(alongside=engines[1:])
        _assert_solo_results(group, solo)

    def test_one_generation_call_per_round(self, static_evaluator, surrogate):
        """Members with different budgets: the group makes one call per
        round, as many rounds as its longest member has evaluating
        generations, and evaluates exactly the rows the solo runs did."""
        budgets = {"a0": 2, "a3": 5, "a6": 3}
        solo_calls, solo_rows = [], 0
        for name, generations in budgets.items():
            result, counters = _traced(
                lambda: _engine(static_evaluator, surrogate, name, generations=generations).run()
            )
            solo_calls.append(counters["dyneval.generation_calls"])
            solo_rows += counters["dyneval.population_rows"]
            assert counters["dyneval.population_rows"] == result.num_evaluations
        engines = [
            _engine(static_evaluator, surrogate, name, generations=generations)
            for name, generations in budgets.items()
        ]
        _, counters = _traced(lambda: engines[0].run(alongside=engines[1:]))
        assert counters["dyneval.generation_calls"] == max(solo_calls)
        assert counters["dyneval.population_calls"] == max(solo_calls)
        assert counters["oracle.batch_calls"] == max(solo_calls)
        assert counters["dyneval.population_rows"] == solo_rows

    def test_member_without_fresh_genomes_sits_rounds_out(
        self, static_evaluator, surrogate, monkeypatch
    ):
        """One member's offspring repeat its parents, so none of its
        generations after the first has an unseen genome: it runs its whole
        remaining loop within one step while the others keep evaluating."""
        stuck = _engine(static_evaluator, surrogate, "a5")
        vary = NSGA2.vary

        def repeat_parents(self, genomes, rank, crowding):
            children = vary(self, genomes, rank, crowding)
            return genomes[: len(children)] if self.problem is stuck.problem else children

        monkeypatch.setattr(NSGA2, "vary", repeat_parents)
        solo, calls = _traced(stuck.run)
        assert calls["dyneval.generation_calls"] == 1  # generation 0 only
        solo = [solo]
        rounds = 0
        for name in ("a0", "a3"):
            result, calls = _traced(_engine(static_evaluator, surrogate, name).run)
            solo.append(result)
            rounds = max(rounds, calls["dyneval.generation_calls"])
        stuck = _engine(static_evaluator, surrogate, "a5")
        others = [_engine(static_evaluator, surrogate, name) for name in ("a0", "a3")]
        group, counters = _traced(lambda: stuck.run(alongside=others))
        _assert_solo_results(group, solo)
        assert counters["dyneval.generation_calls"] == rounds > 1

    def test_duplicate_backbone_in_one_group(self, static_evaluator, surrogate):
        solo = _engine(static_evaluator, surrogate, "a3").run()
        engines = [_engine(static_evaluator, surrogate, name) for name in ("a3", "a0", "a3")]
        first, _, again = engines[0].run(alongside=engines[1:])
        _assert_solo_results([first, again], [solo, solo])


def _tiny(**engine) -> HadasConfig:
    return HadasConfig(
        platform="tx2-gpu",
        seed=2,
        outer_population=6,
        outer_generations=2,
        inner_population=6,
        inner_generations=3,
        ioe_candidates=3,
        oracle_samples=256,
        **engine,
    )


class TestServiceGroups:
    def test_duplicates_and_hits_resolve_per_backbone(self, tmp_path):
        """Keyed inner tasks: a repeated backbone runs once, a cached one
        not at all, and the rest run as one group; the ledger counts
        inner runs, not groups."""
        search = HadasSearch(_tiny(executor="serial", cache_dir=str(tmp_path)))
        names = ("a0", "a3", "a0", "a6")
        tasks = [search.inner_task(attentivenas_model(name)) for name in names]
        search.service.evaluate_batch(tasks[3:])  # a6 is cached
        groups = []
        run_inners = search.run_inners

        def counting(calls):
            groups.append([backbone.key for backbone, _ in calls])
            return run_inners(calls)

        tasks = [
            EvalTask(task.fn, task.args, task.key, task.cls, counting) for task in tasks
        ]
        before = search.service.stats.as_dict()
        results = search.service.evaluate_batch(tasks)
        stats = search.service.stats.as_dict()
        search.close()
        assert groups == [[attentivenas_model("a0").key, attentivenas_model("a3").key]]
        assert stats["tasks"] - before["tasks"] == 4
        assert stats["submitted"] - before["submitted"] == 2
        assert stats["cache_hits"] - before["cache_hits"] == 1
        assert stats["deduplicated"] - before["deduplicated"] == 1
        solo = HadasSearch(_tiny(executor="serial"))
        for name, result in zip(names, results):
            assert pickle.dumps(result) == pickle.dumps(solo.run_inner(attentivenas_model(name)))

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_misses_split_into_at_most_workers_groups(self, executor):
        calls = []

        def runner(args_list):
            calls.append([args[0] for args in args_list])
            return [args[0] * 10 for args in args_list]

        with EvaluationService(executor=executor, workers=2) as service:
            results = service.evaluate_batch(
                [EvalTask(abs, (value,), group=runner) for value in range(5)]
                + [EvalTask(abs, (-7,))]
            )
            assert service.stats.submitted == service.stats.completed == 6
        assert results == [0, 10, 20, 30, 40, 7]
        expected = [[0, 1, 2, 3, 4]] if executor == "serial" else [[0, 2, 4], [1, 3]]
        assert sorted(calls) == sorted(expected)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pool_executors_return_the_serial_search(self, executor):
        serial = HadasSearch(_tiny(executor="serial")).run().outer.inner_results
        search = HadasSearch(_tiny(executor=executor, workers=2))
        try:
            pooled = search.run().outer.inner_results
        finally:
            search.close()
        assert list(pooled) == list(serial)
        for key, result in serial.items():
            assert pickle.dumps(pooled[key]) == pickle.dumps(result)
        assert np.array_equal(
            [result.num_evaluations for result in pooled.values()],
            [result.num_evaluations for result in serial.values()],
        )
