"""IOE generations as array blocks, folded into compact results.

An IOE generation is one :class:`~repro.eval.dynamic.DynamicGeneration`:
plain arrays that build a :class:`~repro.eval.dynamic.DynamicEvaluation`
row when it is asked for.  At the end of a run the engine folds its table
of generations into an :class:`~repro.search.ioe.InnerResult`, and three
contracts ride on that:

* the result pickles (the persistent result cache and process shards do
  this) with none of the run's blocks, tables, stacked statistics or path
  costs, let alone the evaluator, the exit oracle or the cost bank, and
  reads back with the same front, best member and explored points;
* the explored points equal, bit for bit, the points built row by row from
  the run's evaluations, and the Pareto members own their arrays and
  carry no cached views;
* the benchmark's traced pass (``perfbench/layers.py``, loaded unchanged)
  still finds every search layer on the hot path, with row counts that add
  up to the searches' evaluation counts.
"""

from __future__ import annotations

import importlib.util
import io
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines.attentivenas import attentivenas_model
from repro.eval.static import StaticEvaluator
from repro.hardware.platform import get_platform
from repro.obs import trace
from repro.obs.trace import Recorder
from repro.search.hadas import HadasConfig, HadasSearch
from repro.search.ioe import InnerEngine
from repro.search.nsga2 import Nsga2Config
from spec.search import inner_explored_points

_FORBIDDEN = {
    "DynamicEvaluator",
    "BackboneExitOracle",
    "CostTableBank",
    "DynamicGeneration",
    "EvaluationTable",
    "PopulationExitStats",
    "PopulationPathCosts",
}


class _RecordingUnpickler(pickle.Unpickler):
    """Notes every class the pickle asks for."""

    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data))
        self.classes: set[tuple[str, str]] = set()

    def find_class(self, module, name):
        self.classes.add((module, name))
        return super().find_class(module, name)


def _round_trip(obj):
    unpickler = _RecordingUnpickler(pickle.dumps(obj))
    return unpickler.load(), unpickler.classes


def _assert_same_evaluation(got, want):
    assert got.placement == want.placement
    assert got.setting == want.setting
    for name in ("exit_energy_j", "exit_latency_s", "scores"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    for name in ("n_i", "usage", "dissimilarity"):
        assert np.array_equal(getattr(got.exit_stats, name), getattr(want.exit_stats, name))
    for name in (
        "dynamic_energy_j",
        "dynamic_latency_s",
        "energy_gain",
        "latency_gain",
        "d_score",
        "mean_n_i",
        "dynamic_accuracy",
    ):
        assert getattr(got, name) == getattr(want, name)


def _small_run(static_evaluator, surrogate, seed=5, name="a0"):
    backbone = attentivenas_model(name)
    return InnerEngine(
        backbone,
        static_evaluator,
        surrogate.accuracy_fraction(backbone),
        nsga=Nsga2Config(population=10, generations=4),
        seed=seed,
    )


class TestInnerResultPickle:
    def test_round_trip_keeps_front_best_and_explored(self, static_evaluator, surrogate):
        result = _small_run(static_evaluator, surrogate).run()
        # The fold built every member: none points back into a block.
        assert not any("_source" in ind.payload["evaluation"].__dict__ for ind in result.pareto)
        loaded, classes = _round_trip(result)
        assert not {name for _, name in classes} & _FORBIDDEN, sorted(classes)

        assert np.array_equal(loaded.pareto.objectives(), result.pareto.objectives())
        assert [ind.key() for ind in loaded.pareto] == [ind.key() for ind in result.pareto]
        assert loaded.best.key() == result.best.key()
        _assert_same_evaluation(
            loaded.best.payload["evaluation"], result.best.payload["evaluation"]
        )
        for accuracy in ("mean_n_i", "dynamic"):
            for explored in (False, True):
                assert (
                    loaded.points_2d(explored, accuracy).tobytes()
                    == result.points_2d(explored, accuracy).tobytes()
                )

        # Read results pickle too, and a second trip changes nothing.
        again, classes = _round_trip(loaded)
        assert not {name for _, name in classes} & _FORBIDDEN
        assert np.array_equal(
            again.points_2d(explored=True), result.points_2d(explored=True)
        )
        _assert_same_evaluation(
            again.best.payload["evaluation"], result.best.payload["evaluation"]
        )

    def test_pickle_stays_compact(self, static_evaluator, surrogate):
        """One fixed small run pickles within its measured size + 25 %;
        a result that kept its generation blocks took ~29 KB here."""
        result = _small_run(static_evaluator, surrogate).run()
        assert len(pickle.dumps(result)) <= 11_000


@pytest.fixture(scope="module")
def platform_evaluators(static_evaluator, surrogate):
    return {
        "tx2-gpu": static_evaluator,
        "carmel-cpu": StaticEvaluator(get_platform("carmel-cpu"), surrogate, seed=0),
    }


class TestCompactInnerResult:
    @pytest.mark.parametrize("platform", ["tx2-gpu", "carmel-cpu"])
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_explored_points_match_row_by_row(
        self, platform_evaluators, surrogate, platform, seed
    ):
        engine = _small_run(platform_evaluators[platform], surrogate, seed=seed, name="a2")
        result = engine.run()
        assert len(result.history) == 10 * 4
        for accuracy in ("mean_n_i", "dynamic"):
            want = inner_explored_points(engine, accuracy)
            got = result.points_2d(explored=True, accuracy=accuracy)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), accuracy

    def test_members_own_their_memory(self, static_evaluator, surrogate):
        result = _small_run(static_evaluator, surrogate).run()
        assert len(result.pareto) > 1
        for member in result.pareto:
            evaluation = member.payload["evaluation"]
            stats = evaluation.exit_stats
            arrays = [member.genome, member.objectives, stats.n_i, stats.usage]
            arrays += [evaluation.exit_energy_j, evaluation.exit_latency_s, evaluation.scores]
            assert all(array.base is None for array in arrays)
            assert member.genome.dtype == np.int64
        assert result.genomes.dtype == np.int8
        assert [ind.genome.dtype for ind in result.explored[:1]] == [np.int64]

    def test_member_exit_stats_hold_only_their_fields(self, static_evaluator, surrogate):
        """No member caches ``usage_split`` or ``dissimilarity``: either
        would put a view array in its ``__dict__`` and in every pickle."""
        result = _small_run(static_evaluator, surrogate).run()
        fields = ["n_i", "final_accuracy", "dynamic_accuracy", "usage"]
        for member in result.pareto:
            assert list(member.payload["evaluation"].exit_stats.__dict__) == fields

    def test_inner_run_leaves_numpy_ma_unloaded(self):
        probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
        if subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout.strip() == "True":
            pytest.skip("this numpy loads numpy.ma on import")
        code = (
            "import sys\n"
            "from repro.accuracy.surrogate import AccuracySurrogate\n"
            "from repro.arch.space import BackboneSpace\n"
            "from repro.baselines.attentivenas import attentivenas_model\n"
            "from repro.eval.static import StaticEvaluator\n"
            "from repro.hardware.platform import get_platform\n"
            "from repro.search.ioe import InnerEngine\n"
            "from repro.search.nsga2 import Nsga2Config\n"
            "surrogate = AccuracySurrogate(BackboneSpace(), seed=0)\n"
            "static = StaticEvaluator(get_platform('tx2-gpu'), surrogate, seed=0)\n"
            "backbone = attentivenas_model('a0')\n"
            "InnerEngine(backbone, static, surrogate.accuracy_fraction(backbone),\n"
            "            nsga=Nsga2Config(population=6, generations=2)).run()\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def _layer_clock():
    """perfbench's ``LayerClock``, loaded from its file as it ships."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LayerClock()


class TestLayerSplit:
    def test_layer_clock_sees_every_search_layer(self):
        config = HadasConfig(
            platform="tx2-gpu",
            seed=2,
            outer_population=6,
            outer_generations=2,
            inner_population=8,
            inner_generations=3,
            ioe_candidates=2,
            oracle_samples=256,
            workers=1,
            executor="serial",
        )
        clock = _layer_clock()
        recorder = Recorder()
        clock.install()
        trace.install(recorder)
        try:
            search = HadasSearch(config)
            try:
                result = search.run()
            finally:
                search.close()
        finally:
            trace.uninstall()
            clock.uninstall()

        calls, rows, busy = clock.calls, clock.rows, clock.busy
        for counter in (
            "generation_calls",
            "population_calls",
            "oracle_batch_calls",
            "kernel_calls",
            "static_calls",
        ):
            assert calls[counter] > 0, counter
        for layer in (
            "eval.dynamic",
            "accuracy.exit_model",
            "hardware.population_kernel",
            "eval.static",
        ):
            assert busy[layer] > 0, layer

        static, dynamic = result.num_evaluations
        counters = recorder.counters
        assert rows["population_calls"] == rows["oracle_batch_calls"] == dynamic > 0
        # nsga.evaluations counts both engines' fresh genomes.
        assert counters["nsga.evaluations"] == static + dynamic
        assert counters["dyneval.population_calls"] == calls["population_calls"]
        assert counters["dyneval.population_rows"] == rows["population_calls"]
        assert counters["oracle.batch_calls"] == calls["oracle_batch_calls"]
        assert counters["oracle.batch_rows"] == rows["oracle_batch_calls"]
