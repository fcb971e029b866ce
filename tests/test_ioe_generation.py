"""IOE generations as array blocks: pickling and the per-layer split.

An IOE generation is one :class:`~repro.eval.dynamic.DynamicGeneration`:
plain arrays whose :class:`~repro.eval.dynamic.DynamicEvaluation` rows are
built when first read.  Two contracts ride on that:

* an :class:`~repro.search.ioe.InnerResult` pickles (the persistent result
  cache and process shards do this) with unbuilt rows, and reads back with
  the same front, best member and explored points — without dragging the
  evaluator, the exit oracle or the cost bank into the pickle;
* the benchmark's traced pass (``perfbench/layers.py``, loaded unchanged)
  still finds every search layer on the hot path, with row counts that add
  up to the searches' evaluation counts.
"""

from __future__ import annotations

import importlib.util
import io
import pickle
from pathlib import Path

import numpy as np

from repro.baselines.attentivenas import attentivenas_model
from repro.obs import trace
from repro.obs.trace import Recorder
from repro.search.hadas import HadasConfig, HadasSearch
from repro.search.ioe import InnerEngine
from repro.search.nsga2 import Nsga2Config

_FORBIDDEN = {"DynamicEvaluator", "BackboneExitOracle", "CostTableBank"}


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


class TestInnerResultPickle:
    def test_round_trip_keeps_front_best_and_explored(self, static_evaluator, surrogate):
        backbone = attentivenas_model("a0")
        engine = InnerEngine(
            backbone,
            static_evaluator,
            surrogate.accuracy_fraction(backbone),
            nsga=Nsga2Config(population=10, generations=4),
            seed=5,
        )
        result = engine.run()
        # Pickled before anything reads a row: every row travels unbuilt.
        assert all("_source" in ind.payload["evaluation"].__dict__ for ind in result.explored)
        loaded, classes = _round_trip(result)
        assert not {name for _, name in classes} & _FORBIDDEN, sorted(classes)

        assert np.array_equal(loaded.pareto.objectives(), result.pareto.objectives())
        assert [ind.key() for ind in loaded.pareto] == [ind.key() for ind in result.pareto]
        assert loaded.best.key() == result.best.key()
        _assert_same_evaluation(
            loaded.best.payload["evaluation"], result.best.payload["evaluation"]
        )
        for accuracy in ("mean_n_i", "dynamic"):
            assert np.array_equal(
                loaded.points_2d(explored=True, accuracy=accuracy),
                result.points_2d(explored=True, accuracy=accuracy),
            )

        # Built rows pickle too, and a second trip changes nothing.
        again, classes = _round_trip(loaded)
        assert not {name for _, name in classes} & _FORBIDDEN
        assert np.array_equal(
            again.points_2d(explored=True), result.points_2d(explored=True)
        )
        _assert_same_evaluation(
            again.best.payload["evaluation"], result.best.payload["evaluation"]
        )


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
