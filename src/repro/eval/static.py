"""Static backbone evaluation: the S(b) fitness vector of paper eq. 3.

Accuracy comes from the calibrated surrogate; latency and energy come from
the simulated hardware-in-the-loop measurement at the platform's *default*
DVFS setting — the paper explicitly leaves DVFS exploration to the IOE.
Evaluations are cached by backbone key in memory and, when a persistent
:class:`~repro.engine.cache.ResultCache` is attached, on disk under a
content address of (backbone key, platform, seed, measurement parameters,
evaluator version) — so repeated backbones across generations, restarts and
experiment-runner memoisation are never re-measured (the paper's supernet
makes backbone evaluation cheap; measurement is the bottleneck their
LUT/caching amortises).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.accuracy.surrogate import AccuracySurrogate
from repro.arch.config import BackboneConfig
from repro.arch.cost import LayerTable, NetworkCost, estimate_cost
from repro.engine.cache import ResultCache
from repro.hardware.dvfs import DvfsSetting, DvfsSpace
from repro.hardware.measurement import HardwareInTheLoop
from repro.hardware.platform import HardwarePlatform
from repro.obs import trace

#: Bump when the static evaluation semantics change; orphans persisted entries.
STATIC_EVALUATOR_VERSION = "1"


@dataclass(frozen=True)
class StaticEvaluation:
    """S(b): static accuracy / latency / energy of a standalone backbone."""

    accuracy: float  # percent
    latency_s: float
    energy_j: float

    def objectives(self) -> tuple[float, float, float]:
        """Maximisation vector (accuracy, -latency, -energy) for NSGA-II."""
        return (self.accuracy, -self.latency_s, -self.energy_j)


class StaticEvaluator:
    """Evaluates S(b) for backbones on one platform, with caching.

    Parameters
    ----------
    platform, surrogate, hwil, seed:
        The device model, accuracy surrogate and (optional) measurement
        harness; ``seed`` keys the harness noise streams.
    cache:
        Optional persistent result cache shared with the rest of the engine;
        hits skip both the surrogate and the HW-in-the-loop measurement.
    """

    def __init__(
        self,
        platform: HardwarePlatform,
        surrogate: AccuracySurrogate,
        hwil: HardwareInTheLoop | None = None,
        seed: int = 0,
        cache: ResultCache | None = None,
    ):
        self.platform = platform
        self.surrogate = surrogate
        self.hwil = hwil or HardwareInTheLoop(platform, seed=seed)
        self.dvfs_space = DvfsSpace(platform)
        self.default_setting: DvfsSetting = self.dvfs_space.default_setting()
        self.result_cache = cache
        self._cache: dict[str, StaticEvaluation] = {}
        self._cost_cache: dict[str, NetworkCost] = {}
        self._lock = threading.Lock()
        self.num_measurements = 0  # fresh measurements performed by *this* process

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def cost(self, config: BackboneConfig) -> NetworkCost:
        """Cost profile of a backbone (cached)."""
        if config.key not in self._cost_cache:
            self._cost_cache[config.key] = estimate_cost(config)
        return self._cost_cache[config.key]

    @cached_property
    def _space_fingerprint(self) -> str:
        """The surrogate space's fingerprint, rendered once: the space is
        fixed for the evaluator's lifetime, and every static key folds it in."""
        return self.surrogate.space.fingerprint()

    def _cache_key(self, config: BackboneConfig):
        return self.result_cache.key(
            "static",
            evaluator_version=STATIC_EVALUATOR_VERSION,
            backbone=config.key,
            # config.key does not encode the classifier width, but the head's
            # cost (and thus latency/energy) depends on it.
            num_classes=config.num_classes,
            platform=self.platform.name,
            seed=self.hwil.seed,
            # Surrogate accuracy is calibrated against the space's bounds
            # and anchors, so both are result-determining inputs.
            space=self._space_fingerprint,
            anchors=self.surrogate.anchors,
            surrogate_seed=self.surrogate.seed,
            noise_cv=self.hwil.noise_cv,
            repeats=self.hwil.repeats,
            # Warm-up draws consume the measurement noise stream before the
            # timed draws, so the means depend on it.
            warmup=self.hwil.warmup,
        )

    def evaluate(self, config: BackboneConfig) -> StaticEvaluation:
        """S(b) at default hardware settings (cached per backbone)."""
        return self.evaluate_population([config])[0]

    def evaluate_population(self, configs: Sequence[BackboneConfig]) -> list[StaticEvaluation]:
        """S(b) of every config, in order, at default hardware settings.

        Memoised backbones return before any array work.  The others are
        looked up in the persistent cache once per distinct key, and the
        rest are costed, measured and scored together: one
        :class:`~repro.arch.cost.LayerTable`, one stacked latency/energy
        report and one feature matrix for the whole batch, with each row's
        noise drawn from its own stream, so every S(b) equals the backbone's
        one-at-a-time value.  Calls that reach past the memo record a
        ``static.population`` span and count ``static.population_calls``
        and ``static.population_rows`` (distinct backbones past the memo).
        """
        memo = self._cache
        pending: dict[str, BackboneConfig] = {}
        for config in configs:
            if config.key not in memo:
                pending.setdefault(config.key, config)
        if pending:
            with trace.span("static.population", rows=len(pending)):
                trace.count("static.population_calls")
                trace.count("static.population_rows", len(pending))
                self._resolve(list(pending.values()))
        return [memo[config.key] for config in configs]

    def _resolve(self, configs: list[BackboneConfig]) -> None:
        """Memoise S(b) of distinct, unmemoised configs."""
        todo = []
        for config in configs:
            key = self._cache_key(config) if self.result_cache is not None else None
            cached = None if key is None else self.result_cache.get(key, cls=StaticEvaluation)
            if cached is None:
                todo.append((config, key))
            else:
                self._cache[config.key] = cached
        if not todo:
            return
        fresh = [config for config, _ in todo]
        table = LayerTable.of_configs(fresh)
        measurements = self.hwil.measure_population(
            [config.key for config in fresh], table, self.default_setting
        )
        accuracies = self.surrogate.accuracy_population(fresh, table.total_macs.tolist())
        # Thread executors may race two workers onto the same fresh backbone;
        # both compute identical values, so insertion just needs to count once.
        with self._lock:
            for (config, key), measurement, accuracy in zip(todo, measurements, accuracies.tolist()):
                if config.key in self._cache:
                    continue
                evaluation = StaticEvaluation(
                    accuracy=accuracy,
                    latency_s=measurement.latency_s_mean,
                    energy_j=measurement.energy_j_mean,
                )
                self._cache[config.key] = evaluation
                self.num_measurements += 1
                if key is not None:
                    self.result_cache.put(key, evaluation)

    @property
    def num_evaluations(self) -> int:
        """Distinct backbones evaluated so far (including cache hits)."""
        return len(self._cache)
