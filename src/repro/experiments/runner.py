"""Shared experiment machinery: one full platform run, memoised and sharded.

Several artifacts (Figs. 1, 5, 6, Table III) consume the same underlying
computation — a HADAS search on a platform plus the optimized baselines with
a matched IOE budget.  :func:`run_platform_experiment` performs it once and
memoises per (platform, profile, seed, gamma); :func:`run_platform_experiments`
submits *all* requested platforms as one codec-backed batch through a shared
:class:`~repro.engine.service.EvaluationService`, so a multi-worker profile
runs the paper's four-platform sweep concurrently (one process shard per
platform) instead of serially.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.baselines.attentivenas import ATTENTIVENAS_MODELS, attentivenas_models
from repro.engine.cache import ResultCache
from repro.engine.service import EvaluationService
from repro.engine.tasks import spec_task, task_spec
from repro.eval.static import StaticEvaluation
from repro.experiments.config import Profile
from repro.metrics.dominance_ratio import DominanceReport, dominance_report
from repro.metrics.hypervolume import hypervolume
from repro.metrics.pareto import pareto_front
from repro.search.hadas import HadasResult, HadasSearch
from repro.search.ioe import InnerResult


@dataclass
class PlatformExperiment:
    """One platform's full co-optimisation study, as data.

    It holds results only, never the live search that produced them, so a
    ``platform-experiment`` shard pickles without an evaluator graph.
    """

    platform: str
    profile: Profile
    hadas: HadasResult
    baseline_static: dict[str, StaticEvaluation]
    baseline_inner: dict[str, InnerResult] = field(default_factory=dict)

    # ------------------------------------------------------------ fig5 data
    def hadas_dynamic_points(self, pareto_only: bool = True) -> np.ndarray:
        """(energy gain, mean N_i) of HADAS's pooled IOE fronts."""
        points = self.hadas.outer.dynamic_points(source="inner")
        return pareto_front(points) if pareto_only and len(points) else points

    def baseline_dynamic_points(self, pareto_only: bool = True) -> np.ndarray:
        """(energy gain, mean N_i) of the optimized baselines."""
        chunks = [
            inner.points_2d(explored=False if pareto_only else True)
            for inner in self.baseline_inner.values()
        ]
        points = np.concatenate([c for c in chunks if len(c)], axis=0)
        return pareto_front(points) if pareto_only else points

    # --------------------------------------------------------------- fig6
    def dominance(self) -> DominanceReport:
        """RoD of HADAS's dynamic front vs the optimized baselines'."""
        return dominance_report(
            self.hadas_dynamic_points(), self.baseline_dynamic_points()
        )

    def hypervolumes(self) -> tuple[float, float]:
        """(HADAS, baselines) hypervolume over (energy gain, mean N_i).

        Both sets are normalised into the unit box spanned by their joint
        bounds (reference at the origin), so a single outlier cannot distort
        the comparison and volumes are comparable across platforms.
        """
        ours = self.hadas_dynamic_points()
        theirs = self.baseline_dynamic_points()
        both = np.concatenate([ours, theirs], axis=0)
        lo = both.min(axis=0)
        span = np.maximum(both.max(axis=0) - lo, 1e-9)
        reference = np.zeros(2) - 1e-9
        return (
            hypervolume((ours - lo) / span, reference),
            hypervolume((theirs - lo) / span, reference),
        )


_MEMO: dict[tuple, PlatformExperiment] = {}


def _memo_key(platform: str, profile: Profile, gamma: float, baselines: tuple) -> tuple:
    # Engine knobs (workers/executor/cache_dir) never change results, so
    # they are not part of the memo identity.
    return (platform, profile.name, profile.seed, gamma, tuple(baselines))


def compute_platform_experiment(
    platform: str,
    profile: Profile,
    gamma: float = 1.0,
    baselines: tuple[str, ...] = ATTENTIVENAS_MODELS,
) -> PlatformExperiment:
    """One platform's full study, uncached: the ``platform-experiment`` task.

    Pure function of ``(platform, profile, gamma, baselines)`` — the body
    both the memoising wrapper and the process shards execute.  Baseline IOE
    runs are independent of each other: one batch through the search's
    service runs them concurrently (and cached) like any other.
    """
    search = HadasSearch(profile.hadas_config(platform, gamma=gamma))
    try:
        hadas = search.run()

        models = {name: attentivenas_models()[name] for name in baselines}
        baseline_static = {
            name: search.static_evaluator.evaluate(config)
            for name, config in models.items()
        }
        baseline_inner = dict(
            zip(
                models.keys(),
                search.service.evaluate_batch(
                    [search.inner_task(config) for config in models.values()]
                ),
            )
        )
    except BaseException:
        # Error/interrupt path: cancel queued work so no pool workers leak.
        search.close(cancel=True)
        raise
    search.close()
    return PlatformExperiment(
        platform=platform,
        profile=profile,
        hadas=hadas,
        baseline_static=baseline_static,
        baseline_inner=baseline_inner,
    )


def run_platform_experiment(
    platform: str,
    profile: Profile | None = None,
    gamma: float = 1.0,
    baselines: tuple[str, ...] = ATTENTIVENAS_MODELS,
    workers: int | None = None,
    cache_dir: str | None = None,
) -> PlatformExperiment:
    """Run (or fetch memoised) HADAS + optimized baselines on a platform.

    ``workers``/``cache_dir`` override the profile's evaluation-engine knobs
    (parallel inner runs / persistent result cache); neither changes any
    result, so they are not part of the memo identity.  Baseline inner runs
    route through :meth:`HadasSearch.inner_task`, sharing the persistent
    cache with the search itself.
    """
    profile = (profile or Profile.fast()).with_engine(
        workers=workers, cache_dir=cache_dir
    )
    key = _memo_key(platform, profile, gamma, baselines)
    if key in _MEMO:
        return _MEMO[key]
    experiment = compute_platform_experiment(platform, profile, gamma, baselines)
    _MEMO[key] = experiment
    return experiment


def run_platform_experiments(
    platforms,
    profile: Profile | None = None,
    gamma: float = 1.0,
    baselines: tuple[str, ...] = ATTENTIVENAS_MODELS,
    workers: int | None = None,
    executor: str | None = None,
    cache_dir: str | None = None,
) -> dict[str, PlatformExperiment]:
    """Run a multi-platform sweep as one sharded batch (fig5/fig6/table3).

    Memoised platforms are returned immediately; the misses are submitted
    together as ``platform-experiment`` task specs through a single
    context-managed :class:`EvaluationService`, so a multi-worker profile
    overlaps whole platforms (the ``auto`` executor runs codec-backed
    batches on its process pool).  Each shard forces its in-worker engine
    to ``serial`` — pools are never nested — while sharing ``cache_dir``:
    an identical rerun reads whole shards back (``spec``), and one at
    another γ or inner budget still reads their ``static`` entries.  Every
    persisted key names its platform, so concurrent shards share no entry.
    Results are bit-identical to the serial loop; the service is torn down
    on every exit path, including ``KeyboardInterrupt``.
    """
    profile = (profile or Profile.fast()).with_engine(
        workers=workers, executor=executor, cache_dir=cache_dir
    )
    ordered = list(dict.fromkeys(platforms))
    missing = [
        platform
        for platform in ordered
        if _memo_key(platform, profile, gamma, baselines) not in _MEMO
    ]
    if len(missing) > 1 and profile.workers > 1:
        # One process shard per platform: the shard profile keeps the search
        # budget and the shared persistent cache but runs serially inside
        # its worker.  With a cache_dir, each shard's whole result is also
        # persisted under its spec fingerprint (``platform-experiment`` has
        # no richer domain key), so a repeated sweep skips entire shards.
        shard_profile = replace(profile, workers=1, executor="serial")
        cache = ResultCache(profile.cache_dir) if profile.cache_dir else None
        with EvaluationService(
            executor=profile.executor, workers=profile.workers, cache=cache
        ) as service:
            results = service.evaluate_batch(
                [
                    spec_task(
                        task_spec(
                            "platform-experiment",
                            platform=platform,
                            profile=shard_profile,
                            gamma=gamma,
                            baselines=tuple(baselines),
                        ),
                        cache=cache,
                    )
                    for platform in missing
                ]
            )
        for platform, experiment in zip(missing, results):
            _MEMO[_memo_key(platform, profile, gamma, baselines)] = experiment
    else:
        for platform in missing:
            run_platform_experiment(platform, profile, gamma, baselines)
    return {
        platform: _MEMO[_memo_key(platform, profile, gamma, baselines)]
        for platform in ordered
    }


def clear_memo() -> None:
    """Drop memoised platform runs (tests use this for isolation)."""
    _MEMO.clear()
