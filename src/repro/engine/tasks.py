"""Slim, declarative task specs: the process-pool-friendly task codec.

The first-generation process executor shipped *closures* to workers —
``EvalTask(search.run_inner, (config,))`` pickles the bound method and with
it the entire evaluator graph (space, surrogate, static evaluator, service,
caches) per task.  That made ``executor="process"`` pay pickling costs
proportional to the object graph instead of the work, and excluded any task
whose graph held unpicklable state.

A :class:`TaskSpec` replaces the closure with *data*: a small frozen
dataclass naming a registered task ``kind`` plus the minimal parameters the
evaluation depends on (backbone, platform key, seed, gamma, budget — the
same fields the persistent cache addresses by).  Workers reconstruct the
evaluator stack from the spec via a registry of pure ``build → evaluate``
functions, memoising the heavy context objects per
``(platform, num_classes, seed, cache_dir)`` with :func:`functools.lru_cache`
so a worker pays the build once per context, not per task.

Determinism contract: a registered task function must be a *pure* function
of its spec — ``run_spec(spec)`` in a worker process is bit-identical to
running it inline, because every evaluator in this repo derives its noise
streams from content-keyed ``child_rng`` seeds.  The round-trip is asserted
in ``tests/test_tasks.py``.

Registered kinds (all builders import their domains lazily, so this module
stays import-light and cycle-free):

======================  =====================================================
kind                    evaluates
======================  =====================================================
``inner-run``           one backbone's full IOE (oracle + (X, F) NSGA-II)
``platform-experiment`` one platform's HADAS + baselines study (fig5/fig6)
``serving-cell``        one serving-grid cell (pattern × scenario × policy)
``fleet-cell``          one fleet-grid cell (fleet × pattern × router)
``table2-dvfs``         one platform's Table II DVFS-space rows
======================  =====================================================
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

#: Bump when spec semantics change (what a kind's params mean, or what a
#: spec evaluates to); folded into every spec fingerprint, so content
#: addresses derived from specs roll over.  "2": searches follow the batched
#: NSGA-II variation's trajectories.  "3": results that embed an
#: ``InnerResult`` (``platform-experiment``) carry its new layout.  "4":
#: ``platform-experiment`` results hold no live search or static evaluator.
#: "5": the ``InnerResult``s they embed are folded (no evaluation table).
TASK_CODEC_VERSION = "5"

_REGISTRY: dict[str, Callable[..., Any]] = {}


@dataclass(frozen=True)
class TaskSpec:
    """One declarative unit of evaluation work.

    ``params`` holds only small picklable values — plain builtins and slim
    frozen dataclasses (a :class:`~repro.arch.config.BackboneConfig`, a
    :class:`~repro.serving.harness.ServingSpec`) — never live evaluators,
    services or pools.  Specs are safe to ship across process boundaries and
    cheap to hash for content addressing.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Stable content digest of this spec (kind + codec version + params).

        Usable as a cache-key field when a task has no richer domain key;
        two structurally equal specs always share a fingerprint.
        """
        from repro.utils.serialization import canonical_json

        payload = canonical_json(
            {"__codec__": TASK_CODEC_VERSION, "kind": self.kind, "params": self.params}
        )
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def register_task(kind: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a pure ``fn(**params)`` as the evaluator of ``kind`` tasks.

    Registration is module-level (it must happen at import so freshly
    spawned workers resolve kinds by importing this module alone); built-in
    kinds live in this file, tests may add their own throwaway kinds.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        if kind in _REGISTRY:
            raise ValueError(f"task kind {kind!r} is already registered")
        _REGISTRY[kind] = fn
        return fn

    return decorate


def task_kinds() -> tuple[str, ...]:
    """The registered kinds (built-ins plus any test registrations)."""
    return tuple(sorted(_REGISTRY))


def task_spec(kind: str, **params: Any) -> TaskSpec:
    """Build a spec, validating the kind against the registry."""
    if kind not in _REGISTRY:
        raise KeyError(f"unknown task kind {kind!r}; registered: {task_kinds()}")
    return TaskSpec(kind=kind, params=params)


def run_spec(spec: TaskSpec) -> Any:
    """Evaluate one spec — the single entry point workers execute.

    Executors recognise this function (``run_spec.is_task_codec``) to detect
    codec-backed batches; the ``auto`` executor routes such batches to the
    process pool because their payloads are slim by construction.
    """
    fn = _REGISTRY.get(spec.kind)
    if fn is None:
        raise KeyError(f"unknown task kind {spec.kind!r}; registered: {task_kinds()}")
    return fn(**spec.params)


run_spec.is_task_codec = True  # executor-side batch detection, import-free


def spec_task(spec: TaskSpec, key=None, cls: type | None = None, cache=None, group=None):
    """Lower a spec to an :class:`~repro.engine.service.EvalTask`.

    ``key`` is the caller's richer domain cache address when one exists
    (e.g. the inner-run key).  For task kinds without one, passing a
    ``cache`` makes the spec's content :meth:`~TaskSpec.fingerprint` the
    automatic address (namespace ``spec``): two structurally equal specs
    always share a single cache entry, so whole-spec results (platform
    experiments, table2 rows) persist and de-duplicate with zero per-kind
    key plumbing.  An explicit ``key`` always wins over the fingerprint.
    ``group`` is a codec group runner such as :func:`run_inner_specs`.
    """
    from repro.engine.service import EvalTask

    if key is None and cache is not None:
        key = cache.key("spec", kind=spec.kind, fingerprint=spec.fingerprint())
    return EvalTask(fn=run_spec, args=(spec,), key=key, cls=cls, group=group)


# --------------------------------------------------------------------------
# Worker-side evaluator contexts.  Heavy, reusable, deterministic per key —
# built once per process (lru_cache) and shared by every task of that
# context.  ``cache_dir`` attaches the persistent ResultCache so worker
# processes read and extend the same database as the parent (each put is one
# atomic, idempotent insert, so concurrent workers are safe).
# --------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _static_context(platform: str, num_classes: int, seed: int, cache_dir: str | None):
    from repro.accuracy.surrogate import AccuracySurrogate
    from repro.arch.space import BackboneSpace
    from repro.engine.cache import ResultCache
    from repro.eval.static import StaticEvaluator
    from repro.hardware.platform import get_platform

    space = BackboneSpace(num_classes=num_classes)
    surrogate = AccuracySurrogate(space, seed=seed)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    evaluator = StaticEvaluator(
        get_platform(platform), surrogate, seed=seed, cache=cache
    )
    return surrogate, evaluator


# ----------------------------------------------------------- built-in kinds
def _inner_engine(
    *,
    platform: str,
    num_classes: int,
    seed: int,
    backbone,
    gamma: float,
    population: int,
    generations: int,
    oracle_samples: int,
    literal_ratios: bool,
    capability_model,
    cache_dir: str | None = None,
):
    """One backbone's inner engine — mirrors ``HadasSearch.make_inner_engine``."""
    from repro.search.ioe import InnerEngine
    from repro.search.nsga2 import Nsga2Config

    surrogate, evaluator = _static_context(platform, num_classes, seed, cache_dir)
    return InnerEngine(
        config=backbone,
        static_evaluator=evaluator,
        backbone_accuracy_fraction=surrogate.accuracy_fraction(
            backbone, evaluator.cost(backbone)
        ),
        nsga=Nsga2Config(population=population, generations=generations),
        gamma=gamma,
        literal_ratios=literal_ratios,
        capability_model=capability_model,
        oracle_samples=oracle_samples,
        seed=seed,
    )


@register_task("inner-run")
def _inner_run(**params):
    """One backbone's IOE — mirrors ``HadasSearch.make_inner_engine().run()``."""
    return _inner_engine(**params).run()


def run_inner_specs(calls: list[tuple[TaskSpec]]) -> list:
    """Several ``inner-run`` specs' IOEs as one lockstep group: the group
    runner of their tasks (``calls`` holds each task's ``(spec,)``)."""
    engines = [_inner_engine(**spec.params) for (spec,) in calls]
    return engines[0].run(alongside=engines[1:])


run_inner_specs.is_task_codec = True  # a group of codec calls is one, too


@register_task("platform-experiment")
def _platform_experiment(*, platform: str, profile, gamma: float, baselines):
    """One platform's full study — the fig5/fig6/table3 shard unit.

    ``profile`` arrives with its engine knobs already forced to in-worker
    values (serial executor, shared ``cache_dir``) by the sharding runner, so
    worker processes never nest pools.
    """
    from repro.experiments.runner import compute_platform_experiment

    return compute_platform_experiment(platform, profile, gamma, tuple(baselines))


@register_task("serving-cell")
def _serving_cell(*, spec):
    from repro.serving.harness import run_serving_cell

    return run_serving_cell(spec)


@register_task("fleet-cell")
def _fleet_cell(*, spec):
    # Every FleetSpec field (``steal`` among them) rides into the cache key
    # (FLEET_CELL_VERSION separates the dispatch-core generations), so steal
    # variants cache as distinct cells.
    from repro.serving.fleet import run_fleet_cell

    return run_fleet_cell(spec)


@register_task("table2-dvfs")
def _table2_dvfs(*, platform: str):
    from repro.experiments.table2 import platform_dvfs_rows

    return platform_dvfs_rows(platform)

