"""HADAS: the end-to-end bi-level search facade.

Wires the pieces of paper Fig. 2/3 together: the backbone space built over
the (pretrained-supernet) encoding, the static evaluator with simulated
HW-in-the-loop measurement, the per-backbone exit oracle, and the nested
NSGA-II engines.  ``HadasSearch(HadasConfig(platform="tx2-gpu")).run()``
reproduces the paper's TX2 experiment at the configured budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.accuracy.exit_model import ExitCapabilityModel
from repro.accuracy.surrogate import AccuracySurrogate
from repro.arch.config import BackboneConfig
from repro.arch.cost import estimate_cost
from repro.arch.space import BackboneSpace
from repro.engine.cache import ResultCache
from repro.engine.executors import EXECUTOR_KINDS
from repro.engine.service import EvalTask, EvaluationService
from repro.engine.tasks import spec_task, task_spec
from repro.eval.static import StaticEvaluation, StaticEvaluator
from repro.hardware.platform import get_platform
from repro.search.individual import Individual
from repro.search.ioe import InnerEngine, InnerResult
from repro.search.nsga2 import Nsga2Config
from repro.search.ooe import OuterEngine, OuterResult
from repro.utils.validation import check_nonneg, check_positive

#: Bump when inner-engine semantics change; orphans persisted inner results.
#: "2": batched NSGA-II variation draws the engine RNG in a new order.
#: "3": payload evaluations are rows of pickled array generation blocks.
#: "4": an :class:`InnerResult` holds its evaluation table and history rows,
#: and builds ``explored`` from them when read.
INNER_ENGINE_VERSION = "4"


@dataclass(frozen=True)
class HadasConfig:
    """Hyper-parameters of one HADAS run.

    The paper's budget is 450 OOE iterations and 3500 IOE iterations
    (#iterations = generations x population); the defaults here are the
    "fast" profile used by tests and benches.  ``paper_profile()`` returns
    the full budget.

    ``workers``/``executor`` control the evaluation service: with more than
    one worker, a generation's inner-engine runs (and static population
    batches) execute concurrently — results are bit-identical to serial
    because every evaluation is seeded by content, not by call order.
    ``cache_dir`` attaches a persistent result cache, so re-runs at the same
    configuration (across processes, restarts and experiment memoisation)
    perform zero new static measurements and zero new inner runs.
    """

    platform: str = "tx2-gpu"
    seed: int = 0
    gamma: float = 1.0
    num_classes: int = 100
    outer_population: int = 16
    outer_generations: int = 5
    inner_population: int = 16
    inner_generations: int = 6
    ioe_candidates: int = 4
    oracle_samples: int = 2048
    literal_ratios: bool = False
    workers: int = 1
    executor: str = "auto"
    cache_dir: str | None = None

    def __post_init__(self):
        check_positive("outer_population", self.outer_population)
        check_positive("outer_generations", self.outer_generations)
        check_positive("inner_population", self.inner_population)
        check_positive("inner_generations", self.inner_generations)
        check_nonneg("gamma", self.gamma)
        check_positive("workers", self.workers)
        if self.executor not in ("auto",) + EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{('auto',) + EXECUTOR_KINDS}"
            )

    @property
    def outer_iterations(self) -> int:
        return self.outer_population * self.outer_generations

    @property
    def inner_iterations(self) -> int:
        return self.inner_population * self.inner_generations

    @staticmethod
    def paper_profile(platform: str = "tx2-gpu", seed: int = 0) -> "HadasConfig":
        """The paper's 450 / 3500 iteration budget."""
        return HadasConfig(
            platform=platform,
            seed=seed,
            outer_population=30,
            outer_generations=15,
            inner_population=50,
            inner_generations=70,
            ioe_candidates=5,
        )


@dataclass
class HadasResult:
    """Outcome of a HADAS run: data only, no live evaluator."""

    config: HadasConfig
    outer: OuterResult
    space: BackboneSpace
    surrogate: AccuracySurrogate

    # ------------------------------------------------------------- queries
    def backbone_pareto(self) -> list[Individual]:
        """Static backbone Pareto set (Fig. 5 top)."""
        return self.outer.static_archive.items

    def dynn_pareto(self) -> list[Individual]:
        """(B, X, F) dynamic Pareto set (Fig. 5 bottom / final output)."""
        return self.outer.dynamic_archive.items

    def top_models(self, k: int = 4, by: str = "utopia", distinct_backbones: bool = True) -> list[Individual]:
        """The k best DyNNs (the paper's b1..b4).

        ``by="utopia"`` ranks by closeness to the utopia point of
        (dynamic accuracy, absolute dynamic energy) over the archive —
        matching how the paper's Table III picks absolutely-efficient,
        accurate models; ``by="d_score"`` ranks by the eq. 5 scalar.
        ``distinct_backbones`` prefers one entry per backbone, falling back
        to repeats when the archive holds fewer distinct backbones than k.
        """
        members = self.outer.dynamic_archive.items
        if not members:
            return []
        if by == "d_score":
            ranked = sorted(
                members, key=lambda ind: ind.payload["evaluation"].d_score, reverse=True
            )
        elif by == "utopia":
            accs = np.asarray(
                [ind.payload["evaluation"].dynamic_accuracy for ind in members]
            )
            energies = np.asarray(
                [ind.payload["evaluation"].dynamic_energy_j for ind in members]
            )
            acc_span = max(accs.max() - accs.min(), 1e-9)
            erg_span = max(energies.max() - energies.min(), 1e-9)
            distance = np.sqrt(
                ((accs.max() - accs) / acc_span) ** 2
                + ((energies - energies.min()) / erg_span) ** 2
            )
            ranked = [members[i] for i in np.argsort(distance, kind="stable")]
        else:
            raise ValueError(f"unknown ranking {by!r}")
        if not distinct_backbones:
            return ranked[:k]
        picked: list[Individual] = []
        seen: set[str] = set()
        for ind in ranked:
            key = ind.payload["config"].key
            if key in seen:
                continue
            seen.add(key)
            picked.append(ind)
            if len(picked) == k:
                return picked
        picked_ids = {id(ind) for ind in picked}
        for ind in ranked:  # fallback: allow repeated backbones
            if id(ind) not in picked_ids:
                picked.append(ind)
                picked_ids.add(id(ind))
                if len(picked) == k:
                    break
        return picked

    def selected_model(self) -> Individual:
        """The single model HADAS would hand to deployment.

        Raises
        ------
        RuntimeError
            When the dynamic archive is empty (no inner run produced a
            Pareto member), instead of an opaque ``IndexError``.
        """
        models = self.top_models(1)
        if not models:
            raise RuntimeError(
                "dynamic archive is empty — no DyNN candidate was produced. "
                "Run the search first, or increase the budget "
                "(outer_generations / ioe_candidates / inner_generations) so "
                "at least one inner-engine run completes."
            )
        return models[0]

    def deployed_design(self, label: str = "searched"):
        """The selected model lowered to a serving-ready deployed design.

        This is the search → serve hand-off: the returned
        :class:`~repro.serving.deploy.DeployedDesign` carries the concrete
        (B, X, F) triple plus the search surrogate's backbone accuracy, so
        ``repro serve --from-result`` mounts exactly what the search chose.
        """
        # Imported lazily: serving depends on the search's Individual type,
        # so a module-level import here would be circular.
        from repro.serving.deploy import design_from_individual

        best = self.selected_model()
        backbone = best.payload["config"]
        return design_from_individual(
            best,
            platform=self.config.platform,
            seed=self.config.seed,
            backbone_accuracy=self.surrogate.accuracy_fraction(
                backbone, estimate_cost(backbone)
            ),
            label=label,
        )

    @property
    def num_evaluations(self) -> tuple[int, int]:
        """(static, dynamic) evaluation counts."""
        return (
            self.outer.num_static_evaluations,
            self.outer.num_dynamic_evaluations,
        )


class HadasSearch:
    """Builds and runs the full bi-level HADAS pipeline.

    The facade owns the run's :class:`EvaluationService` (executor + shared
    persistent cache); the outer engine routes static population batches and
    inner-engine runs through it.  Inner engines themselves run serial
    NSGA-II loops — parallelism lives at exactly one level (across inner
    runs), so pool executors are never nested.
    """

    def __init__(
        self,
        config: HadasConfig = HadasConfig(),
        space: BackboneSpace | None = None,
        capability_model: ExitCapabilityModel | None = None,
        service: EvaluationService | None = None,
    ):
        self.config = config
        self.platform = get_platform(config.platform)
        self.space = space or BackboneSpace(num_classes=config.num_classes)
        self.surrogate = AccuracySurrogate(self.space, seed=config.seed)
        if service is not None:
            # An injected service owns its executor and cache; engine knobs
            # on the config must not silently disagree with it.
            if config.workers != 1 or config.executor != "auto":
                raise ValueError(
                    "config.workers/config.executor conflict with the "
                    "injected service; configure parallelism on the service "
                    "(EvaluationService(executor=..., workers=...)) instead"
                )
            if config.cache_dir is not None and (
                service.cache is None
                or Path(config.cache_dir).resolve()
                != Path(service.cache.directory).resolve()
            ):
                raise ValueError(
                    "config.cache_dir conflicts with the injected service's "
                    "cache; construct the service with "
                    "EvaluationService(cache=ResultCache(cache_dir)) or drop "
                    "cache_dir"
                )
            self.service = service
            self.cache = service.cache
        else:
            self.cache = (
                ResultCache(config.cache_dir) if config.cache_dir is not None else None
            )
            self.service = EvaluationService(
                executor=config.executor, workers=config.workers, cache=self.cache
            )
        self.static_evaluator = StaticEvaluator(
            self.platform, self.surrogate, seed=config.seed, cache=self.cache
        )
        self.capability_model = capability_model or ExitCapabilityModel()
        self._spec_context = self._make_spec_context(space)

    def _make_spec_context(self, injected_space: BackboneSpace | None) -> dict | None:
        """Codec context when this run's evaluators are data-reconstructible.

        The facade always builds its own surrogate/static evaluator from
        (platform, num_classes, seed), so the only obstacle to rebuilding
        them inside a worker process is a custom backbone space.  Returns
        the ``static-backbone``/``inner-run`` spec context, or ``None`` to
        keep closure tasks (which pickle the live evaluator graph).
        """
        if injected_space is not None and (
            self._space_fingerprint
            != BackboneSpace(num_classes=self.config.num_classes).fingerprint()
        ):
            return None
        return {
            "platform": self.config.platform,
            "num_classes": self.config.num_classes,
            "seed": self.config.seed,
            "cache_dir": str(self.cache.directory) if self.cache is not None else None,
        }

    def make_inner_engine(self, backbone: BackboneConfig) -> InnerEngine:
        """Inner engine for one backbone, sharing this run's budget/seeds.

        Also used to build the paper's "optimized baselines" (same budget,
        fixed backbone).
        """
        return InnerEngine(
            config=backbone,
            static_evaluator=self.static_evaluator,
            backbone_accuracy_fraction=self.surrogate.accuracy_fraction(
                backbone, self.static_evaluator.cost(backbone)
            ),
            nsga=Nsga2Config(
                population=self.config.inner_population,
                generations=self.config.inner_generations,
            ),
            gamma=self.config.gamma,
            literal_ratios=self.config.literal_ratios,
            capability_model=self.capability_model,
            oracle_samples=self.config.oracle_samples,
            seed=self.config.seed,
        )

    @cached_property
    def _space_fingerprint(self) -> str:
        """The space's fingerprint, rendered once: the space is fixed for
        the search's lifetime, and every inner cache key folds it in."""
        return self.space.fingerprint()

    def _inner_cache_key(self, backbone: BackboneConfig):
        return self.cache.key(
            "inner",
            evaluator_version=INNER_ENGINE_VERSION,
            backbone=backbone.key,
            # backbone.key does not encode the classifier/exit-head width.
            num_classes=backbone.num_classes,
            platform=self.platform.name,
            space=self._space_fingerprint,
            anchors=self.surrogate.anchors,
            seed=self.config.seed,
            gamma=self.config.gamma,
            population=self.config.inner_population,
            generations=self.config.inner_generations,
            oracle_samples=self.config.oracle_samples,
            literal_ratios=self.config.literal_ratios,
            capability_model=self.capability_model,
        )

    def run_inner(
        self, backbone: BackboneConfig, static: StaticEvaluation | None = None
    ) -> InnerResult:
        """Run (or fetch from the persistent cache) one backbone's IOE.

        This is the oracle path shared by the outer loop and the optimized
        baselines: the full :class:`InnerResult` — oracle construction, the
        whole (X, F) NSGA-II run and its Pareto archive — is content-
        addressed by (backbone, platform, seed, gamma, budget, evaluator
        version), so repeated backbones across generations, restarts and the
        experiment runner's memoisation are never re-searched.
        """
        del static  # the inner engine derives its own normalisers
        if self.cache is None:
            return self.make_inner_engine(backbone).run()
        return self.cache.memoize(
            self._inner_cache_key(backbone),
            lambda: self.make_inner_engine(backbone).run(),
        )

    def inner_task(
        self, backbone: BackboneConfig, static: StaticEvaluation | None = None
    ) -> EvalTask:
        """Lower one backbone's IOE to an :class:`EvalTask` for the service.

        When the evaluator stack is data-reconstructible and the service's
        executor crosses a process boundary, the task is a slim ``inner-run``
        spec (backbone + platform/seed/gamma/budget) carrying the persistent
        cache key, so the service resolves the cache before shipping anything
        to a worker and workers rebuild evaluators from data.  Otherwise the
        task closes over :meth:`run_inner`, which handles the cache itself.
        """
        if self._spec_context is not None and self.service.prefers_specs:
            spec = task_spec(
                "inner-run",
                backbone=backbone,
                gamma=self.config.gamma,
                population=self.config.inner_population,
                generations=self.config.inner_generations,
                oracle_samples=self.config.oracle_samples,
                literal_ratios=self.config.literal_ratios,
                capability_model=self.capability_model,
                **self._spec_context,
            )
            key = self._inner_cache_key(backbone) if self.cache is not None else None
            return spec_task(spec, key=key)
        return EvalTask(self.run_inner, (backbone, static))

    def run(self) -> HadasResult:
        """Execute the bi-level search."""
        outer = OuterEngine(
            space=self.space,
            evaluator=self.static_evaluator,
            run_inner=self.run_inner,
            nsga=Nsga2Config(
                population=self.config.outer_population,
                generations=self.config.outer_generations,
            ),
            ioe_candidates=self.config.ioe_candidates,
            seed=self.config.seed,
            service=self.service,
            inner_task=self.inner_task,
            spec_context=self._spec_context,
        )
        result = outer.run()
        return HadasResult(
            config=self.config,
            outer=result,
            space=self.space,
            surrogate=self.surrogate,
        )

    def close(self, cancel: bool = False) -> None:
        """Tear down the service's executor pools (idempotent).

        ``cancel`` drops queued-but-unstarted work — the error/interrupt
        teardown used by the CLIs and the experiment runner.
        """
        self.service.close(cancel=cancel)
