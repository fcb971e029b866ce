"""Outer Optimization Engine: NSGA-II over the backbone space B.

Reproduces the paper's Fig. 3 outer loop:

1. generate a backbone population P_B from the (pretrained-supernet) space;
2. static fitness S(b) = (accuracy, latency, energy) at default clocks;
3. **early selection** — non-dominated rank (ties by crowding) prunes to
   P'_B, so only promising backbones pay the cost of an inner-engine run;
4. invoke an IOE per surviving backbone and aggregate its dynamic Pareto;
5. **second selection** on the combined S and D scores picks P''_B;
6. P''_B undergoes crossover/mutation into the next generation.

Two global archives are built once the loop ends, each from every
candidate the run produced: the static 3-D backbone Pareto over the
explored backbones (Fig. 5 top) and the dynamic (B, X, F) Pareto over
(dynamic accuracy, energy gain, latency gain) of every IOE Pareto member
(Fig. 5 bottom).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.arch.config import BackboneConfig
from repro.arch.space import BackboneSpace
from repro.engine.service import EvalTask, EvaluationService
from repro.eval.static import StaticEvaluation, StaticEvaluator
from repro.obs import trace
from repro.search import operators
from repro.search.archive import ParetoArchive
from repro.search.individual import Individual
from repro.search.ioe import InnerResult
from repro.search.nsga2 import Nsga2Config, Problem, environmental_selection, rank_and_crowd
from repro.utils.rng import child_rng
from repro.utils.validation import check_positive


class _BackboneProblem(Problem):
    """Backbone genome handling + static evaluation.

    A generation's unseen genomes are decoded and scored in one
    :meth:`StaticEvaluator.evaluate_population` call, inline: a worker
    round trip would cost more than the row it scores.
    """

    def __init__(self, space: BackboneSpace, evaluator: StaticEvaluator):
        self.space = space
        self.evaluator = evaluator
        self._bounds = space.gene_bounds()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.space.sample_genome(rng)

    def evaluate_batch(self, genomes: np.ndarray):
        configs = [self.space.decode(genome) for genome in genomes]
        statics = self.evaluator.evaluate_population(configs)
        objectives = np.asarray([static.objectives() for static in statics], dtype=float)
        payloads = [
            {"config": config, "static": static} for config, static in zip(configs, statics)
        ]
        return objectives.reshape(len(configs), 3), payloads

    def crossover(self, a, b, rng):
        """Uniform or two-point crossover, with even odds per pair: both run
        on every pair and a coin per pair picks one."""
        uniform = (rng.random(a.shape[:-1]) < 0.5)[..., None]
        uniform_a, uniform_b = operators.uniform_crossover(a, b, rng)
        two_point_a, two_point_b = operators.two_point_crossover(a, b, rng)
        return np.where(uniform, uniform_a, two_point_a), np.where(uniform, uniform_b, two_point_b)

    def mutate(self, genomes, rng):
        mutated = operators.reset_mutation(genomes, self._bounds, rng, prob=0.12)
        return operators.creep_mutation(mutated, self._bounds, rng, prob=0.08)


@dataclass
class OuterResult:
    """Everything the outer loop accumulated."""

    static_archive: ParetoArchive
    dynamic_archive: ParetoArchive
    inner_results: dict[str, InnerResult] = field(default_factory=dict)
    explored: list[Individual] = field(default_factory=list)
    generations: int = 0
    num_static_evaluations: int = 0
    num_dynamic_evaluations: int = 0

    def static_points(self, explored: bool = True) -> np.ndarray:
        """(accuracy %, energy J) pairs of explored backbones (Fig. 5 top)."""
        source = self.explored if explored else self.static_archive.items
        return np.asarray(
            [
                (ind.payload["static"].accuracy, ind.payload["static"].energy_j)
                for ind in source
            ]
        )

    def dynamic_points(self, source: str = "inner") -> np.ndarray:
        """(energy gain, mean N_i) pairs — the paper's Fig. 5 bottom axes.

        ``source="inner"`` pools every IOE Pareto set (the per-backbone
        relative-gain fronts, exactly what the paper's bottom row plots);
        ``source="archive"`` reads the global deployment archive instead.
        """
        if source == "inner":
            points = [
                (
                    member.payload["evaluation"].energy_gain,
                    member.payload["evaluation"].mean_n_i,
                )
                for inner in self.inner_results.values()
                for member in inner.pareto
            ]
        elif source == "archive":
            points = [
                (
                    ind.payload["evaluation"].energy_gain,
                    ind.payload["evaluation"].mean_n_i,
                )
                for ind in self.dynamic_archive
            ]
        else:
            raise ValueError(f"unknown source {source!r}")
        return np.asarray(points) if points else np.zeros((0, 2))


class OuterEngine:
    """The bi-level outer loop (invokes a caller-supplied IOE factory).

    Parameters
    ----------
    space, evaluator:
        The B subspace and the static evaluator S(b).
    run_inner:
        Callable ``(BackboneConfig, StaticEvaluation) -> InnerResult``; the
        HADAS facade wires this to :class:`~repro.search.ioe.InnerEngine`.
    nsga:
        Outer budget; paper uses 450 iterations (= generations x population).
    ioe_candidates:
        Size of P'_B — backbones per generation granted an inner run.
    service:
        Evaluation service carrying the executor and result cache.  Each
        generation's inner-engine runs are submitted through it as one
        batch; each is seeded by its backbone key, so the service may run
        them in lockstep groups and overlap the groups across workers
        without changing any result.  Static evaluation runs inline (see
        :class:`_BackboneProblem`).
    inner_task:
        Optional factory lowering one inner run to an :class:`EvalTask`
        (the HADAS facade supplies codec-backed specs plus persistent cache
        keys here); the default wraps ``run_inner`` as a closure task.
    """

    def __init__(
        self,
        space: BackboneSpace,
        evaluator: StaticEvaluator,
        run_inner: Callable[[BackboneConfig, StaticEvaluation], InnerResult],
        nsga: Nsga2Config | None = None,
        ioe_candidates: int = 4,
        seed: int = 0,
        service: EvaluationService | None = None,
        inner_task: Callable[[BackboneConfig, StaticEvaluation], EvalTask] | None = None,
    ):
        check_positive("ioe_candidates", ioe_candidates)
        self.space = space
        self.evaluator = evaluator
        self.run_inner = run_inner
        self.inner_task = inner_task or (
            lambda config, static: EvalTask(self.run_inner, (config, static))
        )
        self.nsga_config = nsga or Nsga2Config(population=16, generations=6)
        self.ioe_candidates = ioe_candidates
        self.seed = seed
        self.service = service or EvaluationService()
        self.problem = _BackboneProblem(space, evaluator)

    # ------------------------------------------------------------ internals
    def _combined_objectives(self, individual: Individual, inner: InnerResult) -> np.ndarray:
        """Combined S and D vector used by the second selection."""
        static: StaticEvaluation = individual.payload["static"]
        best_eval = inner.best.payload["evaluation"]
        return np.asarray(
            [
                static.accuracy,
                -static.energy_j,
                best_eval.energy_gain,
                best_eval.d_score,
            ]
        )

    def _dynamic_individuals(self, backbone: Individual, inner: InnerResult) -> list[Individual]:
        """Lift IOE Pareto members into (B, X, F) archive individuals.

        The global archive ranks deployment candidates, so its objectives
        are *absolute*: dynamic accuracy, dynamic energy and dynamic latency
        under ideal mapping (the per-backbone relative gains of the IOE are
        not comparable across backbones of different size).
        """
        lifted = []
        for member in inner.pareto:
            evaluation = member.payload["evaluation"]
            genome = np.concatenate([backbone.genome, member.genome])
            lifted.append(
                Individual(
                    genome=genome,
                    objectives=np.asarray(
                        [
                            evaluation.dynamic_accuracy,
                            -evaluation.dynamic_energy_j,
                            -evaluation.dynamic_latency_s,
                        ]
                    ),
                    payload={
                        "config": backbone.payload["config"],
                        "static": backbone.payload["static"],
                        "evaluation": evaluation,
                    },
                )
            )
        return lifted

    # ----------------------------------------------------------------- run
    def run(self) -> OuterResult:
        """Execute the full bi-level outer loop."""
        from repro.search.nsga2 import NSGA2  # local import to reuse machinery

        engine = NSGA2(self.problem, self.nsga_config, rng=child_rng(self.seed, "ooe"))
        inner_results: dict[str, InnerResult] = {}
        deployable: list[Individual] = []  # every IOE member lifted into (B, X, F)

        with trace.span("ooe.generation", generation=0):
            population = engine.initial_population()
        rank_and_crowd(population)

        for generation in range(self.nsga_config.generations):
            with trace.span("ooe.generation", generation=generation + 1):
                # Early selection: P'_B — best-ranked backbones get an IOE run.
                pruned = environmental_selection(population, self.ioe_candidates)

                # Inner runs + aggregation of dynamic evaluations.  All inner
                # runs of a generation are submitted as one batch: each is a
                # pure function of (backbone, seed), so the service may group
                # and overlap them while results stay identical to serial.
                fresh: dict[str, Individual] = {}
                for backbone in pruned:
                    config: BackboneConfig = backbone.payload["config"]
                    if config.key not in inner_results:
                        fresh.setdefault(config.key, backbone)
                trace.count("ooe.inner_runs", len(fresh))
                trace.count("ooe.inner_memoized", len(pruned) - len(fresh))
                if fresh:
                    inners = self.service.evaluate_batch(
                        [
                            self.inner_task(ind.payload["config"], ind.payload["static"])
                            for ind in fresh.values()
                        ]
                    )
                    for backbone, inner in zip(fresh.values(), inners):
                        inner_results[backbone.payload["config"].key] = inner
                        deployable += self._dynamic_individuals(backbone, inner)
                combined: list[tuple[Individual, np.ndarray]] = []
                for backbone in pruned:
                    inner = inner_results[backbone.payload["config"].key]
                    combined.append((backbone, self._combined_objectives(backbone, inner)))

                # Second selection on combined S+D scores -> P''_B.
                lifted = [
                    Individual(genome=ind.genome, objectives=obj, payload=ind.payload)
                    for ind, obj in combined
                ]
                survivors = environmental_selection(lifted, max(2, len(lifted) // 2))
                survivor_inds = [
                    next(ind for ind, _ in combined if ind.key() == s.key())
                    for s in survivors
                ]

                if generation == self.nsga_config.generations - 1:
                    break

                # Variation: P''_B parents -> next generation.
                rank_and_crowd(survivor_inds)
                offspring = engine.make_offspring(
                    survivor_inds if len(survivor_inds) >= 2 else population
                )
                population = environmental_selection(
                    population + offspring, self.nsga_config.population
                )

        explored = engine.history
        return OuterResult(
            static_archive=ParetoArchive(explored),
            dynamic_archive=ParetoArchive(deployable),
            inner_results=inner_results,
            explored=explored,
            generations=self.nsga_config.generations,
            num_static_evaluations=engine.num_evaluations,
            num_dynamic_evaluations=sum(
                inner.num_evaluations for inner in inner_results.values()
            ),
        )
