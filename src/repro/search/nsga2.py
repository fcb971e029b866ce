"""NSGA-II over integer genomes (Deb et al., 2002), from scratch.

The engine is generic: a :class:`Problem` supplies sampling, evaluation and
variation; the engine supplies non-dominated sorting, crowding, binary
tournament mating selection and elitist environmental selection.  Both HADAS
engines (OOE and IOE) instantiate it with their own problems; the OOE
additionally intercepts the loop for its two-stage selection (see
:mod:`repro.search.ooe`).

Generation batches flow through :func:`evaluate_genomes` →
:meth:`Problem.evaluate_batch`, which is how population-fused problems (the
IOE's fused accuracy+cost kernel) receive whole generations; the sorting/
crowding bookkeeping itself runs on the vectorized dominance-matrix
primitives in :mod:`repro.metrics.pareto`, and variation on stacked genome
matrices (:meth:`NSGA2.make_offspring`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.metrics.pareto import crowding_distance, non_dominated_sort
from repro.obs import trace
from repro.search.individual import Individual
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive


class Problem:
    """Interface the NSGA-II engine optimises against (maximisation)."""

    def sample(self, rng: np.random.Generator) -> np.ndarray:  # pragma: no cover
        """Return a fresh random genome."""
        raise NotImplementedError

    def evaluate(self, genome: np.ndarray) -> tuple[np.ndarray, dict]:  # pragma: no cover
        """Return (objective vector to maximise, payload dict)."""
        raise NotImplementedError

    def evaluate_batch(self, genomes: list[np.ndarray]) -> list[tuple[np.ndarray, dict]]:
        """Evaluate many genomes; results in input order.

        The default delegates to :meth:`evaluate` serially.  Engines route
        whole populations through this hook (or an
        :class:`~repro.engine.service.EvaluationService` when one is
        attached), so problems backed by batchable evaluators can override
        it without touching the search loop.
        """
        return [self.evaluate(genome) for genome in genomes]

    def task_specs(self, genomes: list[np.ndarray]):
        """Optional codec lowering: one ``TaskSpec`` per genome, or ``None``.

        Problems whose evaluation is reconstructible from slim data (see
        :mod:`repro.engine.tasks`) return specs here so a process-pool
        service ships data instead of pickled evaluator graphs.  The default
        ``None`` keeps the closure path.
        """
        del genomes
        return None

    def crossover(
        self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        """Recombine parent pairs into child pairs.

        ``a`` and ``b`` are ``(pairs, G)`` matrices — row ``i`` of each is
        one mating pair — and the two returned matrices have the same
        shape: row ``i`` holds the pair's two children.  The last axis is
        the genome, so a 1-D genome is a population of one.  The engine
        calls this once per generation with every pair, crossed or not, and
        keeps the children of the crossed ones; draw from ``rng`` over whole
        arrays rather than per pair.
        """
        raise NotImplementedError

    def mutate(self, genomes: np.ndarray, rng: np.random.Generator) -> np.ndarray:  # pragma: no cover
        """Perturb genomes: an ``(N, G)`` matrix in, the mutated ``(N, G)`` out.

        As for :meth:`crossover`, the last axis is the genome (a 1-D genome
        is a population of one), the engine calls this once per generation
        with every child, and the input must not be modified.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Nsga2Config:
    """Engine hyper-parameters; #iterations = generations x population."""

    population: int = 24
    generations: int = 10
    crossover_prob: float = 0.9

    def __post_init__(self):
        check_positive("population", self.population)
        check_positive("generations", self.generations)

    @property
    def iterations(self) -> int:
        return self.population * self.generations


def evaluate_genomes(
    problem: Problem, genomes: list[np.ndarray], service=None
) -> list[tuple[np.ndarray, dict]]:
    """Dispatch a genome batch for evaluation (shared by every engine).

    A problem that overrides :meth:`Problem.evaluate_batch` owns its
    batching (vectorised evaluators etc.) and keeps that ownership even when
    a service is attached; only the default point-wise implementation is
    fanned out across the service's workers.
    """
    custom_batch = type(problem).evaluate_batch is not Problem.evaluate_batch
    if service is not None and not custom_batch:
        if getattr(service, "prefers_specs", False):
            specs = problem.task_specs(genomes)
            if specs is not None:
                # Local import keeps the generic engine decoupled from the
                # codec for problems that never lower to specs.
                from repro.engine.tasks import spec_task

                return service.evaluate_batch([spec_task(spec) for spec in specs])
        return service.map(problem.evaluate, [(genome,) for genome in genomes])
    return problem.evaluate_batch(genomes)


def rank_and_crowd(population: list[Individual]) -> tuple[np.ndarray, np.ndarray]:
    """Assign NSGA-II rank and crowding distance in place.

    Both are also returned as arrays, in population order.
    """
    if not population:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    objectives = np.stack([ind.objectives for ind in population])
    rank = np.empty(len(population), dtype=np.int64)
    for front_rank, front in enumerate(non_dominated_sort(objectives)):
        rank[front] = front_rank
    crowd = crowding_distance(objectives, rank)
    for individual, r, c in zip(population, rank.tolist(), crowd.tolist()):
        individual.rank = r
        individual.crowding = c
    return rank, crowd


def environmental_selection(population: list[Individual], size: int) -> list[Individual]:
    """Elitist truncation: fill by front, break ties by crowding.

    One stable ``lexsort`` on (rank, −crowding) — the order of
    ``sorted(population, key=lambda ind: (ind.rank, -ind.crowding))``.
    """
    rank, crowd = rank_and_crowd(population)
    return [population[i] for i in np.lexsort((-crowd, rank))[:size]]


class NSGA2:
    """The evolutionary loop."""

    def __init__(
        self,
        problem: Problem,
        config: Nsga2Config,
        rng=None,
        on_generation: Callable[[int, list[Individual]], None] | None = None,
        service=None,
    ):
        self.problem = problem
        self.config = config
        self.rng = make_rng(rng)
        self.on_generation = on_generation
        self.service = service  # optional EvaluationService for batch execution
        self.history: list[Individual] = []
        self._eval_cache: dict[tuple, tuple[np.ndarray, dict]] = {}
        self.num_evaluations = 0

    # --------------------------------------------------------------- pieces
    def _evaluate(self, individual: Individual) -> Individual:
        return self._evaluate_all([individual])[0]

    def _evaluate_all(self, individuals: list[Individual]) -> list[Individual]:
        """Batch-evaluate a population (deduplicated, order-preserving).

        Unseen genomes are submitted as one batch — to the attached
        :class:`EvaluationService` when present (parallel execution across
        the population), otherwise to :meth:`Problem.evaluate_batch`.
        Results are bit-identical to genome-by-genome evaluation because
        evaluation consumes no engine RNG and tasks are pure.
        """
        keys = [individual.key() for individual in individuals]
        fresh: dict[tuple, np.ndarray] = {}
        for key, individual in zip(keys, individuals):
            if key not in self._eval_cache and key not in fresh:
                fresh[key] = individual.genome
        if fresh:
            genomes = list(fresh.values())
            outputs = evaluate_genomes(self.problem, genomes, self.service)
            for key, (objectives, payload) in zip(fresh, outputs):
                self._eval_cache[key] = (np.asarray(objectives, dtype=float), payload)
            self.num_evaluations += len(fresh)
            trace.count("nsga.evaluations", len(fresh))
            trace.count("nsga.memoized", len(individuals) - len(fresh))
        for key, individual in zip(keys, individuals):
            objectives, payload = self._eval_cache[key]
            individual.objectives = objectives.copy()
            individual.payload = dict(payload)
        return individuals

    def _initial_population(self) -> list[Individual]:
        population = [
            Individual(genome=np.asarray(self.problem.sample(self.rng), dtype=np.int64))
            for _ in range(self.config.population)
        ]
        return self._evaluate_all(population)

    def make_offspring(self, population: list[Individual]) -> list[Individual]:
        """Mating selection + crossover + mutation -> evaluated children.

        One generation's variation is a few whole-array steps over the
        stacked parents (genomes, ranks, crowding distances).  For N
        children in P = ceil(N / 2) pairs, the engine RNG is drawn in this
        order:

        1. every binary tournament: one draw of the 2P first contestants,
           uniform over the mating pool, then one of the 2P second
           contestants, uniform over the other n − 1 members (drawn from
           n − 1 and shifted past the first).  The lower rank wins; on
           equal rank the first contestant wins when its crowding is >= the
           second's.  Winners ``2i`` and ``2i + 1`` mate as pair ``i``;
        2. every crossover coin, one draw of P uniforms against
           ``crossover_prob``;
        3. :meth:`Problem.crossover` on the two ``(P, G)`` parent matrices
           of every pair; the crossed pairs take its children, the others
           keep their parents;
        4. :meth:`Problem.mutate` on the ``(N, G)`` child matrix, children
           in pair order (a0, b0, a1, b1, ...) with the last one dropped
           when N is odd.

        The children are then evaluated as one batch; evaluation never
        draws from the engine RNG.
        """
        size = len(population)
        if size < 2:
            raise ValueError(f"binary tournaments need a mating pool of two or more, got {size}")
        genomes = np.stack([ind.genome for ind in population])
        rank = np.asarray([ind.rank for ind in population])
        crowding = np.asarray([ind.crowding for ind in population])
        count = self.config.population
        pairs = -(-count // 2)

        first = self.rng.integers(0, size, size=2 * pairs)
        second = self.rng.integers(0, size - 1, size=2 * pairs)
        second = second + (second >= first)
        first_wins = (rank[first] < rank[second]) | (
            (rank[first] == rank[second]) & (crowding[first] >= crowding[second])
        )
        parents = genomes[np.where(first_wins, first, second)].reshape(pairs, 2, -1)

        crossed = self.rng.random(pairs) < self.config.crossover_prob
        child_a, child_b = self.problem.crossover(parents[:, 0], parents[:, 1], self.rng)
        parents[crossed, 0], parents[crossed, 1] = child_a[crossed], child_b[crossed]
        children = self.problem.mutate(parents.reshape(2 * pairs, -1)[:count], self.rng)
        return self._evaluate_all(
            [Individual(genome=genome) for genome in np.asarray(children, dtype=np.int64)]
        )

    # ----------------------------------------------------------------- loop
    def run(self) -> list[Individual]:
        """Full NSGA-II run; returns the final population (ranked)."""
        with trace.span("nsga.generation", generation=0):
            population = self._initial_population()
        rank_and_crowd(population)
        self.history.extend(population)
        for generation in range(1, self.config.generations):
            with trace.span("nsga.generation", generation=generation):
                offspring = self.make_offspring(population)
                self.history.extend(offspring)
                population = environmental_selection(
                    population + offspring, self.config.population
                )
            if self.on_generation is not None:
                self.on_generation(generation, population)
        rank_and_crowd(population)
        return population
