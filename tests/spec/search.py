"""Specs of the NSGA-II loop (one :class:`Individual` per genome) and of
the Pareto archive (one insertion per candidate).

:class:`repro.search.nsga2.NSGA2` keeps each generation as a genome matrix,
the rows of its evaluation table and rank/crowding vectors, ranks only the
fronts that fill the next population, and builds :class:`Individual`
objects only for the rows a caller asks for.  :class:`SpecNSGA2` is the
loop it replaced: every genome of every generation an evaluated
:class:`Individual`, a per-genome memo whose objective vector and payload
dict are copied out to every member, and selection through a full
:func:`rank_and_crowd` of the merged population.  It draws the same numbers
in the same order, so a seeded run must match production in its final
population, its history, its evaluation count and its final RNG state.

:class:`repro.search.archive.ParetoArchive` is built once from a whole
stream of candidates; :class:`SequentialArchive` is the archive it
replaced, inserting one candidate at a time.  On a stream whose genomes
determine their objectives (every search's), both keep the same members in
the same order.

:class:`ZdtLikeProblem` is the toy problem the engine tests run on, and
:func:`inner_explored_points` builds an IOE run's explored points row by row.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.pareto import crowding_distance, dominates, non_dominated_sort
from repro.search import operators
from repro.search.individual import Individual
from repro.search.ioe import InnerEngine
from repro.search.nsga2 import NSGA2, Nsga2Config, Problem
from repro.utils.rng import child_rng, make_rng


class ZdtLikeProblem(Problem):
    """Integer-genome bi-objective toy with a known trade-off.

    Genome of length 8 with genes in [0, 10]; objectives (maximise):
    f1 = mean(g)/10, f2 = 1 - (mean(g)/10)^2 scaled by a diversity factor —
    an explicit convex front.
    """

    length = 8
    bounds = np.full(8, 11, dtype=np.int64)

    def sample(self, rng):
        return rng.integers(0, 11, size=self.length)

    def evaluate(self, genome):
        x = genome.mean() / 10.0
        spread = genome.std() / 10.0
        f1 = x
        f2 = 1.0 - x**2 - 0.05 * spread
        return np.asarray([f1, f2]), {"x": x}

    def crossover(self, a, b, rng):
        return operators.uniform_crossover(a, b, rng)

    def mutate(self, genome, rng):
        return operators.creep_mutation(genome, self.bounds, rng, prob=0.3)


class SequentialArchive:
    """The Pareto archive inserting one candidate at a time: a repeated
    genome is skipped, a dominated candidate rejected, and an entering one
    evicts the members it dominates."""

    def __init__(self):
        self.items: list[Individual] = []

    def add(self, individual: Individual) -> bool:
        if any(member.key() == individual.key() for member in self.items):
            return False
        if any(dominates(member.objectives, individual.objectives) for member in self.items):
            return False
        self.items = [
            member for member in self.items
            if not dominates(individual.objectives, member.objectives)
        ]
        self.items.append(individual)
        return True


def rank_and_crowd(population: list[Individual]) -> None:
    """Rank and crowding of every member, from the full sort, in place."""
    objectives = np.stack([ind.objectives for ind in population])
    rank = np.empty(len(population), dtype=np.int64)
    for front_rank, front in enumerate(non_dominated_sort(objectives)):
        rank[front] = front_rank
    crowd = crowding_distance(objectives, rank)
    for individual, r, c in zip(population, rank.tolist(), crowd.tolist()):
        individual.rank = r
        individual.crowding = c


def environmental_selection(population: list[Individual], size: int) -> list[Individual]:
    """Every member ranked, then the stable sort by (rank, −crowding)."""
    rank_and_crowd(population)
    return sorted(population, key=lambda ind: (ind.rank, -ind.crowding))[:size]


class SpecNSGA2:
    """The NSGA-II loop over :class:`Individual` objects.

    Offers what the OOE uses of :class:`~repro.search.nsga2.NSGA2`
    (:meth:`initial_population`, :meth:`make_offspring`, ``history`` and
    ``num_evaluations``), so an outer run can take it in its place.
    """

    def __init__(self, problem: Problem, config: Nsga2Config, rng=None):
        self.problem = problem
        self.config = config
        self.rng = make_rng(rng)
        self.history: list[Individual] = []
        self._eval_cache: dict[tuple, tuple[np.ndarray, dict]] = {}
        self.num_evaluations = 0

    def _evaluate_all(self, individuals: list[Individual]) -> list[Individual]:
        """Evaluate a generation's unseen genomes as one batch (first
        occurrences, in order); every member gets copies of its genome's
        objectives and payload, and the generation joins the history."""
        keys = [individual.key() for individual in individuals]
        fresh: dict[tuple, np.ndarray] = {}
        for key, individual in zip(keys, individuals):
            if key not in self._eval_cache and key not in fresh:
                fresh[key] = individual.genome
        if fresh:
            objectives, payloads = self.problem.evaluate_batch(np.stack(list(fresh.values())))
            for row, key in enumerate(fresh):
                self._eval_cache[key] = (np.asarray(objectives[row], dtype=float), payloads[row])
            self.num_evaluations += len(fresh)
        for key, individual in zip(keys, individuals):
            objectives, payload = self._eval_cache[key]
            individual.objectives = objectives.copy()
            individual.payload = dict(payload)
        self.history.extend(individuals)
        return individuals

    def initial_population(self) -> list[Individual]:
        population = [
            Individual(genome=np.asarray(self.problem.sample(self.rng), dtype=np.int64))
            for _ in range(self.config.population)
        ]
        return self._evaluate_all(population)

    def make_offspring(self, population: list[Individual]) -> list[Individual]:
        """Binary tournaments, crossover coins, crossover and mutation on
        the stacked parents, in :meth:`repro.search.nsga2.NSGA2.vary`'s
        draw order; then the evaluated children."""
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

    def run(self) -> list[Individual]:
        """Full NSGA-II run; returns the final population (ranked)."""
        population = self.initial_population()
        rank_and_crowd(population)
        for _ in range(1, self.config.generations):
            offspring = self.make_offspring(population)
            population = environmental_selection(population + offspring, self.config.population)
        rank_and_crowd(population)
        return population


def inner_explored_points(engine: InnerEngine, accuracy: str) -> np.ndarray:
    """``engine``'s explored (energy gain, accuracy-side) points, one built
    :class:`~repro.eval.dynamic.DynamicEvaluation` per history row: the
    row-by-row reference for ``InnerResult.points_2d(explored=True)``.

    Its NSGA-II runs directly on the engine's problem and RNG stream, and
    every history row's evaluation is read field by field.
    """
    nsga = NSGA2(
        engine.problem,
        engine.nsga_config,
        rng=child_rng(engine.seed, "ioe", engine.config.key),
    )
    nsga.run()
    second = {"mean_n_i": "mean_n_i", "dynamic": "dynamic_accuracy"}[accuracy]
    rows = [ind.payload["evaluation"] for ind in nsga.history]
    return np.column_stack(
        [[row.energy_gain for row in rows], [getattr(row, second) for row in rows]]
    )
