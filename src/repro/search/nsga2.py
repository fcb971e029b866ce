"""NSGA-II over integer genomes (Deb et al., 2002), from scratch.

The engine is generic: a :class:`Problem` supplies sampling, evaluation and
variation; the engine supplies non-dominated sorting, crowding, binary
tournament mating selection and elitist environmental selection.  Both HADAS
engines (OOE and IOE) instantiate it with their own problems; the OOE
additionally intercepts the loop for its two-stage selection (see
:mod:`repro.search.ooe`).

:meth:`NSGA2.run` keeps each generation as arrays: a genome matrix, the row
ids of its genomes in the engine's :class:`EvaluationTable`, and rank and
crowding vectors, and returns the final population as table rows.  A
generation's unseen genomes reach :meth:`Problem.evaluate_batch` as one
matrix, and come back as an objective matrix plus payloads the table keeps
as they are; selection ranks only the fronts that fill the next population
(the bound of :func:`~repro.metrics.pareto.non_dominated_sort`).

:meth:`NSGA2.steps` is the run as a generator of per-generation steps;
:meth:`NSGA2.run` drives it over the engine's own problem, the IOE drives
several engines' steps in lockstep (:mod:`repro.search.ioe`).
:class:`Individual` objects are built only where a caller asks for rows:
the OOE's bookkeeping (:meth:`NSGA2.initial_population`,
:meth:`NSGA2.make_offspring`), archive members and histories read after a
run.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Generator, Sequence

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

    def evaluate_batch(self, genomes: np.ndarray) -> tuple[np.ndarray, Sequence[dict]]:
        """Evaluate an ``(N, G)`` genome matrix.

        Returns the ``(N, M)`` float objective matrix and an indexable
        sequence whose item ``i`` is row ``i``'s payload dict; the engine
        keeps the sequence as it is and indexes it only for the rows it
        hands out.  The default evaluates row by row through
        :meth:`evaluate`.  Engines route whole populations through this
        hook, so problems backed by batchable evaluators can override it
        without touching the search loop.
        """
        outputs = [self.evaluate(genome) for genome in genomes]
        objectives = np.asarray([objective for objective, _ in outputs], dtype=float)
        return objectives.reshape(len(outputs), -1), [payload for _, payload in outputs]

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


def rank_fronts(
    objectives: np.ndarray, bound: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, rank, crowding)`` over the leading fronts of ``objectives``.

    ``rows`` lists the rows of the fronts that first cover ``bound`` rows
    (every front when ``None``), front by front and ascending within a
    front; ``rank`` and ``crowding`` are aligned with it.  Crowding is
    measured within each whole front, so it is the same whether or not
    later fronts were peeled.
    """
    fronts = non_dominated_sort(objectives, bound)
    if not fronts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    rows = np.concatenate(fronts)
    rank = np.repeat(np.arange(len(fronts)), [len(front) for front in fronts])
    return rows, rank, crowding_distance(objectives[rows], rank)


def select(objectives: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elitist truncation of an objective matrix: fill by front, break ties
    by crowding.

    Returns the survivors' rows in selection order with their rank and
    crowding.  One stable ``lexsort`` on (rank, −crowding) over the fronts
    that fill ``size`` orders them as the same sort over every row does.
    """
    rows, rank, crowding = rank_fronts(objectives, size)
    order = np.lexsort((-crowding, rank))[:size]
    return rows[order], rank[order], crowding[order]


def rank_rows(objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row's NSGA-II rank and crowding distance, in row order."""
    rows, front_rank, front_crowding = rank_fronts(objectives)
    rank = np.empty(len(rows), dtype=np.int64)
    crowding = np.empty(len(rows))
    rank[rows], crowding[rows] = front_rank, front_crowding
    return rank, crowding


def rank_and_crowd(population: list[Individual]) -> tuple[np.ndarray, np.ndarray]:
    """Assign NSGA-II rank and crowding distance to every member, in place.

    Both are also returned as arrays, in population order.
    """
    if not population:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    rank, crowd = rank_rows(np.stack([ind.objectives for ind in population]))
    for individual, r, c in zip(population, rank.tolist(), crowd.tolist()):
        individual.rank = r
        individual.crowding = c
    return rank, crowd


def environmental_selection(population: list[Individual], size: int) -> list[Individual]:
    """Elitist truncation: fill by front, break ties by crowding.

    Ranks every member first (the OOE mates from the whole ranked
    population when too few backbones survive), then one stable
    ``lexsort`` on (rank, −crowding) — the order of
    ``sorted(population, key=lambda ind: (ind.rank, -ind.crowding))``.
    """
    rank, crowd = rank_and_crowd(population)
    return [population[i] for i in np.lexsort((-crowd, rank))[:size]]


class EvaluationTable:
    """Every distinct genome an engine evaluated, one row each.

    Rows take ids in first-seen order.  The table holds the genome and
    objective matrices and, in ``payloads``, the payload sequence the
    problem returned for each evaluated batch, as it was returned, in row
    order; :meth:`individual` builds the :class:`Individual` of a row on
    request, with its own copies of the genome and objectives.  It holds no
    evaluator.
    """

    def __init__(self):
        self._genomes: list[np.ndarray] = []
        self.objectives = np.zeros((0, 0))
        self.payloads: list[Sequence[dict]] = []
        self._starts: list[int] = []  # first row id of each payload sequence

    def __len__(self) -> int:
        return len(self.objectives)

    def append(self, genomes: np.ndarray, objectives: np.ndarray, payloads: Sequence[dict]) -> None:
        """Add one evaluated batch as the next rows."""
        self._starts.append(len(self))
        self._genomes.append(genomes)
        self.payloads.append(payloads)
        self.objectives = (
            np.concatenate([self.objectives, objectives]) if len(self) else objectives
        )

    @property
    def genomes(self) -> np.ndarray:
        """``(rows, G)`` genome matrix."""
        if len(self._genomes) != 1:
            self._genomes[:] = [np.concatenate(self._genomes or [np.zeros((0, 0), dtype=np.int64)])]
        return self._genomes[0]

    def individual(self, row: int) -> Individual:
        """Row ``row`` as an evaluated :class:`Individual`."""
        block = bisect_right(self._starts, row) - 1
        return Individual(
            genome=self.genomes[row].copy(),
            objectives=self.objectives[row].copy(),
            payload=self.payloads[block][row - self._starts[block]],
        )

    def individuals(self, rows: np.ndarray) -> list[Individual]:
        return [self.individual(row) for row in np.asarray(rows).tolist()]


class NSGA2:
    """The evolutionary loop, over one :class:`EvaluationTable`.

    ``num_evaluations`` counts the table's rows (distinct genomes
    evaluated); :attr:`history_rows` lists the row of every genome of every
    evaluated generation, in order, and :attr:`history` the same as
    :class:`Individual` objects, built when read.
    """

    def __init__(self, problem: Problem, config: Nsga2Config, rng=None):
        self.problem = problem
        self.config = config
        self.rng = make_rng(rng)
        self.table = EvaluationTable()
        self._index: dict[bytes, int] = {}  # genome bytes -> table row
        self._history: list[np.ndarray] = []

    @property
    def num_evaluations(self) -> int:
        return len(self.table)

    @property
    def history_rows(self) -> np.ndarray:
        return np.concatenate(self._history) if self._history else np.zeros(0, dtype=np.int64)

    @property
    def history(self) -> list[Individual]:
        return self.table.individuals(self.history_rows)

    # --------------------------------------------------------------- pieces
    def evaluate(self, genomes: np.ndarray) -> np.ndarray:
        """Table rows of a generation's ``(N, G)`` genomes (:meth:`_evaluated`)."""
        return self._drive(self._evaluated(genomes))

    def _drive(self, steps: Generator) -> np.ndarray:
        """A step generator's result, evaluating over this engine's problem."""
        try:
            unseen = next(steps)
            while True:
                unseen = steps.send(self.problem.evaluate_batch(unseen))
        except StopIteration as done:
            return done.value

    def _evaluated(self, genomes: np.ndarray) -> Generator[np.ndarray, tuple, np.ndarray]:
        """Table rows of a generation's ``(N, G)`` genomes, as a step.

        The generation's unseen genomes, first occurrences in order, are
        yielded as one matrix (if there are any), and the ``(objectives,
        payloads)`` sent back become the table's next rows; the generation
        joins the history.  Results are bit-identical to genome-by-genome
        evaluation because evaluation consumes no engine RNG.
        """
        genomes = np.ascontiguousarray(genomes, dtype=np.int64)
        index = self._index
        width = genomes.shape[1] * genomes.itemsize
        flat = genomes.tobytes()
        rows, fresh = [], []
        for position, start in enumerate(range(0, len(flat), width)):
            key = flat[start : start + width]
            row = index.get(key)
            if row is None:
                row = index[key] = len(index)
                fresh.append(position)
            rows.append(row)
        if fresh:
            unseen = genomes[fresh]
            self.table.append(unseen, *(yield unseen))
            trace.count("nsga.evaluations", len(fresh))
            trace.count("nsga.memoized", len(genomes) - len(fresh))
        rows = np.asarray(rows, dtype=np.int64)
        self._history.append(rows)
        return rows

    def _sample(self) -> np.ndarray:
        """The initial genome matrix, one :meth:`Problem.sample` per row."""
        return np.stack(
            [
                np.asarray(self.problem.sample(self.rng), dtype=np.int64)
                for _ in range(self.config.population)
            ]
        )

    def initial_population(self) -> list[Individual]:
        """A sampled, evaluated, unranked first generation."""
        return self.table.individuals(self.evaluate(self._sample()))

    def vary(self, genomes: np.ndarray, rank: np.ndarray, crowding: np.ndarray) -> np.ndarray:
        """Mating selection + crossover + mutation: the children's genome matrix.

        One generation's variation is a few whole-array steps over the
        parents' stacked genomes, ranks and crowding distances.  For N
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

        Evaluation never draws from the engine RNG.
        """
        size = len(genomes)
        if size < 2:
            raise ValueError(f"binary tournaments need a mating pool of two or more, got {size}")
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
        return np.asarray(children, dtype=np.int64)

    def make_offspring(self, population: list[Individual]) -> list[Individual]:
        """:meth:`vary` over ranked members, then the evaluated children."""
        children = self.vary(
            np.stack([ind.genome for ind in population]),
            np.asarray([ind.rank for ind in population]),
            np.asarray([ind.crowding for ind in population]),
        )
        return self.table.individuals(self.evaluate(children))

    # ----------------------------------------------------------------- loop
    def run(self) -> np.ndarray:
        """Full NSGA-II run over this engine's problem; returns the final
        population's table rows, in selection order."""
        return self._drive(self.steps())

    def steps(self) -> Generator[np.ndarray, tuple, np.ndarray]:
        """The full run, one step per generation: each yields its unseen
        genome matrix, if any, and is sent its :meth:`Problem.evaluate_batch`
        output; the generator returns the final population's rows.

        Offspring join the population, and :func:`select` keeps the next
        one with the rank and crowding it measured on the merged set.  The
        ``nsga.generation`` spans time sampling and variation only.
        """
        size = self.config.population
        with trace.span("nsga.generation", generation=0):
            genomes = self._sample()
        rows = yield from self._evaluated(genomes)
        rank, crowding = rank_rows(self.table.objectives[rows])
        for generation in range(1, self.config.generations):
            with trace.span("nsga.generation", generation=generation):
                children = self.vary(genomes, rank, crowding)
            rows = np.concatenate([rows, (yield from self._evaluated(children))])
            genomes = np.concatenate([genomes, children])
            survivors, rank, crowding = select(self.table.objectives[rows], size)
            rows, genomes = rows[survivors], genomes[survivors]
        return rows
