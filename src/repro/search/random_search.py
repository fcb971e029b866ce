"""Random-search baseline over any :class:`~repro.search.nsga2.Problem`.

NAS papers are expected to beat random search at equal budget; this engine
provides that comparison for both HADAS levels (bench_ablations exercises
it).  It shares the Problem interface and produces the same artefacts
(history + Pareto archive), so results are directly comparable with NSGA-II.
"""

from __future__ import annotations

import numpy as np

from repro.search.archive import ParetoArchive
from repro.search.individual import Individual
from repro.search.nsga2 import Problem, rank_and_crowd
from repro.utils.rng import make_rng


class RandomSearch:
    """Uniform random sampling at a fixed evaluation budget."""

    def __init__(self, problem: Problem, budget: int, rng=None):
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.problem = problem
        self.budget = budget
        self.rng = make_rng(rng)
        self.history: list[Individual] = []
        self.num_evaluations = 0
        self._seen: set[tuple] = set()

    def run(self) -> list[Individual]:
        """Sample/evaluate until the budget is consumed; returns history.

        Duplicate genomes are re-sampled (up to a bounded number of retries)
        so the budget buys distinct evaluations, mirroring the NSGA-II
        engine's evaluation cache.
        """
        genomes: list[np.ndarray] = []
        # Only the unspent budget is sampled, so a repeated run() remains a
        # no-op (as with the pre-batching evaluate-as-you-go loop).
        while len(genomes) < self.budget - self.num_evaluations:
            genome = np.asarray(self.problem.sample(self.rng), dtype=np.int64)
            key = tuple(genome.tolist())
            retries = 0
            while key in self._seen and retries < 10:
                genome = np.asarray(self.problem.sample(self.rng), dtype=np.int64)
                key = tuple(genome.tolist())
                retries += 1
            self._seen.add(key)
            genomes.append(genome)
        # The whole budget lands in the problem's batch hook — for the IOE
        # problem that is one fused accuracy+cost kernel call.
        if genomes:
            objectives, payloads = self.problem.evaluate_batch(np.stack(genomes))
            for row, genome in enumerate(genomes):
                self.history.append(
                    Individual(genome=genome, objectives=objectives[row], payload=payloads[row])
                )
            self.num_evaluations += len(genomes)
        rank_and_crowd(self.history)
        return self.history

    def pareto(self) -> ParetoArchive:
        """Non-dominated subset of everything sampled."""
        return ParetoArchive(self.history)
