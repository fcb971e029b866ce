"""Inner Optimization Engine: NSGA-II over the joint (X, F) subspace.

Genome layout: ``[I_5 .. I_{L-1}, core_idx, emc_idx]`` — the paper's exit
indicator vector concatenated with the two DVFS genes.  Fitness is the
dynamic evaluation of paper eqs. 5–7, exposed to NSGA-II as the
maximisation vector

    ( mean_i N_i * dissim_i^gamma ,  energy gain ,  latency gain )

i.e. the accuracy-side component carries the dissimilarity regulariser (γ=0
switches it off — the Fig. 7 ablation), while the energy/latency components
are ideal-mapping savings relative to the backbone at default clocks.  The
scalar D of eq. 5 ranks the returned Pareto set (``best`` below).

A generation goes from its ``(N, G)`` genome matrix to one
:class:`~repro.eval.dynamic.DynamicGeneration` and back to the engine as
its objective matrix plus the block itself, which builds a row's
evaluation only when that row is asked for.  At the end of a run the
engine's evaluation table folds into a compact :class:`InnerResult`: the
Pareto members, the only rows built, each with a self-contained
evaluation; the distinct genomes with their objectives and the history's
row ids; and one matrix of every row's fig5 coordinates.  The table and
its blocks go with the engine.

Runs go in lockstep groups (:meth:`InnerEngine.run`; a solo run is a group
of one): each member keeps its own NSGA-II steps, RNG stream, table and
fold, and one population call per round evaluates every member's genomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from repro.accuracy.exit_model import BackboneExitOracle, ExitCapabilityModel
from repro.arch.config import BackboneConfig
from repro.eval.dynamic import DynamicEvaluation, DynamicEvaluator, DynamicGeneration
from repro.eval.static import StaticEvaluator
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement, ExitSpace, indicator_positions
from repro.hardware.dvfs import DvfsSetting, DvfsSpace
from repro.metrics.pareto import pareto_rows
from repro.obs import trace
from repro.search import operators
from repro.search.archive import ParetoArchive
from repro.search.individual import Individual
from repro.search.nsga2 import NSGA2, Nsga2Config, Problem
from repro.utils.rng import child_rng


@dataclass(eq=False)
class InnerResult:
    """Outcome of one IOE invocation for a single backbone, as data.

    ``pareto`` holds the run's Pareto members, each with an owned genome
    and a fully built :class:`DynamicEvaluation` that pins nothing.
    ``genomes`` (narrowest integer dtype of the problem's gene bounds) and
    ``objectives`` are the distinct (X, F) genomes the run evaluated, in
    evaluation order; ``history`` is the row of every genome of every
    generation, in order, and ``points`` each row's energy gain, mean N_i
    and dynamic accuracy.  :attr:`explored` rebuilds the history as
    payload-free :class:`Individual` objects when read.
    """

    backbone_key: str
    pareto: ParetoArchive
    genomes: np.ndarray
    objectives: np.ndarray
    history: np.ndarray
    points: np.ndarray
    num_evaluations: int = 0

    @classmethod
    def fold(cls, backbone_key: str, engine: NSGA2, dtype: np.dtype) -> InnerResult:
        """The compact result of a finished ``engine``; nothing in it
        refers to the engine's table or its generation blocks.  The table's
        rows are distinct genomes, so its Pareto rows are the archive of
        the whole history, and only they are built."""
        table = engine.table
        return cls(
            backbone_key=backbone_key,
            pareto=ParetoArchive(table.individuals(pareto_rows(table.objectives))),
            genomes=table.genomes.astype(dtype),
            objectives=table.objectives,
            history=engine.history_rows,
            points=np.concatenate([block.generation.points() for block in table.payloads]),
            num_evaluations=engine.num_evaluations,
        )

    @property
    def explored(self) -> list[Individual]:
        """Every evaluated candidate of the run, duplicates included, in order."""
        genomes = self.genomes.astype(np.int64)
        return [
            Individual(genomes[row], self.objectives[row].copy())
            for row in self.history.tolist()
        ]

    def evaluations(self) -> list[DynamicEvaluation]:
        """Dynamic evaluations of the Pareto members."""
        return [ind.payload["evaluation"] for ind in self.pareto]

    def points_2d(self, explored: bool = False, accuracy: str = "mean_n_i") -> np.ndarray:
        """(energy gain, accuracy-side) pairs — the paper's Fig. 5/7 axes.

        ``accuracy="mean_n_i"`` uses the average of the N_i values (Fig. 5
        bottom); ``accuracy="dynamic"`` uses the ideal-mapping union accuracy
        (the quantity the dissimilarity ablation improves).  ``explored``
        reads every history row's point, otherwise the Pareto members'.
        """
        column = {"mean_n_i": 1, "dynamic": 2}.get(accuracy)
        if column is None:
            raise ValueError(f"unknown accuracy axis {accuracy!r}")
        if explored:
            return self.points[self.history][:, [0, column]]
        rows = [(e.energy_gain, e.mean_n_i, e.dynamic_accuracy) for e in self.evaluations()]
        return np.array(rows).reshape(len(rows), 3)[:, [0, column]]

    @property
    def best(self) -> Individual:
        """Pareto member with the highest scalar D score (eq. 5)."""
        return self.pareto.best_by(lambda ind: ind.payload["evaluation"].d_score)


class _EvaluationPayloads:
    """The payload ``{"evaluation": row}`` of each row of a generation."""

    def __init__(self, generation: DynamicGeneration):
        self.generation = generation

    def __len__(self) -> int:
        return len(self.generation)

    def __getitem__(self, row: int) -> dict:
        return {"evaluation": self.generation[row]}


class _InnerProblem(Problem):
    """(X, F) genome handling + dynamic evaluation."""

    def __init__(
        self,
        exit_space: ExitSpace,
        dvfs_space: DvfsSpace,
        evaluator: DynamicEvaluator,
        exit_density: float = 0.3,
    ):
        self.exit_space = exit_space
        self.dvfs_space = dvfs_space
        self.evaluator = evaluator
        self.exit_density = exit_density
        self._dvfs_bounds = dvfs_space.gene_bounds()

    @property
    def num_slots(self) -> int:
        return self.exit_space.num_slots

    def split(self, genome: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(exit bits, DVFS genes) along the last axis."""
        return genome[..., : self.num_slots], genome[..., self.num_slots :]

    def decode(self, genome: np.ndarray):
        return self.decode_rows(np.asarray(genome)[None])[0]

    def decode_rows(self, genomes: np.ndarray) -> list[tuple[ExitPlacement, DvfsSetting]]:
        """(placement, setting) per row of an ``(N, G)`` genome matrix."""
        bits, dvfs = self.split(genomes)
        placements = ExitPlacement.from_indicator_rows(self.exit_space.total_layers, bits)
        return list(zip(placements, self.dvfs_space.decode_rows(dvfs)))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        placement = self.exit_space.sample(rng, density=self.exit_density)
        core = rng.integers(0, self._dvfs_bounds[0])
        emc = rng.integers(0, self._dvfs_bounds[1])
        return np.concatenate([placement.indicators, [core, emc]]).astype(np.int64)

    def evaluate_batch(self, genomes: np.ndarray):
        """A generation from its genome matrix to its objective matrix.

        The ``(N, G)`` genomes decode once (:func:`_decode`) and
        :meth:`DynamicEvaluator.evaluate_generation` runs them as one fused
        accuracy+cost kernel call.  The generation comes back as it is: its
        objective matrix, and its rows as payloads, built when asked for.
        """
        generation = self.evaluator.evaluate_generation(*_decode([self], [np.asarray(genomes)]))
        return generation.objectives, _EvaluationPayloads(generation)

    def crossover(self, a, b, rng):
        return operators.uniform_crossover(a, b, rng)

    def mutate(self, genomes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        bits, dvfs = self.split(genomes)
        bits = operators.bitflip_mutation(bits, rng, prob=1.5 / max(self.num_slots, 1))
        bits = self.exit_space.repair(bits, rng)
        dvfs = operators.creep_mutation(dvfs, self._dvfs_bounds, rng, prob=0.5)
        # Occasional long-range DVFS jump: 15 % of genomes resample both genes.
        jump = rng.random(dvfs.shape[:-1]) < 0.15
        if jump.any():
            dvfs[jump] = operators.reset_mutation(dvfs[jump], self._dvfs_bounds, rng, prob=1.0)
        return np.concatenate([bits, dvfs], axis=-1)


def _decode(
    problems: Sequence[_InnerProblem], blocks: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[DvfsSetting]]:
    """The ``(N, E_max)`` position matrix and the N settings of several
    problems' genome matrices, block after block: the indicator bits in one
    zero-padded bit matrix (padding adds no exit), the DVFS genes decoded
    at once."""
    trace.count("ioe.population_batches")
    trace.count("ioe.population_genomes", sum(map(len, blocks)))
    slots = max(problem.num_slots for problem in problems)
    bits = np.zeros((sum(map(len, blocks)), slots), dtype=np.int64)
    row, dvfs = 0, []
    for problem, genomes in zip(problems, blocks):
        block_bits, block_dvfs = problem.split(genomes)
        bits[row : row + len(genomes), : problem.num_slots] = block_bits
        dvfs.append(block_dvfs)
        row += len(genomes)
    positions, _ = indicator_positions(slots + MIN_EXIT_POSITION, bits)
    return positions, problems[0].dvfs_space.decode_rows(np.concatenate(dvfs))


def _advance(step: Generator, sent=None) -> np.ndarray | None:
    """The NSGA-II step's next unseen genomes, or None once it has ended."""
    try:
        return step.send(sent)
    except StopIteration:
        return None


def _lockstep(problems: Sequence[_InnerProblem], steps: Sequence[Generator]) -> None:
    """Drive joined members' NSGA-II steps to their ends, each round one
    population call over the unseen genomes of the members still running."""
    lead = problems[0].evaluator
    pending = {m: unseen for m, step in enumerate(steps) if (unseen := _advance(step)) is not None}
    while pending:
        members = list(pending)
        counts = [len(pending.get(m, ())) for m in range(len(steps))]
        positions, settings = _decode(
            [problems[m] for m in members], [pending[m] for m in members]
        )
        generations = lead.evaluate_generation(positions, settings, counts)
        for m in members:
            generation = generations[m]
            unseen = _advance(steps[m], (generation.objectives, _EvaluationPayloads(generation)))
            if unseen is None:
                del pending[m]
            else:
                pending[m] = unseen


class InnerEngine:
    """Runs the (X, F) co-search for one backbone b'.

    Parameters
    ----------
    config:
        The backbone (must expose >= 6 MBConv layers for any exit to fit).
    static_evaluator:
        Supplies the backbone cost profile and the E_b / L_b normalisers.
    backbone_accuracy_fraction:
        Static accuracy of b' in [0, 1] (drives the exit oracle).
    gamma:
        Dissimilarity exponent (0 disables — the Fig. 7 ablation).
    nsga:
        Budget: #iterations = population x generations (paper: 3500).

    The exit oracle builds its correctness columns in memory; a persistent
    cache, where there is one, stores the whole :class:`InnerResult`
    instead (see :meth:`repro.search.hadas.HadasSearch.inner_task`).
    """

    def __init__(
        self,
        config: BackboneConfig,
        static_evaluator: StaticEvaluator,
        backbone_accuracy_fraction: float,
        nsga: Nsga2Config | None = None,
        gamma: float = 1.0,
        literal_ratios: bool = False,
        capability_model: ExitCapabilityModel | None = None,
        oracle_samples: int = 2048,
        seed: int = 0,
    ):
        self.config = config
        self.nsga_config = nsga or Nsga2Config(population=20, generations=8)
        static = static_evaluator.evaluate(config)
        oracle = BackboneExitOracle(
            backbone_key=config.key,
            total_layers=config.total_mbconv_layers,
            backbone_accuracy=backbone_accuracy_fraction,
            model=capability_model,
            n_samples=oracle_samples,
            seed=seed,
        )
        self.evaluator = DynamicEvaluator(
            config=config,
            cost=static_evaluator.cost(config),
            oracle=oracle,
            energy_model=static_evaluator.hwil.model,  # one scalar memo per search
            baseline_energy_j=static.energy_j,
            baseline_latency_s=static.latency_s,
            gamma=gamma,
            literal_ratios=literal_ratios,
        )
        self.problem = _InnerProblem(
            exit_space=ExitSpace(config.total_mbconv_layers),
            dvfs_space=static_evaluator.dvfs_space,
            evaluator=self.evaluator,
        )
        self.seed = seed

    def run(
        self, alongside: Sequence[InnerEngine] | None = None
    ) -> InnerResult | list[InnerResult]:
        """Execute the NSGA-II loop and return the (X, F) Pareto set.

        With ``alongside`` (engines of this platform, γ, ratio mode and
        oracle sample count), the engines run as one lockstep group, this
        one first, and their results come back as a list in that order,
        each its solo run's.  Their evaluators stay joined.
        """
        engines = [self, *(alongside or ())]
        DynamicEvaluator.join([e.evaluator for e in engines])
        nsgas = [
            NSGA2(e.problem, e.nsga_config, rng=child_rng(e.seed, "ioe", e.config.key))
            for e in engines
        ]
        with trace.span("ioe.run", backbones=[e.config.key for e in engines]):
            _lockstep([e.problem for e in engines], [nsga.steps() for nsga in nsgas])
        # Genes are exit bits and DVFS indices below their bounds, and the
        # smallest signed dtype holding -bound holds every index.
        results = [
            InnerResult.fold(e.config.key, nsga, np.min_scalar_type(-max(e.problem._dvfs_bounds)))
            for e, nsga in zip(engines, nsgas)
        ]
        return results if alongside is not None else results[0]
