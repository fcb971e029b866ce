"""Dynamic evaluation D(x, f | b): paper eqs. 5–7.

Given a backbone, an exit placement x and a DVFS setting f, this evaluator
computes:

* per-exit N_i and ideal-mapping usage fractions (from the exit oracle);
* the early-exit execution costs E_{x_i,f}, L_{x_i,f} — the backbone prefix
  up to the exit *plus every earlier exit branch* (rejected inputs pay for
  the branches they traversed);
* expected dynamic energy/latency of the DyNN under ideal mapping, and the
  corresponding gains over the backbone at default clocks;
* per-exit scores (eq. 6) and the aggregate D (eq. 5).

A population call returns a :class:`DynamicGeneration`, plain arrays for
every row; indexing it builds that one row's :class:`DynamicEvaluation`,
with arrays of its own; a call over a joined group of evaluators
(:meth:`DynamicEvaluator.join`) returns one generation per member.

Score semantics: eq. 6 multiplies N_i by "normalized dynamic energy ...
relative to the backbone" terms.  Since the engines *maximise* D and the
paper's Fig. 5 reports energy-efficiency *gains*, the normalised terms are
implemented as savings, ``1 - E_{x_i,f}/E_b`` (clamped at 0) — an exit only
scores when it actually saves energy/latency.  Set
``literal_ratios=True`` to use the raw ratios instead (paper-literal
reading; documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from repro.accuracy.exit_model import BackboneExitOracle, ColumnBank
from repro.arch.config import BackboneConfig
from repro.arch.cost import LayerCost, NetworkCost, exit_branch_cost
from repro.exits.evaluation import ExitEvaluation, PopulationExitStats
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement
from repro.hardware.cost_table import CostTableBank
from repro.hardware.dvfs import DvfsSetting
from repro.hardware.energy import EnergyModel
from repro.hardware.population_kernel import PopulationKernel, PopulationPathCosts
from repro.obs import trace
from repro.utils.validation import check_nonneg


@dataclass(frozen=True)
class DynamicEvaluation:
    """Full D-side evaluation of one (x, f | b) candidate."""

    placement: ExitPlacement
    setting: DvfsSetting
    exit_stats: ExitEvaluation
    exit_energy_j: np.ndarray  # E_{x_i,f} per exit
    exit_latency_s: np.ndarray  # L_{x_i,f} per exit
    dynamic_energy_j: float  # expected energy under ideal mapping
    dynamic_latency_s: float
    energy_gain: float  # 1 - E_dyn / E_b(default)
    latency_gain: float
    scores: np.ndarray  # eq. 6 per exit
    d_score: float  # eq. 5 aggregate

    @property
    def mean_n_i(self) -> float:
        return self.exit_stats.mean_n_i

    @property
    def dynamic_accuracy(self) -> float:
        """Union accuracy (fraction) under ideal mapping."""
        return self.exit_stats.dynamic_accuracy


class DynamicGeneration:
    """N evaluated (placement, setting) rows of D(x, f | b) as plain arrays.

    What :meth:`DynamicEvaluator.evaluate_population` returns: the stacked
    accuracy statistics and path costs of the population, the ``(N, E_max)``
    eq. 6 score matrix, the ``(N,)`` eq. 5 ``d_scores``, the ``(N,)``
    ``mean_n_i`` row and the ``(N, 3)`` IOE ``objectives`` matrix.  It
    reads as a sequence of :class:`DynamicEvaluation` rows; ``self[i]``
    builds row ``i`` with arrays of its own, so a search pays for the rows
    it asks for (archive members) and not for every candidate;
    :meth:`points` gives every row's fig5 coordinates without building
    any.  The block holds only arrays, settings and floats — no evaluator,
    oracle or cost bank.

    ``objectives`` row ``i`` is the IOE maximisation vector of candidate
    ``i`` (paper eqs. 5-6).  All three components are *per-exit proxy
    averages*, exactly as the paper's D formulation: the accuracy side
    folds the dissimilarity regulariser in (mean of N_i * dissim_i^gamma),
    and the energy/latency sides average the per-exit normalised savings.
    None of them is an ideal-mapping aggregate — which is precisely why,
    without the dissimilarity term, the search degenerates to clustered
    exits (the proxies do not punish redundancy; the paper's Fig. 7
    ablation shows the same failure).  Deployment metrics
    (``energy_gain`` etc.) are still the physical ideal-mapping
    aggregates.
    """

    def __init__(
        self,
        total_layers: int,
        settings: list[DvfsSetting],
        stats: PopulationExitStats,
        costs: PopulationPathCosts,
        scores: np.ndarray,
        d_scores: np.ndarray,
        mean_n_i: np.ndarray,
        objectives: np.ndarray,
        baseline_energy_j: float,
        baseline_latency_s: float,
    ):
        self.total_layers = total_layers
        self.settings = settings
        self.stats = stats
        self.costs = costs
        self.scores = scores
        self.d_scores = d_scores
        self.mean_n_i = mean_n_i
        self.objectives = objectives
        self.baseline_energy_j = baseline_energy_j
        self.baseline_latency_s = baseline_latency_s

    def __len__(self) -> int:
        return len(self.settings)

    def __getitem__(self, row: int) -> DynamicEvaluation:
        """Row ``row`` as a built :class:`DynamicEvaluation` that pins no
        array of the block.

        The usage-weighted dots run per row on the row's valid slices, the
        operands :meth:`DynamicEvaluator.evaluate` dots, so every scalar is
        bit-identical to the per-pair call; the stored arrays are copies.
        The owned :class:`ExitEvaluation` holds its four fields only (its
        cached properties fill on first read), so pickles stay small.
        """
        row = range(len(self.settings))[row]
        stats, costs = self.stats, self.costs
        width = int(stats.widths[row])
        view = stats[row]
        exit_energy = costs.exit_energy_j[row, :width]
        exit_latency = costs.exit_latency_s[row, :width]
        head, tail = view.usage_split
        dynamic_energy = float(head @ exit_energy + tail * float(costs.full_energy_j[row]))
        dynamic_latency = float(head @ exit_latency + tail * float(costs.full_latency_s[row]))
        return DynamicEvaluation(
            placement=ExitPlacement.unchecked(
                self.total_layers, tuple(stats.positions[row, :width].tolist())
            ),
            setting=self.settings[row],
            exit_stats=ExitEvaluation(
                view.n_i.copy(), view.final_accuracy, view.dynamic_accuracy, view.usage
            ),
            exit_energy_j=exit_energy.copy(),
            exit_latency_s=exit_latency.copy(),
            dynamic_energy_j=dynamic_energy,
            dynamic_latency_s=dynamic_latency,
            energy_gain=1.0 - dynamic_energy / self.baseline_energy_j,
            latency_gain=1.0 - dynamic_latency / self.baseline_latency_s,
            scores=self.scores[row, :width].copy(),
            d_score=float(self.d_scores[row]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self.settings)))

    def points(self) -> np.ndarray:
        """``(N, 3)`` ``energy_gain``, ``mean_n_i`` and ``dynamic_accuracy``
        of every row, bit-identical to the built rows: one dot per row over
        the operands :meth:`__getitem__` dots, the rest elementwise."""
        stats, costs = self.stats, self.costs
        rows = zip(stats.usage_head, costs.exit_energy_j, stats.widths.tolist())
        dots = np.array([head[:width].dot(energy[:width]) for head, energy, width in rows])
        dynamic_energy = dots + stats.usage_tail * costs.full_energy_j
        return np.column_stack(
            (1.0 - dynamic_energy / self.baseline_energy_j, self.mean_n_i, stats.dynamic_accuracy)
        )


@dataclass
class DynamicEvaluator:
    """Evaluates D(x, f | b) for one backbone on one platform.

    Parameters
    ----------
    config:
        The backbone b'.
    cost:
        Its per-layer cost profile.
    oracle:
        Per-backbone exit-correctness oracle (surrogate or trained).
    energy_model:
        Platform energy model.
    baseline_energy_j, baseline_latency_s:
        E_b, L_b — the backbone at *default* clocks (from the static
        evaluation), the normalisers of eq. 6.
    gamma:
        The dissimilarity trade-off exponent γ (0 disables the regulariser —
        the paper's Fig. 7 ablation).
    literal_ratios:
        Use eq. 6's ratios verbatim instead of savings (see module note).
    """

    config: BackboneConfig
    cost: NetworkCost
    oracle: BackboneExitOracle
    energy_model: EnergyModel
    baseline_energy_j: float
    baseline_latency_s: float
    gamma: float = 1.0
    literal_ratios: bool = False
    _branch_cache: dict[int, LayerCost] = field(default_factory=dict, repr=False)
    # :meth:`evaluate`'s memo, keyed by (positions, core GHz, EMC GHz): one
    # evaluator serves one backbone, so the positions identify a placement.
    _eval_cache: dict[tuple, DynamicEvaluation] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        check_nonneg("gamma", self.gamma)
        self._channels = {
            spec.index: (spec.out_channels, spec.out_resolution)
            for spec in self.config.layers()
            if spec.kind == "mbconv"
        }
        # One bank per evaluator = one bank per inner run: its stacked grid
        # holds every DVFS setting's cost table, built in one pass on first
        # use together with every legal exit branch the provider names.
        self.bank = CostTableBank(
            self.energy_model, self.cost, branch_provider=self._branch_items
        )
        DynamicEvaluator.join([self])

    @staticmethod
    def join(evaluators: Sequence[DynamicEvaluator]) -> None:
        """Make ``evaluators`` one group, in this order, that any member
        evaluates in one call (``counts`` of :meth:`evaluate_population`):
        one :class:`PopulationKernel` over their cost banks, one
        :class:`~repro.accuracy.exit_model.ColumnBank` over their oracles.
        Every evaluator starts as a group of one.  Members must share a
        platform, an oracle sample count, γ and the ratio mode."""
        if len({(e.gamma, e.literal_ratios) for e in evaluators}) > 1:
            raise ValueError("joined evaluators must share gamma and literal_ratios")
        kernel = PopulationKernel(*(e.bank for e in evaluators))
        ColumnBank([e.oracle for e in evaluators])
        # Per member: what its generations carry, and its normalisers by row.
        members = [(e.oracle.total_layers, e.baseline_energy_j, e.baseline_latency_s)
                   for e in evaluators]
        baselines = np.array([member[1:] for member in members]).T
        for evaluator in evaluators:
            evaluator.population = kernel
            evaluator._members, evaluator._baselines = members, baselines

    def _branch_items(self) -> list[tuple[int, LayerCost]]:
        """(position, branch cost) for every legal exit position."""
        return [
            (p, self.branch_cost(p))
            for p in sorted(self._channels)
            if p >= MIN_EXIT_POSITION
        ]

    def branch_cost(self, position: int) -> LayerCost:
        """Cost profile of the exit branch attached at ``position``."""
        if position not in self._branch_cache:
            channels, resolution = self._channels[position]
            self._branch_cache[position] = exit_branch_cost(
                channels, resolution, self.config.num_classes
            )
        return self._branch_cache[position]

    def _path_costs(self, positions: tuple[int, ...], setting: DvfsSetting):
        """Vectorized per-exit and full-path costs from the table bank.

        O(exits) array work: cumulative-sum gathers at the prefix indices
        plus one precomputed scalar bundle per traversed branch — no
        per-layer iteration at all once the bank's grid exists.  The grid is
        built with every legal exit branch's scalars in its single batched
        pass, so later placements never re-enter the timing kernel.
        """
        energy, latency = self.bank.table(setting).path_costs(positions)
        return energy[:-1], latency[:-1], float(energy[-1]), float(latency[-1])

    def evaluate(self, placement: ExitPlacement, setting: DvfsSetting) -> DynamicEvaluation:
        """Full dynamic evaluation of (x, f | b) (cached)."""
        key = (placement.positions, setting.core_ghz, setting.emc_ghz)
        if key in self._eval_cache:
            trace.count("dyneval.memo_hits")
            return self._eval_cache[key]
        trace.count("dyneval.evaluations")

        stats = self.oracle.evaluate_placement(placement)
        exit_energy, exit_latency, full_energy, full_latency = self._path_costs(
            placement.positions, setting
        )

        usage = stats.usage
        dynamic_energy = float(usage[:-1] @ exit_energy + usage[-1] * full_energy)
        dynamic_latency = float(usage[:-1] @ exit_latency + usage[-1] * full_latency)

        energy_ratio = exit_energy / self.baseline_energy_j
        latency_ratio = exit_latency / self.baseline_latency_s
        if self.literal_ratios:
            energy_term = energy_ratio
            latency_term = latency_ratio
        else:
            energy_term = np.clip(1.0 - energy_ratio, 0.0, None)
            latency_term = np.clip(1.0 - latency_ratio, 0.0, None)
        dissim = stats.dissimilarity
        scores = stats.n_i * energy_term * latency_term * dissim**self.gamma

        evaluation = DynamicEvaluation(
            placement=placement,
            setting=setting,
            exit_stats=stats,
            exit_energy_j=exit_energy,
            exit_latency_s=exit_latency,
            dynamic_energy_j=dynamic_energy,
            dynamic_latency_s=dynamic_latency,
            energy_gain=float(1.0 - dynamic_energy / self.baseline_energy_j),
            latency_gain=float(1.0 - dynamic_latency / self.baseline_latency_s),
            scores=scores,
            d_score=float(scores.mean()),
        )
        self._eval_cache[key] = evaluation
        return evaluation

    def evaluate_population(
        self,
        placements: Sequence[ExitPlacement] | np.ndarray,
        setting: DvfsSetting | Sequence[DvfsSetting],
        counts: Sequence[int] | None = None,
    ) -> DynamicGeneration | list[DynamicGeneration]:
        """Evaluate N placements as one stacked kernel call.

        ``placements`` is a sequence of :class:`ExitPlacement` or an
        ``(N, E_max)`` position matrix in the
        :func:`~repro.exits.placement.position_matrix` layout; ``setting``
        is one setting for every placement or a sequence of one per
        placement, so rows may mix settings freely.  Every row is this
        evaluator's and one :class:`DynamicGeneration` comes back, unless
        ``counts`` (one per member of its group, see :meth:`join`) hands
        the first ``counts[0]`` rows to member 0, the next to member 1 and
        so on; then one generation per member comes back.

        Row ``i`` of a generation is bit-identical to its member's
        ``evaluate(placements[i], settings[i])`` and its objective row to
        the per-exit means of that evaluation's arrays (asserted by the
        population property tests and the bench): the stacked kernel
        performs exactly the per-placement elementwise work, each row is
        normalised by its own member's E_b and L_b, and every reduction
        runs on each row's exact valid slice (see :meth:`_row_means`).
        Every row is computed, duplicates included; :meth:`evaluate`'s memo
        is neither read nor filled.
        """
        count = len(placements)
        if isinstance(setting, DvfsSetting):
            settings = [setting] * count
        else:
            settings = list(setting)
        own = self.oracle.member
        sizes = [count * (m == own) for m in range(len(self._members))] if counts is None else counts
        members = np.repeat(np.arange(len(sizes)), sizes)
        edges = np.cumsum([0, *sizes]).tolist()
        trace.count("dyneval.population_calls")
        trace.count("dyneval.population_rows", count)
        stats, costs = self.population.fused_batch(placements, settings, self.oracle, members)

        baseline_energy, baseline_latency = self._baselines[:, members, None]
        energy_ratio = costs.exit_energy_j / baseline_energy
        latency_ratio = costs.exit_latency_s / baseline_latency
        if self.literal_ratios:
            energy_term = energy_ratio
            latency_term = latency_ratio
        else:
            energy_term = np.clip(1.0 - energy_ratio, 0.0, None)
            latency_term = np.clip(1.0 - latency_ratio, 0.0, None)
        dissim_pow = stats.dissimilarity**self.gamma
        scores = stats.n_i * energy_term * latency_term * dissim_pow
        # Per-exit operands of the three IOE objectives (see
        # DynamicGeneration), of eq. 5's d_score and of mean N_i, reduced
        # together.
        means = self._row_means(
            np.stack((stats.n_i * dissim_pow, energy_term, latency_term, scores, stats.n_i)),
            stats.widths,
        )
        generations = [
            DynamicGeneration(
                total_layers,
                settings[lo:hi],
                _rows(stats, lo, hi),
                _rows(costs, lo, hi),
                scores[lo:hi],
                means[3, lo:hi].copy(),  # owned: a view would pin all of ``means``
                means[4, lo:hi].copy(),
                np.ascontiguousarray(means[:3, lo:hi].T),
                *baselines,
            )
            for (total_layers, *baselines), lo, hi in zip(self._members, edges, edges[1:])
        ]
        return generations if counts is not None else generations[own]

    def evaluate_generation(
        self,
        positions: np.ndarray,
        settings: Sequence[DvfsSetting],
        counts: Sequence[int] | None = None,
    ) -> DynamicGeneration | list[DynamicGeneration]:
        """Evaluate one search generation in one population call.

        ``positions`` is the generation's ``(N, E_max)`` position matrix
        (:func:`~repro.exits.placement.indicator_positions` of its genome
        bits) and ``settings`` one setting per row — the entry point the
        NSGA-II/IOE batch hook (a lockstep round, with ``counts``) and
        random search lower to.  One oracle sweep, one stacked cost gather
        with per-row settings and one array tail; see
        :meth:`evaluate_population`.
        """
        trace.count("dyneval.generation_calls")
        trace.count("dyneval.generation_rows", len(positions))
        return self.evaluate_population(positions, settings, counts)

    def _row_means(self, per_exit: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """``(K, N)`` means of ``(K, N, E_max)`` per-exit operands, row
        ``n`` over its first ``widths[n]`` columns.

        One reduction per distinct width: ``np.add.reduce(M[rows, :w],
        axis=-1) / w`` sums each row's contiguous ``w`` elements in the
        same pairwise order ``np.mean`` uses on the 1-D slice, then divides
        by the same count — bit-identical to ``np.mean`` of every row
        slice, with no pad column entering any sum.  A row with no exit
        sums nothing and reads 0.0, as :attr:`ExitEvaluation.mean_n_i` does.
        """
        means = np.empty(per_exit.shape[:2])
        for width in np.flatnonzero(np.bincount(widths)).tolist():  # np.unique loads numpy.ma
            rows = np.flatnonzero(widths == width)
            means[:, rows] = np.add.reduce(per_exit[:, rows, :width], axis=-1) / max(width, 1)
        return means


def _rows(block, lo: int, hi: int):
    """A stacked dataclass of row-aligned arrays, restricted to rows ``lo:hi``."""
    return type(block)(**{f.name: getattr(block, f.name)[lo:hi] for f in fields(block)})
