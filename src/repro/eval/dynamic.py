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

Score semantics: eq. 6 multiplies N_i by "normalized dynamic energy ...
relative to the backbone" terms.  Since the engines *maximise* D and the
paper's Fig. 5 reports energy-efficiency *gains*, the normalised terms are
implemented as savings, ``1 - E_{x_i,f}/E_b`` (clamped at 0) — an exit only
scores when it actually saves energy/latency.  Set
``literal_ratios=True`` to use the raw ratios instead (paper-literal
reading; documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.accuracy.exit_model import BackboneExitOracle
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
    # Memos keyed by (positions, core GHz, EMC GHz): one evaluator serves
    # one backbone, so the positions identify a placement.
    _eval_cache: dict[tuple, DynamicEvaluation] = field(default_factory=dict, repr=False)
    _objectives_cache: dict[tuple, tuple[float, float, float]] = field(
        default_factory=dict, repr=False
    )

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
        self.population = PopulationKernel(self.bank, self.branch_cost)

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
        plus one cached scalar bundle per traversed branch — no per-layer
        iteration at all once the bank's grid exists.  The grid is built
        with every legal exit branch's scalars in its single batched pass,
        so later placements never re-enter the timing kernel.
        """
        table = self.bank.table(setting)
        branches = [self.branch_cost(p) for p in positions]
        exit_energy, exit_latency = table.exit_path_costs(positions, branches)
        full_energy, full_latency = table.full_path_cost(positions, branches)
        return exit_energy, exit_latency, full_energy, full_latency

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
        placements: list[ExitPlacement],
        setting: DvfsSetting | Sequence[DvfsSetting],
    ) -> list[DynamicEvaluation]:
        """Evaluate N placements as one stacked kernel call.

        ``setting`` is one setting for every placement or a sequence of one
        per placement; rows may mix settings freely.  Bit-identical to
        ``[self.evaluate(p, s) for p, s in zip(placements, settings)]``
        (asserted by the population property tests and the bench): the
        stacked kernel performs exactly the per-placement elementwise work,
        and every reduction (usage-weighted dots, score means) runs per row
        on operand slices identical to the per-call arrays.  Shares
        :meth:`evaluate`'s cache — duplicates and previously seen
        (placement, setting) pairs cost a dict read, mixed call patterns
        stay coherent — and memoises each new row's IOE objective vector
        for :meth:`objectives`.
        """
        placements = list(placements)
        if isinstance(setting, DvfsSetting):
            settings = [setting] * len(placements)
        else:
            settings = list(setting)
        trace.count("dyneval.population_calls")
        trace.count("dyneval.population_rows", len(placements))
        cache = self._eval_cache
        keys = [
            (p.positions, s.core_ghz, s.emc_ghz) for p, s in zip(placements, settings)
        ]
        pending: dict[tuple, int] = {}
        for row, key in enumerate(keys):
            if key not in cache and key not in pending:
                pending[key] = row
        if pending:
            batch = [placements[row] for row in pending.values()]
            batch_settings = [settings[row] for row in pending.values()]
            fused = self.population.fused_batch(batch, batch_settings, self.oracle)
            evaluations, objectives = self._finalize_population(
                batch, fused.stats, fused.costs, batch_settings
            )
            cache.update(zip(pending, evaluations))
            self._objectives_cache.update(zip(pending, objectives))
        return [cache[key] for key in keys]

    def evaluate_generation(
        self, decoded: list[tuple[ExitPlacement, DvfsSetting]]
    ) -> list[DynamicEvaluation]:
        """Evaluate a mixed-setting generation in one population call.

        One eval-cache dedupe, one oracle pass over the distinct
        placements, one stacked cost gather with per-row settings and one
        finalisation (order-preserving results) — the entry point the
        NSGA-II/IOE batch hook and random search lower to.  Bit-identical to
        evaluating each (placement, setting) pair individually, since
        :meth:`evaluate_population` is.
        """
        trace.count("dyneval.generation_calls")
        trace.count("dyneval.generation_rows", len(decoded))
        return self.evaluate_population(
            [placement for placement, _ in decoded],
            [setting for _, setting in decoded],
        )

    def _finalize_population(
        self,
        placements: list[ExitPlacement],
        stats: PopulationExitStats,
        costs: PopulationPathCosts,
        settings: list[DvfsSetting],
    ) -> tuple[list[DynamicEvaluation], list[tuple[float, float, float]]]:
        """Stacked eq. 5–7 tail: ratios, clamps and scores as fixed-shape
        matrix ops; reductions per row (see :meth:`evaluate_population`).

        The accuracy matrices arrive pre-stacked from the oracle's
        population kernel — fused with the cost matrices here — and the
        per-row IOE objective vectors come out of the same pass (guarded
        stacked reductions), returned beside the evaluations so the caller
        memoises them and :meth:`objectives` never recomputes them."""
        exit_energy = costs.exit_energy_j
        exit_latency = costs.exit_latency_s
        energy_ratio = exit_energy / self.baseline_energy_j
        latency_ratio = exit_latency / self.baseline_latency_s
        if self.literal_ratios:
            energy_term = energy_ratio
            latency_term = latency_ratio
        else:
            energy_term = np.clip(1.0 - energy_ratio, 0.0, None)
            latency_term = np.clip(1.0 - latency_ratio, 0.0, None)
        n_i = stats.n_i
        dissim_pow = stats.dissimilarity**self.gamma
        scores = n_i * energy_term * latency_term * dissim_pow

        widths = costs.widths.tolist()
        full_energies = costs.full_energy_j.tolist()
        full_latencies = costs.full_latency_s.tolist()
        baseline_energy = self.baseline_energy_j
        baseline_latency = self.baseline_latency_s
        # d_score = scores[:width].mean() per row.  Below numpy's pairwise
        # 8-element unroll every row reduction is the strict left-to-right
        # sum ``mean`` performs, pad columns are exactly ±0.0 (n_i pads are
        # zero), and trailing ±0.0 adds are bitwise no-ops on the
        # non-negative scores — so one stacked reduction divided by the true
        # widths gives ``mean``'s bits for the whole batch.  At eight or
        # more columns the padded and unpadded accumulation orders can
        # differ, so fall back to per-row sums of the exact slices.
        if scores.shape[1] < 8:
            d_scores = (np.add.reduce(scores, axis=1) / costs.widths).tolist()
        else:
            d_scores = [
                float(np.add.reduce(scores[row, :widths[row]]) / widths[row])
                for row in range(len(widths))
            ]
        # One gather turns the padded matrices into flat concatenations of
        # the valid row prefixes; each evaluation's arrays are contiguous
        # slices of those buffers (read-only by convention, like
        # ``ExitEvaluation.dissimilarity``) — same values as per-row copies
        # without N allocations.  The frozen record is built via __new__ +
        # __dict__ (frozen dataclasses pay one guarded ``object.__setattr__``
        # per field in ``__init__``; this builds the identical object).
        valid = np.arange(scores.shape[1]) < costs.widths[:, None]
        flat_energy = exit_energy[valid]
        flat_latency = exit_latency[valid]
        flat_scores = scores[valid]
        bounds = np.concatenate(([0], np.cumsum(costs.widths))).tolist()
        new = DynamicEvaluation.__new__
        cls = DynamicEvaluation
        evaluations = []
        for row, (placement, setting, exit_stats) in enumerate(
            zip(placements, settings, stats.evaluations)
        ):
            start = bounds[row]
            end = bounds[row + 1]
            row_energy = flat_energy[start:end]
            row_latency = flat_latency[start:end]
            full_energy = full_energies[row]
            full_latency = full_latencies[row]
            head, tail = exit_stats.usage_split
            dynamic_energy = float(head @ row_energy + tail * full_energy)
            dynamic_latency = float(head @ row_latency + tail * full_latency)
            evaluation = new(cls)
            evaluation.__dict__.update({
                "placement": placement,
                "setting": setting,
                "exit_stats": exit_stats,
                "exit_energy_j": row_energy,
                "exit_latency_s": row_latency,
                "dynamic_energy_j": dynamic_energy,
                "dynamic_latency_s": dynamic_latency,
                "energy_gain": 1.0 - dynamic_energy / baseline_energy,
                "latency_gain": 1.0 - dynamic_latency / baseline_latency,
                "scores": flat_scores[start:end],
                "d_score": d_scores[row],
            })
            evaluations.append(evaluation)
        objectives = self._fused_objectives(
            n_i, dissim_pow, energy_term, latency_term, costs
        )
        return evaluations, objectives

    def _fused_objectives(
        self,
        n_i: np.ndarray,
        dissim_pow: np.ndarray,
        energy_term: np.ndarray,
        latency_term: np.ndarray,
        costs: PopulationPathCosts,
    ) -> list[tuple[float, float, float]]:
        """Per-row IOE objective vectors as stacked guarded reductions.

        Each component is a per-exit mean over the row's valid slice (see
        :meth:`objectives`).  The accuracy operand's pads are exactly +0.0
        (``n_i`` pads are zero), but the energy/latency savings terms are
        ``clip(1 - 0/E_b) = 1.0`` at pad columns — the cost kernel's padded
        exit costs gather 0 — so those operands are explicitly zeroed by
        the width mask before reducing.  The same < 8-column guard as the
        d_score reduction keeps every quotient bit-identical to
        ``np.mean`` over the exact row slice.
        """
        widths = costs.widths
        acc = n_i * dissim_pow
        valid = np.arange(acc.shape[1]) < widths[:, None]
        energy_masked = np.where(valid, energy_term, 0.0)
        latency_masked = np.where(valid, latency_term, 0.0)
        if acc.shape[1] < 8:
            d_acc = (np.add.reduce(acc, axis=1) / widths).tolist()
            d_energy = (np.add.reduce(energy_masked, axis=1) / widths).tolist()
            d_latency = (np.add.reduce(latency_masked, axis=1) / widths).tolist()
        else:
            width_list = widths.tolist()
            d_acc = [
                float(np.add.reduce(acc[row, :w]) / w)
                for row, w in enumerate(width_list)
            ]
            d_energy = [
                float(np.add.reduce(energy_masked[row, :w]) / w)
                for row, w in enumerate(width_list)
            ]
            d_latency = [
                float(np.add.reduce(latency_masked[row, :w]) / w)
                for row, w in enumerate(width_list)
            ]
        return list(zip(d_acc, d_energy, d_latency))

    def objectives(self, evaluation: DynamicEvaluation) -> tuple[float, float, float]:
        """IOE maximisation vector for one evaluation (paper eqs. 5-6).

        All three components are *per-exit proxy averages*, exactly as the
        paper's D formulation: the accuracy side folds the dissimilarity
        regulariser in (mean of N_i * dissim_i^gamma), and the energy/
        latency sides average the per-exit normalised savings.  None of them
        is an ideal-mapping aggregate — which is precisely why, without the
        dissimilarity term, the search degenerates to clustered exits (the
        proxies do not punish redundancy; the paper's Fig. 7 ablation shows
        the same failure).  Deployment metrics (``energy_gain`` etc.) are
        still the physical ideal-mapping aggregates.

        Population evaluations memoise the vector inside the fused
        finalisation, so the search hot path lands on a dict read; a miss
        (per-placement :meth:`evaluate` callers) computes it with
        :meth:`_scalar_objectives` and fills the memo.
        """
        key = (
            evaluation.placement.positions,
            evaluation.setting.core_ghz,
            evaluation.setting.emc_ghz,
        )
        cached = self._objectives_cache.get(key)
        if cached is None:
            cached = self._objectives_cache[key] = self._scalar_objectives(evaluation)
        return cached

    def _scalar_objectives(
        self, evaluation: DynamicEvaluation
    ) -> tuple[float, float, float]:
        """:meth:`objectives` from one evaluation's arrays (per-exit means);
        the fused reductions reproduce it bit for bit."""
        stats = evaluation.exit_stats
        dissim = stats.dissimilarity**self.gamma
        d_acc = float(np.mean(stats.n_i * dissim))
        energy_ratio = evaluation.exit_energy_j / self.baseline_energy_j
        latency_ratio = evaluation.exit_latency_s / self.baseline_latency_s
        if self.literal_ratios:
            d_energy = float(np.mean(energy_ratio))
            d_latency = float(np.mean(latency_ratio))
        else:
            d_energy = float(np.mean(np.clip(1.0 - energy_ratio, 0.0, None)))
            d_latency = float(np.mean(np.clip(1.0 - latency_ratio, 0.0, None)))
        return d_acc, d_energy, d_latency
