"""Exit-capability oracle: per-exit correctness without GPU training.

Model (DESIGN.md §1): every sample carries a Beta-distributed difficulty; a
head at relative depth ``u`` with capability ``cap`` classifies correctly the
``cap`` fraction of samples with the lowest *perceived* difficulty

    score_n(u) = difficulty_n - eta_n(u)

where ``eta_n`` is a per-sample smooth Gaussian-process perturbation over
depth.  The GP is the load-bearing choice: heads at *nearby* depths see
almost identical perturbations (their errors are highly correlated — an
exit adjacent to another is redundant), while heads far apart decorrelate
(a spread of exits catches samples the final classifier misses).  This is
precisely the behaviour the paper's dissimilarity regulariser (eq. 7)
exploits: clustered exits waste branches without extending coverage.

Capability grows with depth as ``cap(u) = acc * head_quality * maturity(u)``
with saturating maturity — diminishing returns per extra layer.  Marginals
are exact (an exit of capability c classifies exactly a fraction c), so the
oracle's N_i and final accuracy line up with the accuracy surrogate.

A :class:`BackboneExitOracle` caches one correctness column per position, so
the inner engine's thousands of placement evaluations per backbone reuse the
same columns — and exits at the same position are identical across
placements, which keeps the dissimilarity signal consistent.  Statistics
sweep a :class:`ColumnBank` of those columns packed into ``uint64`` words:
per exit level, a few bitwise ops and row popcounts over the whole batch,
or over one placement's rows, of one or several backbones' oracles.

Columns are a pure function of the oracle's fields and live in memory only:
the Monte-Carlo population is drawn in ``__init__`` either way, and with it
a column costs tens of microseconds to build — less than reading a stored
copy back from the persistent result cache, let alone writing one.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.data.difficulty import DifficultyDistribution
from repro.exits.evaluation import (
    ExitEvaluation,
    PopulationExitStats,
    population_dissimilarity,
)
from repro.exits.placement import ExitPlacement, position_matrix
from repro.obs import trace
from repro.utils.rng import child_rng
from repro.utils.validation import check_positive, check_probability

#: Bits set per byte value — the popcount table the packed ideal-mapping
#: statistics use.  Counting set bits is exact integer work, so the packed
#: path reproduces the boolean-matrix statistics bit for bit.
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.intp
)


def _popcount_rows_table(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a C-contiguous 2-D ``uint64`` array (byte table)."""
    return _POPCOUNT[words.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _popcount_rows_native(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


#: Row popcount: ``np.bitwise_count`` on numpy >= 2, else the byte table.
popcount_rows = (
    _popcount_rows_native if hasattr(np, "bitwise_count") else _popcount_rows_table
)


@dataclass(frozen=True)
class ExitCapabilityModel:
    """Parameters of the capability model.

    Attributes
    ----------
    maturity_k:
        Saturation rate of feature maturity vs relative depth.
    head_quality:
        Capability of the fixed exit head relative to the full final head.
    idiosyncratic_sigma:
        Std-dev of the per-(depth, sample) GP perturbation in difficulty
        units; controls how much *spread* exits can extend coverage (the
        union/EEx accuracy gain).
    correlation_length:
        Length scale (in relative depth) of the GP: heads closer than this
        are nearly redundant.
    """

    maturity_k: float = 2.5
    head_quality: float = 0.965
    idiosyncratic_sigma: float = 0.18
    correlation_length: float = 0.18
    num_basis: int = 9

    def __post_init__(self):
        check_positive("maturity_k", self.maturity_k)
        check_probability("head_quality", self.head_quality)
        check_positive("idiosyncratic_sigma", self.idiosyncratic_sigma)
        check_positive("correlation_length", self.correlation_length)
        check_positive("num_basis", self.num_basis)

    def maturity(self, u: float | np.ndarray) -> float | np.ndarray:
        """Feature maturity at relative depth ``u`` in (0, 1]."""
        return (1.0 - np.exp(-self.maturity_k * np.asarray(u))) / (
            1.0 - math.exp(-self.maturity_k)
        )

    def capability(self, backbone_accuracy: float, u: float | np.ndarray):
        """Marginal correct fraction a head at depth ``u`` can reach."""
        check_probability("backbone_accuracy", backbone_accuracy)
        return backbone_accuracy * self.head_quality * self.maturity(u)

    @cached_property
    def _centers(self) -> np.ndarray:
        """RBF centers, computed once — ``basis`` runs thousands of times per
        oracle, and re-allocating the linspace dominated its cost.  (A
        ``cached_property`` writes straight into ``__dict__``, which the
        frozen dataclass permits; cache keys serialise dataclass *fields*
        only, so the cached array never leaks into content addresses.)"""
        return np.linspace(0.0, 1.0, self.num_basis)

    def basis(self, u: float) -> np.ndarray:
        """Unit-norm RBF feature vector of depth ``u`` (GP weights)."""
        phi = np.exp(-((u - self._centers) ** 2) / (2.0 * self.correlation_length**2))
        return phi / np.linalg.norm(phi)

    def basis_matrix(self, us: np.ndarray) -> np.ndarray:
        """Stacked basis vectors; row ``i`` equals ``basis(us[i])`` bit for bit.

        The Gaussian features are one broadcast op; the norms stay per-row
        :func:`np.linalg.norm` calls because a matrix-axis norm reduces in a
        different summation order (ULP drift) — and the rows are few while
        the samples are thousands, so nothing is lost.
        """
        us = np.asarray(us, dtype=float)
        phi = np.exp(
            -((us[:, None] - self._centers[None, :]) ** 2)
            / (2.0 * self.correlation_length**2)
        )
        norms = np.fromiter(
            (np.linalg.norm(row) for row in phi), dtype=np.float64, count=len(phi)
        )
        return phi / norms[:, None]

    def head_correlation(self, u1: float, u2: float) -> float:
        """Error-perturbation correlation between heads at two depths."""
        return float(self.basis(u1) @ self.basis(u2))


class BackboneExitOracle:
    """Per-backbone, in-memory cache of simulated exit-correctness columns.

    Each column is built from the Monte-Carlo population the constructor
    draws, the first time it is asked for, and never persisted.

    Parameters
    ----------
    backbone_key:
        Stable identity of the backbone (keys the random streams).
    total_layers:
        Σ l_i of the backbone — defines relative depths.
    backbone_accuracy:
        Static accuracy fraction from the accuracy surrogate.
    model, difficulty:
        Capability model and sample-difficulty distribution.
    n_samples:
        Monte-Carlo population size (2048 keeps N_i std below 1 point).

    :meth:`evaluate_placement` memoises one :class:`ExitEvaluation` per
    placement in a plain dict.  Its callers (the scalar dynamic evaluation
    and the runtime DVFS planner) see a few placements per backbone;
    populations and grid sweeps go through :meth:`evaluate_placements`,
    which never touches the memo.
    """

    def __init__(
        self,
        backbone_key: str,
        total_layers: int,
        backbone_accuracy: float,
        model: ExitCapabilityModel | None = None,
        difficulty: DifficultyDistribution | None = None,
        n_samples: int = 2048,
        seed: int = 0,
    ):
        check_probability("backbone_accuracy", backbone_accuracy)
        check_positive("n_samples", n_samples)
        self.backbone_key = backbone_key
        self.total_layers = total_layers
        self.backbone_accuracy = backbone_accuracy
        self.model = model or ExitCapabilityModel()
        self.difficulty = difficulty or DifficultyDistribution()
        self.n_samples = n_samples
        self.seed = seed
        rng = child_rng(seed, "difficulties", backbone_key)
        self._difficulties = self.difficulty.sample(n_samples, rng)
        gp_rng = child_rng(seed, "exit-gp", backbone_key)
        self._latent = gp_rng.normal(0.0, 1.0, size=(n_samples, self.model.num_basis))
        self._columns: dict[int | str, np.ndarray] = {}
        self._stats: dict[tuple[int, ...], ExitEvaluation] = {}
        # This oracle's block of a column bank (its own until joined).
        ColumnBank([self])
        #: Column-resolution counters (column requests by outcome): how many
        #: were already in memory and how many were built from the
        #: Monte-Carlo population.  The dynamic-eval bench reports them.
        self.column_stats: dict[str, int] = {"memory": 0, "built": 0}

    @cached_property
    def _weights(self) -> np.ndarray:
        """GP basis rows; row ``p - 1`` is at relative depth ``p / total_layers``."""
        us = np.arange(1, self.total_layers + 1, dtype=float) / self.total_layers
        return self.model.basis_matrix(us)

    def _perturbation(self, position: int) -> np.ndarray:
        """``(n_samples,)`` GP perturbations at MBConv ``position`` (the
        final classifier shares ``total_layers``, u = 1.0): the
        pre-batching formula ``(latent @ basis(u)) * sigma``, one gemv per
        column (a gemm's BLAS accumulation order would drift by ULPs).  A
        column is a pure function of the oracle, whatever else is asked."""
        return (self._latent @ self._weights[position - 1]) * self.model.idiosyncratic_sigma

    def _column(self, key: int | str, capability: float, position: int) -> np.ndarray:
        if key in self._columns:
            self.column_stats["memory"] += 1
            return self._columns[key]
        self.column_stats["built"] += 1
        # The head ranks samples by perceived difficulty and classifies
        # exactly its capability fraction: marginals are exact while the GP
        # keeps correctness strongly correlated between nearby depths.
        score = self._difficulties - self._perturbation(position)
        n_correct = int(round(np.clip(capability, 0.0, 1.0) * self.n_samples))
        column = np.zeros(self.n_samples, dtype=bool)
        if n_correct > 0:
            easiest = np.argpartition(score, max(n_correct - 1, 0))[:n_correct]
            column[easiest] = True
        self._columns[key] = column
        return column

    def exit_column(self, position: int) -> np.ndarray:
        """Boolean correctness column of an exit at MBConv ``position``."""
        column = self._columns.get(position)
        if column is not None:  # hot path: skip recomputing the capability
            self.column_stats["memory"] += 1
            return column
        if not 1 <= position <= self.total_layers:
            raise ValueError(f"position {position} outside [1, {self.total_layers}]")
        u = position / self.total_layers
        cap = float(self.model.capability(self.backbone_accuracy, u))
        return self._column(position, cap, position)

    def final_column(self) -> np.ndarray:
        """Boolean correctness column of the backbone's final classifier."""
        return self._column("final", self.backbone_accuracy, self.total_layers)

    def n_i(self, position: int) -> float:
        """Marginal correct fraction of an exit (the paper's N_i)."""
        return float(self.exit_column(position).mean())

    def evaluate_placement(self, placement: ExitPlacement) -> ExitEvaluation:
        """Ideal-mapping statistics for a full placement (memoised).

        The statistics are DVFS-independent, so the inner engine's many
        (placement, setting) evaluations of one placement share a single
        :class:`ExitEvaluation` — and with it the cached dissimilarity
        vector.  The frozen instances are safe to share.
        """
        if placement.total_layers != self.total_layers:
            raise ValueError(
                f"placement assumes {placement.total_layers} layers, oracle has "
                f"{self.total_layers}"
            )
        positions = placement.positions
        stats = self._stats.get(positions)
        if stats is None:
            stats = self._stats[positions] = self._assemble_stats(positions)
        return stats

    def evaluate_placements(
        self, placements: Sequence[ExitPlacement] | np.ndarray, members: np.ndarray | None = None
    ) -> PopulationExitStats:
        """Stacked statistics of a whole population, one sweep.

        ``placements`` is a sequence of :class:`ExitPlacement` or an
        ``(N, E_max)`` position matrix in the
        :func:`~repro.exits.placement.position_matrix` layout (rows the
        caller has validated, as the IOE's genome decode does); row ``n``
        is the placement of block ``members[n]``'s oracle in this oracle's
        ``column_bank`` (default: this oracle).  Every row goes through
        :meth:`ColumnBank.sweep`, duplicates included: the sweep costs the
        same per row as a memo read would.  The result is the
        stacked matrices the dynamic evaluator fuses with the cost kernel,
        and reads as a sequence of :class:`ExitEvaluation` rows, each
        bitwise :meth:`evaluate_placement` of its placement
        (hypothesis-asserted): both produce the same integer counts divided
        by the same ``n``.
        """
        if not isinstance(placements, np.ndarray):
            for placement in placements:
                if placement.total_layers != self.total_layers:
                    raise ValueError(
                        f"placement assumes {placement.total_layers} layers, oracle "
                        f"has {self.total_layers}"
                    )
            placements = [placement.positions for placement in placements]
        positions, widths = position_matrix(placements)
        if members is None:
            members = np.full(len(widths), self.member)
        trace.count("oracle.batch_calls")
        trace.count("oracle.batch_rows", len(widths))
        return self.column_bank.sweep(positions, widths, members)

    def _fill_bank(self, rows) -> None:
        """Bank ``rows`` (positions; the last row is the final classifier)
        through :meth:`exit_column` / :meth:`final_column`, once each."""
        banked = self._banked
        view = self._bank.view(np.uint8)
        for row in rows:
            if not banked[row]:
                final = row == len(banked) - 1
                column = self.final_column() if final else self.exit_column(row)
                packed = np.packbits(column)
                view[row, : len(packed)] = packed
                self._bank_counts[row] = np.count_nonzero(column)
                banked[row] = True

    def _assemble_stats(self, positions: tuple[int, ...]) -> ExitEvaluation:
        """One placement's :class:`ExitEvaluation` from the column bank.

        :meth:`ColumnBank.sweep` on one placement's bank rows: exit
        ``i`` takes the samples its column classifies that no earlier exit
        did (AND-NOT the running OR of the earlier columns), and one row
        popcount counts every take, the samples some exit classifies and
        their union with the final classifier.  The counts are those of
        ``ideal_mapping_stats`` on the boolean columns, and every fraction
        is the same integer count divided by the same ``n``.
        """
        n = self.n_samples
        bank = self._bank
        final = len(bank) - 1
        rows = list(positions)
        self._fill_bank(rows + [final])
        columns = bank[rows]
        seen = np.bitwise_or.accumulate(columns)
        counts = popcount_rows(
            np.concatenate(
                (columns[:1], columns[1:] & ~seen[:-1], seen[-1:], seen[-1:] | bank[final:])
            )
        )
        num_exits = len(rows)
        usage = np.empty(num_exits + 1)
        usage[:num_exits] = counts[:num_exits] / n
        usage[-1] = (n - int(counts[num_exits])) / n
        return ExitEvaluation(
            n_i=self._bank_counts[rows] / n,
            final_accuracy=int(self._bank_counts[final]) / n,
            dynamic_accuracy=int(counts[-1]) / n,
            usage=usage,
        )


class ColumnBank:
    """The packed correctness columns of one or more oracles, a block each.

    Block ``m`` (from row ``base[m]``) is oracle ``m``'s: the all-zero pad
    row, a row per MBConv position and, last (``final[m]``), the final
    classifier, each packing its column into zero-padded ``uint64`` words
    on first use.  Each oracle fills and reads its block through views
    (``_bank``, ``_bank_counts``, ``_banked``); a new bank starts empty.
    """

    def __init__(self, oracles: Sequence[BackboneExitOracle]):
        self.n_samples = oracles[0].n_samples
        if any(oracle.n_samples != self.n_samples for oracle in oracles):
            raise ValueError("the oracles of a column bank must share one sample count")
        sizes = [oracle.total_layers + 2 for oracle in oracles]
        self.base = np.cumsum([0, *sizes[:-1]])
        self.final = self.base + sizes - 1
        self.words = np.zeros((sum(sizes), -(-self.n_samples // 64)), dtype=np.uint64)
        self.counts = np.zeros(sum(sizes), dtype=np.int64)
        self.banked = np.zeros(sum(sizes), dtype=bool)
        self.banked[self.base] = True
        # Weak: each oracle holds its bank, and the bank must not hold it back.
        self._oracles = [weakref.ref(oracle) for oracle in oracles]
        for member, (oracle, start, stop) in enumerate(zip(oracles, self.base, self.final + 1)):
            oracle._bank = self.words[start:stop]
            oracle._bank_counts = self.counts[start:stop]
            oracle._banked = self.banked[start:stop]
            oracle.column_bank, oracle.member = self, member

    def sweep(
        self, index: np.ndarray, widths: np.ndarray, members: np.ndarray
    ) -> PopulationExitStats:
        """Evaluate placements in one dense sweep over the bank.

        ``index`` is the ``(P, E_max)`` position matrix padded with 0 (the
        layout ``PopulationKernel.path_costs`` gathers) and row ``p`` reads
        block ``members[p]``.  At exit level ``j`` every placement takes the
        ``remaining`` samples its ``j``-th exit classifies (AND + row
        popcount), drops them from ``remaining`` (AND-NOT) and adds them to
        ``union`` (OR).  Pads gather their block's zero row, so they take
        nothing and change no mask; bits past ``n`` stay set in
        ``remaining`` and clear in every column.  These are the masks
        :meth:`BackboneExitOracle._assemble_stats` carries, and every
        statistic is an exact count over ``n``, the quotient
        ``ideal_mapping_stats`` computes per placement.
        """
        n = self.n_samples
        rows = index + self.base[members][:, None]
        finals = self.final[members]
        # Distinct rows ascending, as np.unique lists them: no sort, no numpy.ma import.
        needed = np.flatnonzero(np.bincount(np.concatenate((rows.ravel(), finals))))
        for row in needed[~self.banked[needed]].tolist():
            member = int(np.searchsorted(self.base, row, side="right")) - 1
            self._oracles[member]()._fill_bank([row - int(self.base[member])])

        words = self.words
        remaining = np.full((len(rows), words.shape[1]), ~np.uint64(0), dtype=np.uint64)
        union = np.zeros_like(remaining)
        take_counts = np.empty(rows.shape, dtype=np.int64)
        for j in range(rows.shape[1]):
            column = words[rows[:, j]]
            take_counts[:, j] = popcount_rows(remaining & column)
            remaining &= ~column
            union |= column
        n_i = self.counts[rows] / n
        return PopulationExitStats(
            positions=index,
            widths=widths,
            n_i=n_i,
            usage_head=take_counts / n,
            usage_tail=(n - popcount_rows(~remaining)) / n,
            dissimilarity=population_dissimilarity(n_i),
            dynamic_accuracy=popcount_rows(union | words[finals]) / n,
            final_accuracy=self.counts[finals] / n,
        )
