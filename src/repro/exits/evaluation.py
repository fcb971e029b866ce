"""Exit evaluation under the paper's ideal input-to-exit mapping.

The design-time objective maps every input to the *first* exit that
classifies it correctly (paper §IV-C); inputs no exit can handle run the full
network and are classified (or not) by the final head.  All statistics derive
from a boolean *correctness matrix* ``C`` of shape ``(n_samples, E + 1)``
whose last column is the final classifier — this interface is shared by the
trainable path (real logits) and the surrogate path (simulated correctness).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ExitEvaluation:
    """Per-exit and aggregate statistics of a multi-exit network.

    Attributes
    ----------
    n_i:
        Paper's N_i — fraction of samples each exit classifies correctly,
        shape ``(E,)``.
    final_accuracy:
        Static accuracy of the backbone's own classifier.
    dynamic_accuracy:
        Accuracy under ideal mapping (union of all heads).
    usage:
        Fraction of inputs leaving at each exit, shape ``(E + 1,)`` — the
        last entry is the full-network remainder.
    dissimilarity:
        Paper eq. 7 per exit: ``1 - max(N_0 .. N_{i-1})`` with the convention
        ``dissim_0 = 1``.
    """

    n_i: np.ndarray
    final_accuracy: float
    dynamic_accuracy: float
    usage: np.ndarray

    @property
    def num_exits(self) -> int:
        return len(self.n_i)

    @property
    def mean_n_i(self) -> float:
        """Average of the N_i values (the paper's Fig. 5 bottom y-axis)."""
        return float(self.n_i.mean()) if len(self.n_i) else 0.0

    @cached_property
    def dissimilarity(self) -> np.ndarray:
        """Eq. 7 per exit, via one running-max pass.

        ``1 - max(N_0 .. N_{i-1})`` is a shifted cumulative maximum, so the
        whole vector is a single ``np.maximum.accumulate`` (maximum takes no
        rounding — identical to the per-exit loop it replaced).  Cached on
        the instance: an evaluation reads it in both ``evaluate`` and
        ``objectives``, and the frozen dataclass's samples never change.
        Treat the returned array as read-only.
        """
        dissim = np.ones(self.num_exits)
        if self.num_exits > 1:
            dissim[1:] = 1.0 - np.maximum.accumulate(self.n_i[:-1])
        return dissim

    @cached_property
    def usage_split(self) -> tuple[np.ndarray, float]:
        """``(usage[:-1], float(usage[-1]))`` — the ideal-mapping
        expectation weights split once for the dynamic-evaluation hot
        loops (an evaluation is reused across every DVFS setting swept).
        Treat the returned array as read-only.
        """
        return self.usage[:-1], float(self.usage[-1])

    @property
    def early_exit_fraction(self) -> float:
        """Fraction of inputs that leave before the final classifier."""
        return float(self.usage[:-1].sum())


@dataclass(frozen=True)
class PopulationExitStats:
    """Stacked ideal-mapping statistics of N placements.

    The accuracy-side twin of
    :class:`~repro.hardware.population_kernel.PopulationPathCosts`: matrices
    are ``(N, E_max)`` with row ``j`` valid through ``widths[j]`` columns,
    in the :func:`~repro.exits.placement.position_matrix` layout of
    ``positions``.  Every entry is an exact integer count divided by the
    shared sample count ``n`` — the same quotients
    :func:`ideal_mapping_stats` produces per placement.  Pad entries are
    finite but unspecified: read row ``j`` through ``widths[j]`` only.  The
    rows may come from several backbones' oracles, so the final
    classifier's accuracy is a row vector too.

    The stats act as a sequence of :class:`ExitEvaluation` rows; row ``j``
    is built when it is read.
    """

    positions: np.ndarray  # (N, E_max) exit positions, rows padded with 0
    widths: np.ndarray  # (N,) exits per placement
    n_i: np.ndarray  # (N, E_max) marginal correct fractions
    usage_head: np.ndarray  # (N, E_max) usage[:-1] rows
    usage_tail: np.ndarray  # (N,) full-network remainder fractions
    dissimilarity: np.ndarray  # (N, E_max) eq. 7 rows
    dynamic_accuracy: np.ndarray  # (N,) union accuracies
    final_accuracy: np.ndarray  # (N,) the final classifier's accuracy

    def __len__(self) -> int:
        return len(self.widths)

    def __getitem__(self, row: int) -> ExitEvaluation:
        """Row ``row`` as a frozen :class:`ExitEvaluation`, built without
        ``__init__``: frozen dataclasses pay one guarded
        ``object.__setattr__`` per field, ``__new__`` + ``__dict__`` builds
        the identical object.  Pre-seeding the ``cached_property`` slots
        (``dissimilarity``, ``usage_split``) with the stacked rows means no
        lazy per-row recomputation runs.  The arrays are views into the
        stacked matrices — read-only by the same convention as the cached
        properties."""
        width = int(self.widths[row])
        head = self.usage_head[row, :width]
        tail = float(self.usage_tail[row])
        usage = np.append(head, tail)
        evaluation = ExitEvaluation.__new__(ExitEvaluation)
        evaluation.__dict__.update(
            n_i=self.n_i[row, :width],
            final_accuracy=float(self.final_accuracy[row]),
            dynamic_accuracy=float(self.dynamic_accuracy[row]),
            usage=usage,
            dissimilarity=self.dissimilarity[row, :width],
            usage_split=(usage[:-1], tail),
        )
        return evaluation

    def __iter__(self):
        return (self[row] for row in range(len(self)))


def population_dissimilarity(n_i: np.ndarray) -> np.ndarray:
    """Stacked eq. 7: ``1 - cummax`` rows in one accumulate.

    ``np.maximum.accumulate`` along axis 1 performs the exact per-row
    comparisons of the per-placement version (maximum takes no rounding),
    and the cumulative maximum at column ``i`` depends only on columns
    ``<= i`` — so each valid row prefix is bit-identical to
    :attr:`ExitEvaluation.dissimilarity` regardless of row pads.
    """
    count, e_max = n_i.shape
    dissim = np.ones((count, e_max))
    if e_max > 1:
        dissim[:, 1:] = 1.0 - np.maximum.accumulate(n_i[:, :-1], axis=1)
    return dissim


def ideal_mapping_stats(correct: np.ndarray) -> ExitEvaluation:
    """Compute :class:`ExitEvaluation` from a correctness matrix.

    ``correct[n, i]`` — exit ``i`` (columns ordered by position; final
    classifier last) classifies sample ``n`` correctly.
    """
    correct = np.asarray(correct, dtype=bool)
    if correct.ndim != 2 or correct.shape[1] < 1:
        raise ValueError(f"correctness matrix must be (n, E+1), got {correct.shape}")
    n_samples, num_heads = correct.shape
    num_exits = num_heads - 1

    # Boolean means are integer counts divided by n; count_nonzero produces
    # the exact same integer, so every quotient below is bit-identical to
    # the ``.mean()`` calls it replaced — at a fraction of the call cost
    # (this runs once per dynamic evaluation, thousands of times per run).
    exits = correct[:, :num_exits]
    n_i = (
        np.count_nonzero(exits, axis=0) / n_samples if num_exits else np.zeros(0)
    )
    final_accuracy = np.count_nonzero(correct[:, -1]) / n_samples
    any_head = correct.any(axis=1)
    dynamic_accuracy = np.count_nonzero(any_head) / n_samples

    # Ideal mapping sends each sample to its *first* correct exit, so the
    # usage histogram is first-true-column indexing — one argmax + bincount
    # instead of the O(E · n) masked loop.
    usage = np.zeros(num_exits + 1)
    covered = exits.any(axis=1)
    if num_exits:
        first_exit = np.argmax(exits, axis=1)
        counts = np.bincount(first_exit[covered], minlength=num_exits)
        usage[:num_exits] = counts / n_samples
    usage[-1] = np.count_nonzero(~covered) / n_samples
    return ExitEvaluation(
        n_i=np.asarray(n_i, dtype=float),
        final_accuracy=final_accuracy,
        dynamic_accuracy=dynamic_accuracy,
        usage=usage,
    )


def evaluate_exit_logits(
    exit_logits: np.ndarray, final_logits: np.ndarray, labels: np.ndarray
) -> ExitEvaluation:
    """Evaluate real logits from a trained multi-exit network.

    ``exit_logits`` has shape ``(E, n, classes)``; ``final_logits`` is
    ``(n, classes)``.
    """
    exit_logits = np.asarray(exit_logits)
    labels = np.asarray(labels)
    if exit_logits.ndim != 3:
        raise ValueError(f"exit_logits must be (E, n, classes), got {exit_logits.shape}")
    pred_exits = exit_logits.argmax(axis=-1)  # (E, n)
    correct_exits = (pred_exits == labels[None, :]).T  # (n, E)
    correct_final = (np.asarray(final_logits).argmax(axis=-1) == labels)[:, None]
    return ideal_mapping_stats(np.concatenate([correct_exits, correct_final], axis=1))
