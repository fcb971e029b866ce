"""Genetic variation operators for integer genomes.

Every operator treats the **last axis** as the genome: a 1-D vector is one
genome, an ``(N, G)`` matrix is N genomes (a whole generation's parents or
children).  Each draw from the explicit generator covers the whole array —
no global random state, no per-genome loop — and the per-gene
probabilities are those of the one-genome operator.  Inputs are never
modified; outputs are int64.  Bounds are exclusive upper limits per gene
(the ``gene_bounds`` arrays of the search spaces).
"""

from __future__ import annotations

import numpy as np


def _check_parents(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"parent genomes differ in shape: {a.shape} vs {b.shape}")


def _gene_prob(genomes: np.ndarray, prob: float | None) -> float:
    """``prob``, defaulting to one expected change per genome (1/G)."""
    return prob if prob is not None else 1.0 / max(genomes.shape[-1], 1)


def uniform_crossover(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator, swap_prob: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene swap with probability ``swap_prob``; returns two children."""
    a, b = np.asarray(a), np.asarray(b)
    _check_parents(a, b)
    mask = rng.random(a.shape) < swap_prob
    child_a = np.where(mask, b, a).astype(np.int64)
    child_b = np.where(mask, a, b).astype(np.int64)
    return child_a, child_b


def two_point_crossover(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Classic two-point crossover: each pair swaps the genes between two
    distinct cut points ``i < j`` (positions ``i .. j-1``)."""
    a, b = np.asarray(a), np.asarray(b)
    _check_parents(a, b)
    n = a.shape[-1]
    if n < 2:
        return a.astype(np.int64), b.astype(np.int64)
    first = rng.integers(0, n, size=a.shape[:-1])
    second = rng.integers(0, n - 1, size=a.shape[:-1])
    second = second + (second >= first)  # uniform over the other n - 1 cuts
    lo = np.minimum(first, second)[..., None]
    hi = np.maximum(first, second)[..., None]
    genes = np.arange(n)
    segment = (genes >= lo) & (genes < hi)
    child_a = np.where(segment, b, a).astype(np.int64)
    child_b = np.where(segment, a, b).astype(np.int64)
    return child_a, child_b


def reset_mutation(
    genome: np.ndarray,
    bounds: np.ndarray,
    rng: np.random.Generator,
    prob: float | None = None,
) -> np.ndarray:
    """Resample each gene uniformly with probability ``prob`` (default 1/G)."""
    genome = np.array(genome, dtype=np.int64)
    mask = rng.random(genome.shape) < _gene_prob(genome, prob)
    if mask.any():
        fresh = (rng.random(genome.shape) * bounds).astype(np.int64)
        genome[mask] = fresh[mask]
    return genome


def creep_mutation(
    genome: np.ndarray,
    bounds: np.ndarray,
    rng: np.random.Generator,
    prob: float | None = None,
) -> np.ndarray:
    """Move each gene ±1 (clipped) with probability ``prob`` — suited to
    ordered spaces such as DVFS frequency indices."""
    genome = np.array(genome, dtype=np.int64)
    mask = rng.random(genome.shape) < _gene_prob(genome, prob)
    steps = rng.choice([-1, 1], size=genome.shape)
    top = np.broadcast_to(np.asarray(bounds) - 1, genome.shape)
    genome[mask] = np.clip(genome[mask] + steps[mask], 0, top[mask])
    return genome


def bitflip_mutation(
    bits: np.ndarray, rng: np.random.Generator, prob: float | None = None
) -> np.ndarray:
    """Flip each 0/1 gene with probability ``prob`` (default 1/G)."""
    bits = np.array(bits, dtype=np.int64)
    mask = rng.random(bits.shape) < _gene_prob(bits, prob)
    bits[mask] = 1 - bits[mask]
    return bits
