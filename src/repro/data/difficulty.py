"""Per-sample difficulty distributions.

A sample's difficulty is a scalar in [0, 1]: the fraction of a network's
discriminative capability that must be exceeded to classify it correctly.
We model the population as a Beta distribution — natural-image corpora show
many easy samples and a heavy-ish tail of hard ones, which a Beta with
``alpha < beta`` captures.  The same object serves the synthetic dataset
(noise scaling) and the analytical exit model (closed-form N_i fractions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DifficultyDistribution:
    """Beta(alpha, beta) difficulty model over [0, 1].

    The default (2, 3.5) puts the mode near 0.29: most samples are fairly
    easy — consistent with the large early-exit fractions reported by the
    multi-exit literature the paper builds on (BranchyNet, MSDNet).
    """

    alpha: float = 2.0
    beta: float = 3.5

    def __post_init__(self):
        check_positive("alpha", self.alpha)
        check_positive("beta", self.beta)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` difficulty values."""
        return rng.beta(self.alpha, self.beta, size=n)

    def cdf(self, threshold: np.ndarray | float) -> np.ndarray | float:
        """P(difficulty <= threshold): the fraction of samples a capability
        level ``threshold`` classifies correctly."""
        from scipy import stats  # deferred: scipy dominates the package import time

        return stats.beta.cdf(np.clip(threshold, 0.0, 1.0), self.alpha, self.beta)

    def quantile(self, q: np.ndarray | float) -> np.ndarray | float:
        """Inverse CDF."""
        from scipy import stats  # deferred: scipy dominates the package import time

        return stats.beta.ppf(q, self.alpha, self.beta)

    @property
    def mean(self) -> float:
        """Population mean difficulty."""
        return self.alpha / (self.alpha + self.beta)
