"""Backbone static-accuracy surrogate.

Accuracy is modelled as a saturating function of a capacity score — a convex
combination of normalised log-MACs, input resolution, total depth and mean
expand ratio — plus a small balance penalty (very deep-but-narrow or
wide-but-shallow networks underperform at equal MACs) and a seeded
per-architecture residual.  The two free scale parameters are solved exactly
from the a0/a6 anchors, so the surrogate reproduces the paper's endpoints by
construction and interpolates the rest of the space smoothly.

The search algorithms consume only the induced *ranking landscape*; shape
fidelity (monotone-with-saturation, realistic spread, mild non-additivity,
noise) is what matters, not per-architecture ground truth (DESIGN.md §1).
"""

from __future__ import annotations

import math

import numpy as np

from repro.accuracy.calibration import DEFAULT_ANCHORS, CalibrationAnchors
from repro.arch.config import BackboneConfig
from repro.arch.cost import NetworkCost, estimate_cost
from repro.arch.space import BackboneSpace
from repro.baselines.attentivenas import attentivenas_model
from repro.utils.rng import child_rng

#: Capacity-score feature weights (log-MACs dominates, as in NAS predictors).
_W_MACS, _W_RES, _W_DEPTH, _W_EXPAND = 0.55, 0.15, 0.15, 0.15

#: Saturation rate of the accuracy-vs-capacity curve.
_SATURATION_K = 3.0

#: Weight of the depth/width balance penalty (accuracy points).
_BALANCE_PENALTY = 0.35

#: Std-dev of the per-architecture residual (accuracy points).
_NOISE_STD = 0.18


class AccuracySurrogate:
    """Deterministic accuracy model over a backbone space.

    Parameters
    ----------
    space:
        The backbone space (used to normalise features to [0, 1]).
    anchors:
        Published accuracies pinning the output scale.
    seed:
        Seed of the per-architecture residual stream.
    """

    def __init__(
        self,
        space: BackboneSpace | None = None,
        anchors: CalibrationAnchors = DEFAULT_ANCHORS,
        seed: int = 0,
    ):
        self.space = space or BackboneSpace()
        self.anchors = anchors
        self.seed = seed
        self._bounds = self._feature_bounds()
        self._c0, self._c1 = self._solve_scale()

    # ------------------------------------------------------------- features
    def _raw_features(self, config: BackboneConfig, cost: NetworkCost | None = None) -> np.ndarray:
        cost = cost if cost is not None else estimate_cost(config)
        log_macs = math.log10(max(cost.total_macs, 1.0))
        depth = float(config.total_mbconv_layers)
        res = float(config.resolution)
        expand = float(np.mean([s.expand for s in config.stages]))
        return np.asarray([log_macs, res, depth, expand])

    def _feature_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self._raw_features(self.space.decode(self.space.min_genome()))
        hi = self._raw_features(self.space.decode(self.space.max_genome()))
        span = np.where(hi - lo <= 0, 1.0, hi - lo)
        return lo, span

    def _features(self, config: BackboneConfig, cost: NetworkCost | None = None) -> np.ndarray:
        """Normalised features in [0, 1] (clipped for off-space configs).

        ``cost`` is the backbone's cost profile when the caller already has
        it (the static evaluator does); otherwise it is estimated here.
        """
        lo, span = self._bounds
        return np.clip((self._raw_features(config, cost) - lo) / span, 0.0, 1.0)

    @staticmethod
    def _capacity(feats: np.ndarray) -> float:
        weights = np.asarray([_W_MACS, _W_RES, _W_DEPTH, _W_EXPAND])
        return float(weights @ feats)

    @staticmethod
    def _penalty(feats: np.ndarray) -> float:
        depth_norm = feats[2]
        width_norm = feats[0]  # log-MACs tracks width closely at fixed depth
        return _BALANCE_PENALTY * abs(depth_norm - width_norm)

    def capacity_score(self, config: BackboneConfig) -> float:
        """Normalised capacity in [0, 1] (clipped for off-space configs)."""
        return self._capacity(self._features(config))

    @staticmethod
    def _saturating(z: float) -> float:
        return (1.0 - math.exp(-_SATURATION_K * z)) / (1.0 - math.exp(-_SATURATION_K))

    def _solve_scale(self) -> tuple[float, float]:
        """Fit acc = c0 + c1 * g(z) exactly through the a0/a6 anchors."""
        a0 = attentivenas_model("a0", num_classes=self.space.num_classes)
        a6 = attentivenas_model("a6", num_classes=self.space.num_classes)
        f0, f6 = self._features(a0), self._features(a6)
        g0 = self._saturating(self._capacity(f0))
        g6 = self._saturating(self._capacity(f6))
        if abs(g6 - g0) < 1e-9:
            raise RuntimeError("anchor architectures have identical capacity scores")
        target0 = self.anchors.a0_accuracy + self._penalty(f0)
        target6 = self.anchors.a6_accuracy + self._penalty(f6)
        c1 = (target6 - target0) / (g6 - g0)
        c0 = target0 - c1 * g0
        return c0, c1

    # ------------------------------------------------------------ interface
    def noiseless_accuracy(self, config: BackboneConfig, cost: NetworkCost | None = None) -> float:
        """Accuracy (%) without the per-architecture residual."""
        feats = self._features(config, cost)
        g = self._saturating(self._capacity(feats))
        return self._c0 + self._c1 * g - self._penalty(feats)

    def accuracy(self, config: BackboneConfig, cost: NetworkCost | None = None) -> float:
        """Predicted CIFAR-100 top-1 accuracy (%), deterministic per config."""
        rng = child_rng(self.seed, "acc-noise", config.key)
        noise = float(np.clip(rng.normal(0.0, _NOISE_STD), -2 * _NOISE_STD, 2 * _NOISE_STD))
        return float(np.clip(self.noiseless_accuracy(config, cost) + noise, 1.0, 99.5))

    def accuracy_fraction(self, config: BackboneConfig, cost: NetworkCost | None = None) -> float:
        """Accuracy as a fraction in [0, 1] (what the exit oracle consumes)."""
        return self.accuracy(config, cost) / 100.0
