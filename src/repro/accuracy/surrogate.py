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
from typing import Sequence

import numpy as np

from repro.accuracy.calibration import DEFAULT_ANCHORS, CalibrationAnchors
from repro.arch.config import BackboneConfig
from repro.arch.cost import NetworkCost, estimate_cost
from repro.arch.space import BackboneSpace
from repro.baselines.attentivenas import attentivenas_model
from repro.utils.rng import child_rng

#: Capacity-score feature weights (log-MACs dominates, as in NAS predictors).
_W_MACS, _W_RES, _W_DEPTH, _W_EXPAND = 0.55, 0.15, 0.15, 0.15
_WEIGHTS = np.asarray([_W_MACS, _W_RES, _W_DEPTH, _W_EXPAND])

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
    @staticmethod
    def _raw_features(
        configs: Sequence[BackboneConfig], total_macs: Sequence[float]
    ) -> np.ndarray:
        """``(B, 4)`` raw features: log10 MACs, resolution, depth, mean
        expand ratio.  ``math.log10`` runs per row: ``np.log10`` rounds a
        fraction of a percent of inputs differently."""
        raw = np.empty((len(configs), 4))
        raw[:, 0] = [math.log10(max(macs, 1.0)) for macs in total_macs]
        raw[:, 1] = [config.resolution for config in configs]
        raw[:, 2] = [config.total_mbconv_layers for config in configs]
        raw[:, 3] = np.mean([[s.expand for s in config.stages] for config in configs], axis=1)
        return raw

    def _feature_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        space = self.space
        corners = [space.decode(space.min_genome()), space.decode(space.max_genome())]
        lo, hi = self._raw_features(corners, [estimate_cost(c).total_macs for c in corners])
        span = np.where(hi - lo <= 0, 1.0, hi - lo)
        return lo, span

    def _feature_matrix(
        self, configs: Sequence[BackboneConfig], total_macs: Sequence[float]
    ) -> np.ndarray:
        """Normalised ``(B, 4)`` features in [0, 1] (clipped for off-space
        configs)."""
        lo, span = self._bounds
        return np.clip((self._raw_features(configs, total_macs) - lo) / span, 0.0, 1.0)

    def _features(self, config: BackboneConfig, cost: NetworkCost | None = None) -> np.ndarray:
        """One config's normalised features.

        ``cost`` is the backbone's cost profile when the caller already has
        it (the static evaluator does); otherwise it is estimated here.
        """
        cost = cost if cost is not None else estimate_cost(config)
        return self._feature_matrix([config], [cost.total_macs])[0]

    @staticmethod
    def _capacity(feats: np.ndarray) -> float:
        return float(_WEIGHTS @ feats)

    @staticmethod
    def _penalty(feats: np.ndarray):
        depth_norm = feats[..., 2]
        width_norm = feats[..., 0]  # log-MACs tracks width closely at fixed depth
        return _BALANCE_PENALTY * np.abs(depth_norm - width_norm)

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

    def _noiseless(self, feats: np.ndarray) -> np.ndarray:
        """Accuracy (%) without the residual, per row of a feature matrix.

        The saturating curve and its 4-term weight dot run per row:
        ``np.exp`` and a matrix-vector product round some inputs
        differently from ``math.exp`` and a one-row dot, and every score
        must equal the config's one-at-a-time value.
        """
        g = np.asarray([self._saturating(self._capacity(row)) for row in feats])
        return self._c0 + self._c1 * g - self._penalty(feats)

    # ------------------------------------------------------------ interface
    def noiseless_accuracy(self, config: BackboneConfig, cost: NetworkCost | None = None) -> float:
        """Accuracy (%) without the per-architecture residual."""
        return float(self._noiseless(self._features(config, cost)[None])[0])

    def accuracy_population(
        self, configs: Sequence[BackboneConfig], total_macs: Sequence[float]
    ) -> np.ndarray:
        """Predicted accuracies (%) of backbones with the given total MACs.

        Each row's residual is drawn from its own ``(seed, "acc-noise",
        key)`` stream, so a backbone scores the same in any batch.
        """
        noise = [
            child_rng(self.seed, "acc-noise", config.key).normal(0.0, _NOISE_STD)
            for config in configs
        ]
        noise = np.clip(noise, -2 * _NOISE_STD, 2 * _NOISE_STD)
        noiseless = self._noiseless(self._feature_matrix(configs, total_macs))
        return np.clip(noiseless + noise, 1.0, 99.5)

    def accuracy(self, config: BackboneConfig, cost: NetworkCost | None = None) -> float:
        """Predicted CIFAR-100 top-1 accuracy (%), deterministic per config."""
        cost = cost if cost is not None else estimate_cost(config)
        return float(self.accuracy_population([config], [cost.total_macs])[0])

    def accuracy_fraction(self, config: BackboneConfig, cost: NetworkCost | None = None) -> float:
        """Accuracy as a fraction in [0, 1] (what the exit oracle consumes)."""
        return self.accuracy(config, cost) / 100.0
