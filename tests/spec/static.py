"""Spec of the static evaluator: S(b) of one backbone at a time.

:meth:`~repro.eval.static.StaticEvaluator.evaluate_population` costs a
batch of backbones as one stacked layer table, reports its latency and
energy in one array pass, takes the measurement-noise means over a
``(rows, repeats)`` matrix and scores the accuracy surrogate's features as
one matrix.  Every S(b) must equal this per-backbone path bit for bit: the
``config.layers()`` walk with one :class:`LayerCost` per :class:`LayerSpec`,
the per-layer energy loop of :mod:`spec.hardware`, three noise draws per
measurement and the surrogate's one-feature-vector arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from repro.accuracy import surrogate as surrogate_module
from repro.accuracy.surrogate import AccuracySurrogate
from repro.arch.config import BackboneConfig, LayerSpec
from repro.arch.cost import (
    DEFAULT_BYTES_PER_ELEMENT,
    SE_REDUCTION,
    LayerCost,
    _conv_cost,
    _merge,
)
from repro.baselines.attentivenas import attentivenas_model
from repro.eval.static import StaticEvaluation, StaticEvaluator
from repro.hardware.measurement import HardwareInTheLoop, Measurement
from repro.utils.rng import child_rng
from spec.hardware import composite_report


def _mbconv_cost(spec: LayerSpec, include_se: bool, bytes_per_element: float) -> LayerCost:
    in_ch, out_ch = spec.in_channels, spec.out_channels
    mid = in_ch * spec.expand
    in_res, out_res = spec.in_resolution, spec.out_resolution
    parts: list[LayerCost] = []
    if spec.expand > 1:
        parts.append(
            _conv_cost("expand", "sub", 0, in_ch, mid, 1, in_res, in_res,
                       bytes_per_element=bytes_per_element)
        )
    parts.append(
        _conv_cost(
            "depthwise", "sub", 0, mid, mid, spec.kernel, in_res, out_res,
            groups=mid, bytes_per_element=bytes_per_element,
        )
    )
    if include_se:
        se_ch = max(1, mid // SE_REDUCTION)
        se_macs = 2.0 * mid * se_ch + mid
        se_params = 2.0 * mid * se_ch + mid + se_ch
        parts.append(
            LayerCost(
                "se", "sub", 0, se_macs, se_params,
                input_bytes=float(mid * bytes_per_element),
                output_bytes=float(mid * bytes_per_element),
                weight_bytes=float(se_params * bytes_per_element),
            )
        )
    parts.append(
        _conv_cost("project", "sub", 0, mid, out_ch, 1, out_res, out_res,
                   bytes_per_element=bytes_per_element)
    )
    return _merge(f"mbconv{spec.index}", "mbconv", spec.index, parts)


def layer_costs(
    config: BackboneConfig,
    include_se: bool = True,
    bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
) -> list[LayerCost]:
    """The backbone's cost profile, one :class:`LayerSpec` at a time."""
    layers = []
    for spec in config.layers():
        if spec.kind == "stem":
            layers.append(
                _conv_cost("stem", "stem", 0, spec.in_channels, spec.out_channels,
                           spec.kernel, spec.in_resolution, spec.out_resolution,
                           bytes_per_element=bytes_per_element)
            )
        elif spec.kind == "mbconv":
            layers.append(_mbconv_cost(spec, include_se, bytes_per_element))
        elif spec.kind == "head":
            layers.append(
                _conv_cost("head", "head", 0, spec.in_channels, spec.out_channels,
                           1, spec.in_resolution, spec.out_resolution,
                           bytes_per_element=bytes_per_element)
            )
        else:
            macs = float(spec.in_channels * spec.out_channels)
            params = float(spec.in_channels * spec.out_channels + spec.out_channels)
            layers.append(
                LayerCost(
                    "classifier", "classifier", 0, macs, params,
                    input_bytes=float(spec.in_channels * bytes_per_element),
                    output_bytes=float(spec.out_channels * bytes_per_element),
                    weight_bytes=float(params * bytes_per_element),
                )
            )
    return layers


def measure(hwil: HardwareInTheLoop, key: str, layers: list[LayerCost], setting) -> Measurement:
    """One uncached measurement: warm-up, latency and energy draws in turn."""
    report = composite_report(hwil.model, layers, setting)
    rng = child_rng(hwil.seed, "hwil", key, setting.core_ghz, setting.emc_ghz)
    hwil._noise(rng, hwil.warmup)
    lat = report.latency_s * hwil._noise(rng, hwil.repeats)
    erg = report.energy_j * hwil._noise(rng, hwil.repeats)
    return Measurement(
        latency_s_mean=float(lat.mean()),
        latency_s_std=float(lat.std()),
        energy_j_mean=float(erg.mean()),
        energy_j_std=float(erg.std()),
        repeats=hwil.repeats,
    )


def _features(config: BackboneConfig, bounds=None) -> np.ndarray:
    """Raw features, or normalised ones when ``bounds`` are given."""
    total_macs = sum(layer.macs for layer in layer_costs(config))
    raw = np.asarray(
        [
            math.log10(max(total_macs, 1.0)),
            float(config.resolution),
            float(config.total_mbconv_layers),
            float(np.mean([s.expand for s in config.stages])),
        ]
    )
    if bounds is None:
        return raw
    lo, span = bounds
    return np.clip((raw - lo) / span, 0.0, 1.0)


def _curve(feats: np.ndarray) -> tuple[float, float]:
    """(saturating capacity g, balance penalty) of one feature vector."""
    weights = np.asarray(
        [surrogate_module._W_MACS, surrogate_module._W_RES,
         surrogate_module._W_DEPTH, surrogate_module._W_EXPAND]
    )
    k = surrogate_module._SATURATION_K
    z = float(weights @ feats)
    g = (1.0 - math.exp(-k * z)) / (1.0 - math.exp(-k))
    return g, surrogate_module._BALANCE_PENALTY * abs(feats[2] - feats[0])


def accuracy(surrogate: AccuracySurrogate, config: BackboneConfig) -> float:
    """The surrogate's accuracy (%), calibrated and scored one config at a time."""
    space = surrogate.space
    lo = _features(space.decode(space.min_genome()))
    hi = _features(space.decode(space.max_genome()))
    bounds = (lo, np.where(hi - lo <= 0, 1.0, hi - lo))
    anchors = [
        _curve(_features(attentivenas_model(name, num_classes=space.num_classes), bounds))
        for name in ("a0", "a6")
    ]
    (g0, p0), (g6, p6) = anchors
    target0 = surrogate.anchors.a0_accuracy + p0
    target6 = surrogate.anchors.a6_accuracy + p6
    c1 = (target6 - target0) / (g6 - g0)
    c0 = target0 - c1 * g0
    g, penalty = _curve(_features(config, bounds))
    std = surrogate_module._NOISE_STD
    rng = child_rng(surrogate.seed, "acc-noise", config.describe())
    noise = float(np.clip(rng.normal(0.0, std), -2 * std, 2 * std))
    return float(np.clip(c0 + c1 * g - penalty + noise, 1.0, 99.5))


def static_evaluation(evaluator: StaticEvaluator, config: BackboneConfig) -> StaticEvaluation:
    """S(b) of one backbone from the pieces above (no memo, no cache)."""
    measurement = measure(
        evaluator.hwil, config.describe(), layer_costs(config), evaluator.default_setting
    )
    return StaticEvaluation(
        accuracy=accuracy(evaluator.surrogate, config),
        latency_s=measurement.latency_s_mean,
        energy_j=measurement.energy_j_mean,
    )
