"""Analytical cost model: MACs, parameters and memory traffic per layer.

The hardware latency/energy models (:mod:`repro.hardware`) consume this
profile through a roofline formulation, so each layer records both its
arithmetic work (MACs) and its DRAM traffic (activation + weight bytes).
MBConv layers are lowered into their expand / depthwise / (SE) / project
sub-convolutions, which have very different arithmetic intensities — that is
precisely what makes different subnets prefer different DVFS points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.arch.config import BackboneConfig

#: Bytes per element; the paper's measurements run fp32 PyTorch eager mode.
DEFAULT_BYTES_PER_ELEMENT = 4.0

#: Squeeze-excite reduction used by AttentiveNAS blocks.
SE_REDUCTION = 4


@dataclass(frozen=True)
class LayerCost:
    """Cost of one resolved layer (MBConv sub-ops already aggregated)."""

    name: str
    kind: str
    index: int
    macs: float
    params: float
    input_bytes: float
    output_bytes: float
    weight_bytes: float

    @property
    def traffic_bytes(self) -> float:
        """Approximate DRAM traffic: reads + writes + weights."""
        return self.input_bytes + self.output_bytes + self.weight_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """MACs per byte of traffic — the roofline x-axis."""
        return self.macs / max(self.traffic_bytes, 1.0)


@dataclass
class NetworkCost:
    """Ordered layer costs for one backbone, with prefix aggregation.

    ``layers`` is append-only during construction (:func:`estimate_cost`);
    the first :meth:`prefix`/:meth:`prefix_end` call freezes a position →
    layer-index map, so prefixes are O(1) slices instead of re-scans.
    """

    config_key: str
    layers: list[LayerCost] = field(default_factory=list)
    _position_index: dict[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def total_macs(self) -> float:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_params(self) -> float:
        return sum(layer.params for layer in self.layers)

    @property
    def total_traffic(self) -> float:
        return sum(layer.traffic_bytes for layer in self.layers)

    def mbconv_layers(self) -> list[LayerCost]:
        return [layer for layer in self.layers if layer.kind == "mbconv"]

    def _position_map(self) -> dict[int, int]:
        """MBConv position → index into ``layers`` (body layers only)."""
        if self._position_index is None:
            mapping: dict[int, int] = {}
            for index, layer in enumerate(self.layers):
                if layer.kind in ("head", "classifier"):
                    break
                if layer.kind == "mbconv":
                    mapping[layer.index] = index
            self._position_index = mapping
        return self._position_index

    def prefix_end(self, position: int) -> int:
        """Index into ``layers`` of MBConv layer ``position`` (its prefix is
        ``layers[: prefix_end(position) + 1]``)."""
        mapping = self._position_map()
        if position not in mapping:
            raise ValueError(f"no MBConv layer at position {position}")
        return mapping[position]

    def prefix(self, position: int) -> list[LayerCost]:
        """Layers executed up to and including MBConv layer ``position``.

        Includes the stem.  ``position`` is 1-based over MBConv layers, as in
        the paper's exit indexing; ``position == 0`` means "stem only".
        """
        if position == 0:
            return [layer for layer in self.layers if layer.kind == "stem"]
        return self.layers[: self.prefix_end(position) + 1]

    def prefix_macs(self, position: int) -> float:
        return sum(layer.macs for layer in self.prefix(position))


def _conv_cost(
    name: str,
    kind: str,
    index: int,
    in_ch: int,
    out_ch: int,
    kernel: int,
    in_res: int,
    out_res: int,
    groups: int = 1,
    bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
    bn: bool = True,
) -> LayerCost:
    macs = out_res * out_res * (in_ch // groups) * out_ch * kernel * kernel
    params = (in_ch // groups) * out_ch * kernel * kernel + (2 * out_ch if bn else 0)
    return LayerCost(
        name=name,
        kind=kind,
        index=index,
        macs=float(macs),
        params=float(params),
        input_bytes=float(in_res * in_res * in_ch * bytes_per_element),
        output_bytes=float(out_res * out_res * out_ch * bytes_per_element),
        weight_bytes=float(params * bytes_per_element),
    )


def _merge(name: str, kind: str, index: int, parts: list[LayerCost]) -> LayerCost:
    return LayerCost(
        name=name,
        kind=kind,
        index=index,
        macs=sum(p.macs for p in parts),
        params=sum(p.params for p in parts),
        input_bytes=sum(p.input_bytes for p in parts),
        output_bytes=sum(p.output_bytes for p in parts),
        weight_bytes=sum(p.weight_bytes for p in parts),
    )


@lru_cache(maxsize=1 << 14)
def _shape_cost(
    kind: str,
    in_ch: int,
    out_ch: int,
    kernel: int,
    expand: int,
    stride: int,
    in_res: int,
    include_se: bool,
    bytes_per_element: float,
) -> LayerCost:
    """Cost of one layer of a given shape, named after its kind.

    Memoised per shape: the backbones of one search share most of their
    layers, and a stage's repeated layers all share one shape.
    """
    out_res = max(1, in_res // stride)
    if kind == "classifier":
        macs = float(in_ch * out_ch)
        params = float(in_ch * out_ch + out_ch)
        return LayerCost(
            kind, kind, 0, macs, params,
            input_bytes=float(in_ch * bytes_per_element),
            output_bytes=float(out_ch * bytes_per_element),
            weight_bytes=float(params * bytes_per_element),
        )
    if kind != "mbconv":  # stem / head: one plain convolution
        return _conv_cost(kind, kind, 0, in_ch, out_ch, kernel, in_res, out_res,
                          bytes_per_element=bytes_per_element)
    mid = in_ch * expand
    parts: list[LayerCost] = []
    if expand > 1:
        parts.append(
            _conv_cost("expand", "sub", 0, in_ch, mid, 1, in_res, in_res,
                       bytes_per_element=bytes_per_element)
        )
    parts.append(
        _conv_cost(
            "depthwise", "sub", 0, mid, mid, kernel, in_res, out_res,
            groups=mid, bytes_per_element=bytes_per_element,
        )
    )
    if include_se:
        se_ch = max(1, mid // SE_REDUCTION)
        se_macs = 2.0 * mid * se_ch + mid  # squeeze FC + excite FC + rescale
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
    return _merge("mbconv", "mbconv", 0, parts)


def _layer_runs(
    config: BackboneConfig, include_se: bool, bytes_per_element: float
) -> list[tuple[LayerCost, int]]:
    """The backbone's layers as ``(cost, repeats)`` runs, one walk per stage.

    Stem, then per stage its first MBConv layer (the stage's stride and
    input width) and its ``depth - 1`` identical repeats, then head and
    classifier: always ``2 * stages + 3`` runs, a repeat run of a depth-1
    stage counting zero layers.  Each run is one shape lookup.
    """
    res = config.resolution
    runs = [(_shape_cost("stem", 3, config.stem_width, 3, 1, 2, res,
                         include_se, bytes_per_element), 1)]
    res //= 2
    channels = config.stem_width
    for stage in config.stages:
        runs.append((_shape_cost("mbconv", channels, stage.width, stage.kernel, stage.expand,
                                 stage.stride, res, include_se, bytes_per_element), 1))
        res = max(1, res // stage.stride)
        channels = stage.width
        runs.append((_shape_cost("mbconv", channels, channels, stage.kernel, stage.expand,
                                 1, res, include_se, bytes_per_element), stage.depth - 1))
    runs.append((_shape_cost("head", channels, config.head_width, 1, 1, 1, res,
                             include_se, bytes_per_element), 1))
    runs.append((_shape_cost("classifier", config.head_width, config.num_classes, 1, 1, 1,
                             res, include_se, bytes_per_element), 1))
    return runs


def estimate_cost(
    config: BackboneConfig,
    include_se: bool = True,
    bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
) -> NetworkCost:
    """Lower a backbone config into its per-layer cost profile.

    Each layer shape is costed once per process (see :func:`_layer_runs`);
    MBConv layers carry their 1-based position as ``index`` and in their
    name, the paper's exit numbering.
    """
    cost = NetworkCost(config_key=config.key)
    index = 0
    for shape, repeats in _layer_runs(config, include_se, bytes_per_element):
        if shape.kind != "mbconv":
            cost.layers.append(shape)
            continue
        for _ in range(repeats):
            index += 1
            cost.layers.append(
                LayerCost(
                    f"mbconv{index}", "mbconv", index, shape.macs, shape.params,
                    shape.input_bytes, shape.output_bytes, shape.weight_bytes,
                )
            )
    return cost


@dataclass(frozen=True)
class LayerTable:
    """Per-layer MACs and DRAM traffic of ``B`` layer sequences, stacked.

    Row ``i`` of the ``(B, L)`` matrices holds sequence ``i``'s first
    ``lengths[i]`` layers in execution order and zeros after them; every
    length is at least 1.  The roofline and energy models run one array
    pass over the whole table (:meth:`repro.hardware.energy.EnergyModel.
    population_report`).
    """

    macs: np.ndarray
    traffic: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of_configs(
        cls,
        configs: Sequence[BackboneConfig],
        include_se: bool = True,
        bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
    ) -> "LayerTable":
        """The table of backbones, one row each — the values
        :func:`estimate_cost` gives, without building its layer lists."""
        runs = [
            run for config in configs for run in _layer_runs(config, include_se, bytes_per_element)
        ]
        count = len(runs)
        macs = np.fromiter((shape.macs for shape, _ in runs), np.float64, count)
        traffic = np.fromiter((shape.traffic_bytes for shape, _ in runs), np.float64, count)
        repeats = np.fromiter((times for _, times in runs), np.int64, count)
        lengths = repeats.reshape(len(configs), -1).sum(axis=1)
        return cls._stack(np.repeat(macs, repeats), np.repeat(traffic, repeats), lengths)

    @classmethod
    def of_layers(cls, sequences: Sequence[Sequence[LayerCost]]) -> "LayerTable":
        """The table of explicit layer sequences, one row each."""
        lengths = np.asarray([len(layers) for layers in sequences], dtype=np.int64)
        layers = [layer for sequence in sequences for layer in sequence]
        return cls._stack(
            np.asarray([layer.macs for layer in layers], dtype=np.float64),
            np.asarray([layer.traffic_bytes for layer in layers], dtype=np.float64),
            lengths,
        )

    @classmethod
    def _stack(cls, macs: np.ndarray, traffic: np.ndarray, lengths: np.ndarray) -> "LayerTable":
        """Rows from the sequences' layers laid end to end."""
        filled = np.arange(int(lengths.max())) < lengths[:, None]
        padded_macs, padded_traffic = np.zeros(filled.shape), np.zeros(filled.shape)
        # A boolean assignment fills row-major: each row takes its layers in order.
        padded_macs[filled], padded_traffic[filled] = macs, traffic
        return cls(padded_macs, padded_traffic, lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, rows) -> "LayerTable":
        """The sub-table of ``rows``."""
        return LayerTable(self.macs[rows], self.traffic[rows], self.lengths[rows])

    @property
    def total_macs(self) -> np.ndarray:
        """``(B,)`` MACs per sequence.  MACs are integer-valued floats far
        below 2**53, so this equals :attr:`NetworkCost.total_macs` exactly,
        whatever the summation order."""
        return self.macs.sum(axis=1)


def exit_branch_cost(
    in_channels: int,
    resolution: int,
    num_classes: int,
    branch_width: int | None = None,
    bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
) -> LayerCost:
    """Cost of the paper's exit branch at a given attachment point.

    The branch is one conv-BN-activation block followed by global pooling and
    a classifier (paper §IV-B1).  ``branch_width`` defaults to the input
    channel count.
    """
    width = branch_width or in_channels
    conv = _conv_cost("exit_conv", "sub", 0, in_channels, width, 3,
                      resolution, resolution, bytes_per_element=bytes_per_element)
    fc_macs = float(width * num_classes)
    fc_params = float(width * num_classes + num_classes)
    fc = LayerCost(
        "exit_fc", "sub", 0, fc_macs, fc_params,
        input_bytes=float(width * bytes_per_element),
        output_bytes=float(num_classes * bytes_per_element),
        weight_bytes=float(fc_params * bytes_per_element),
    )
    return _merge("exit_branch", "exit", 0, [conv, fc])
