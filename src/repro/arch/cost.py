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

from repro.arch.config import BackboneConfig, LayerSpec

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
def _mbconv_cost(
    spec: LayerSpec,
    include_se: bool,
    bytes_per_element: float,
) -> LayerCost:
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
    return _merge(f"mbconv{spec.index}", "mbconv", spec.index, parts)


def estimate_cost(
    config: BackboneConfig,
    include_se: bool = True,
    bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
) -> NetworkCost:
    """Lower a backbone config into its per-layer cost profile.

    MBConv layers are costed once per distinct :class:`LayerSpec`: the
    backbones of one search share most of their layers (a paper-budget
    search repeats about three in four), and the frozen :class:`LayerCost`
    is shared between their profiles.
    """
    cost = NetworkCost(config_key=config.key)
    for spec in config.layers():
        if spec.kind == "stem":
            cost.layers.append(
                _conv_cost("stem", "stem", 0, spec.in_channels, spec.out_channels,
                           spec.kernel, spec.in_resolution, spec.out_resolution,
                           bytes_per_element=bytes_per_element)
            )
        elif spec.kind == "mbconv":
            cost.layers.append(_mbconv_cost(spec, include_se, bytes_per_element))
        elif spec.kind == "head":
            cost.layers.append(
                _conv_cost("head", "head", 0, spec.in_channels, spec.out_channels,
                           1, spec.in_resolution, spec.out_resolution,
                           bytes_per_element=bytes_per_element)
            )
        elif spec.kind == "classifier":
            macs = float(spec.in_channels * spec.out_channels)
            params = float(spec.in_channels * spec.out_channels + spec.out_channels)
            cost.layers.append(
                LayerCost(
                    "classifier", "classifier", 0, macs, params,
                    input_bytes=float(spec.in_channels * bytes_per_element),
                    output_bytes=float(spec.out_channels * bytes_per_element),
                    weight_bytes=float(params * bytes_per_element),
                )
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown layer kind {spec.kind!r}")
    return cost


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
