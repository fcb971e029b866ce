"""Concrete backbone architecture descriptions.

A :class:`BackboneConfig` is a fully resolved subnet: stem width, seven MBConv
stages (width, depth, kernel, expand, stride), head width, input resolution.
It knows how to unroll itself into an ordered list of :class:`LayerSpec`
records — the granularity at which exits attach (paper §IV-B1: layer-wise,
after MBConv layers) and at which the cost model operates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.utils.validation import check_positive

#: Stage strides used by the AttentiveNAS macro-architecture (stem stride 2).
STAGE_STRIDES: tuple[int, ...] = (1, 2, 2, 2, 1, 2, 1)

#: Overall downsampling factor from input resolution to final feature map.
TOTAL_STRIDE: int = 32


@dataclass(frozen=True)
class StageConfig:
    """One MBConv stage: ``depth`` repeated inverted-residual layers."""

    width: int
    depth: int
    kernel: int
    expand: int
    stride: int = 1

    def __post_init__(self):
        check_positive("width", self.width)
        check_positive("depth", self.depth)
        if self.kernel not in (3, 5):
            raise ValueError(f"kernel must be 3 or 5, got {self.kernel}")
        if self.expand not in (1, 4, 5, 6):
            raise ValueError(f"expand must be in {{1, 4, 5, 6}}, got {self.expand}")


@dataclass(frozen=True)
class LayerSpec:
    """A single resolved layer in the unrolled backbone.

    ``kind`` is one of ``stem``, ``mbconv``, ``head`` (final 1x1 conv) or
    ``classifier``.  ``index`` numbers MBConv layers from 1 — the paper's
    exit positions refer to this numbering.
    """

    kind: str
    index: int
    in_channels: int
    out_channels: int
    kernel: int
    expand: int
    stride: int
    in_resolution: int
    stage: int = -1

    @property
    def out_resolution(self) -> int:
        if self.kind == "classifier":
            return 1
        return max(1, self.in_resolution // self.stride)


@dataclass(frozen=True)
class BackboneConfig:
    """A fully specified backbone subnet (one point of the B space)."""

    resolution: int
    stem_width: int
    stages: tuple[StageConfig, ...]
    head_width: int
    num_classes: int = 100

    def __post_init__(self):
        if len(self.stages) != len(STAGE_STRIDES):
            raise ValueError(
                f"expected {len(STAGE_STRIDES)} stages, got {len(self.stages)}"
            )
        for i, (stage, stride) in enumerate(zip(self.stages, STAGE_STRIDES)):
            if stage.stride != stride:
                raise ValueError(
                    f"stage {i} must have stride {stride} (macro architecture), got {stage.stride}"
                )

    # ------------------------------------------------------------ structure
    @property
    def total_mbconv_layers(self) -> int:
        """Sum of stage depths — the paper's Σ l_i."""
        return sum(s.depth for s in self.stages)

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(s.depth for s in self.stages)

    def layers(self) -> list[LayerSpec]:
        """Unroll into the ordered layer sequence (stem, MBConvs, head, cls)."""
        specs: list[LayerSpec] = []
        res = self.resolution
        specs.append(
            LayerSpec("stem", 0, 3, self.stem_width, 3, 1, 2, res)
        )
        res = res // 2
        channels = self.stem_width
        mb_index = 0
        for stage_idx, stage in enumerate(self.stages):
            for layer_in_stage in range(stage.depth):
                stride = stage.stride if layer_in_stage == 0 else 1
                mb_index += 1
                specs.append(
                    LayerSpec(
                        "mbconv",
                        mb_index,
                        channels,
                        stage.width,
                        stage.kernel,
                        stage.expand,
                        stride,
                        res,
                        stage=stage_idx,
                    )
                )
                res = max(1, res // stride)
                channels = stage.width
        specs.append(LayerSpec("head", 0, channels, self.head_width, 1, 1, 1, res))
        specs.append(
            LayerSpec("classifier", 0, self.head_width, self.num_classes, 1, 1, 1, res)
        )
        return specs

    def channels_at_layer(self, position: int) -> int:
        """Output channels of MBConv layer ``position`` (1-based)."""
        if not 1 <= position <= self.total_mbconv_layers:
            raise ValueError(
                f"position must be in [1, {self.total_mbconv_layers}], got {position}"
            )
        for spec in self.layers():
            if spec.kind == "mbconv" and spec.index == position:
                return spec.out_channels
        raise AssertionError("unreachable")

    def describe(self) -> str:
        """One-line human summary."""
        stage_str = "-".join(
            f"w{s.width}d{s.depth}k{s.kernel}e{s.expand}" for s in self.stages
        )
        return (
            f"res{self.resolution}/stem{self.stem_width}/{stage_str}/head{self.head_width}"
        )

    @cached_property
    def key(self) -> str:
        """Stable identity string (used for caching evaluations).

        Rendered once per instance: the config is immutable, and the key is
        read several times per evaluation (memo, cache key, noise streams).
        ``cached_property`` writes straight into ``__dict__``, which frozen
        dataclasses permit; equality and hashing still see only the fields.
        """
        return self.describe()

    def __getstate__(self) -> dict:
        # Pickles carry the fields only, as before the key was cached, so
        # persisted entries and task payloads keep their bytes; an
        # unpickled config renders its key again on first read.
        state = dict(self.__dict__)
        state.pop("key", None)
        return state
