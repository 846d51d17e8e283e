"""Residual bottleneck stages and top-down pyramid fusion.

The backbone is a four-stage bottleneck network behind a 7x7 stride-2 stem
conv and a 3x3 stride-2 max pool, so stage outputs C2..C5 sit at strides
4/8/16/32. An optional gating block (see attention.py) wraps each
bottleneck's residual branch right before the skip addition.

Pyramid fusion maps every C_i to a shared width d with a 1x1 lateral conv,
adds the 2x nearest-neighbor upsampling of the level above, and smooths
each sum with a 3x3 conv. P6, when enabled, is a stride-2 max pool of the
smoothed P5 and hosts the largest anchor scale.

No normalization layers anywhere: plain conv + ReLU keeps forward passes
exactly reproducible and gradient checks tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionConfig, apply_attention, init_uniform, make_attention
from .tensor import Tensor, conv2d, max_pool2d, relu, upsample_nearest

__all__ = [
    "ConvParams",
    "StageConfig",
    "BottleneckParams",
    "BackboneParams",
    "FPNParams",
    "init_conv",
    "init_bottleneck",
    "init_backbone",
    "init_fpn",
    "bottleneck_forward",
    "backbone_forward",
    "fpn_fuse",
]


@dataclass
class ConvParams:
    w: Tensor
    b: Tensor


def init_conv(cout: int, cin: int, k: int, rng: np.random.Generator, scheme: str = "he_uniform") -> ConvParams:
    """Weights from init_uniform under the given scheme; biases zero."""
    fan_in = cin * k * k
    w = init_uniform((cout, cin, k, k), fan_in, rng, scheme)
    return ConvParams(w, Tensor(np.zeros(cout), requires_grad=True))


@dataclass(frozen=True)
class StageConfig:
    """Bottleneck counts and output widths for the four stages.

    Widths are the expanded (post 1x1-expand) channel counts; each
    bottleneck squeezes to width/4 internally. The stem emits width/4 of
    the first stage, matching the classic 64-into-256 ratio.
    """

    blocks: tuple[int, int, int, int] = (3, 4, 6, 3)
    widths: tuple[int, int, int, int] = (256, 512, 1024, 2048)

    def __post_init__(self):
        if len(self.blocks) != 4 or len(self.widths) != 4:
            raise ValueError("exactly four stages required")
        if list(self.widths) != sorted(set(self.widths)):
            raise ValueError("stage widths must be strictly increasing")
        if any(w % 4 for w in self.widths):
            raise ValueError("stage widths must be divisible by 4")

    @property
    def stem_channels(self) -> int:
        return self.widths[0] // 4

    @classmethod
    def reference(cls) -> "StageConfig":
        return cls()

    @classmethod
    def toy(cls) -> "StageConfig":
        return cls(blocks=(1, 1, 1, 1), widths=(8, 16, 32, 64))


@dataclass
class BottleneckParams:
    """1x1 reduce, 3x3, 1x1 expand, optional projection skip, optional gate.

    The projection conv is present exactly when the block strides or
    changes channel count; the gate wraps the residual branch output.
    """

    conv1: ConvParams
    conv2: ConvParams
    conv3: ConvParams
    proj: ConvParams | None
    attn: object | None
    stride: int


def init_bottleneck(
    cin: int,
    cout: int,
    stride: int,
    attn_cfg: AttentionConfig,
    rng: np.random.Generator,
    scheme: str = "he_uniform",
) -> BottleneckParams:
    mid = cout // 4
    needs_proj = stride != 1 or cin != cout
    return BottleneckParams(
        conv1=init_conv(mid, cin, 1, rng, scheme),
        conv2=init_conv(mid, mid, 3, rng, scheme),
        conv3=init_conv(cout, mid, 1, rng, scheme),
        proj=init_conv(cout, cin, 1, rng, scheme) if needs_proj else None,
        attn=make_attention(attn_cfg, rng),
        stride=stride,
    )


def bottleneck_forward(x: Tensor, p: BottleneckParams) -> Tensor:
    """ReLU(skip(x) + gate(residual_branch(x)))."""
    h = relu(conv2d(x, p.conv1.w, p.conv1.b))
    h = relu(conv2d(h, p.conv2.w, p.conv2.b, stride=p.stride, padding=1))
    h = conv2d(h, p.conv3.w, p.conv3.b)
    h = apply_attention(h, p.attn)
    skip = x if p.proj is None else conv2d(x, p.proj.w, p.proj.b, stride=p.stride)
    return relu(skip + h)


@dataclass
class BackboneParams:
    stem: ConvParams
    stages: list = field(default_factory=list)  # list of lists of BottleneckParams


def init_backbone(
    cfg: StageConfig,
    variant: str,
    rng: np.random.Generator,
    reduction: int = 16,
    eca_kernel: int | str = "adaptive",
    scheme: str = "he_uniform",
) -> BackboneParams:
    """Build all backbone parameters; the gate variant applies to every block."""
    stem = init_conv(cfg.stem_channels, 3, 7, rng, scheme)
    stages = []
    cin = cfg.stem_channels
    for stage_idx, (n_blocks, width) in enumerate(zip(cfg.blocks, cfg.widths)):
        blocks = []
        attn_cfg = AttentionConfig(width, reduction, variant, eca_kernel, init=scheme)
        for block_idx in range(n_blocks):
            stride = 2 if stage_idx > 0 and block_idx == 0 else 1
            blocks.append(init_bottleneck(cin, width, stride, attn_cfg, rng, scheme))
            cin = width
        stages.append(blocks)
    return BackboneParams(stem=stem, stages=stages)


def backbone_forward(image: Tensor, params: BackboneParams) -> dict[int, Tensor]:
    """Run the stem and all stages on an (N,3,H,W) batch; returns {2: C2, ..., 5: C5}."""
    h, w = image.shape[-2:]
    if h % 32 or w % 32:
        raise ValueError(f"image extent {h}x{w} must be divisible by 32")
    x = relu(conv2d(image, params.stem.w, params.stem.b, stride=2, padding=3))
    x = max_pool2d(x, kernel=3, stride=2, padding=1)
    out: dict[int, Tensor] = {}
    for i, blocks in enumerate(params.stages):
        for block in blocks:
            x = bottleneck_forward(x, block)
        out[i + 2] = x
    return out


@dataclass
class FPNParams:
    laterals: dict  # level -> ConvParams, 1x1
    smooths: dict  # level -> ConvParams, 3x3


def init_fpn(widths: tuple[int, int, int, int], dim: int, rng: np.random.Generator,
             scheme: str = "he_uniform") -> FPNParams:
    laterals = {lvl: init_conv(dim, w, 1, rng, scheme) for lvl, w in zip((2, 3, 4, 5), widths)}
    smooths = {lvl: init_conv(dim, dim, 3, rng, scheme) for lvl in (2, 3, 4, 5)}
    return FPNParams(laterals=laterals, smooths=smooths)


def fpn_fuse(cmaps: dict[int, Tensor], params: FPNParams, with_p6: bool = True) -> dict[int, Tensor]:
    """Top-down fusion of {C2..C5} into equal-width {P2..P5} (+P6).

    P5 = lat5(C5); going down, P_i = lat_i(C_i) + 2x upsample of P_{i+1},
    with the addition strictly elementwise on shape-identical maps. Every
    level is then smoothed by its 3x3 conv; P6 subsamples smoothed P5.
    """
    fused = {5: conv2d(cmaps[5], params.laterals[5].w, params.laterals[5].b)}
    for lvl in (4, 3, 2):
        lat = conv2d(cmaps[lvl], params.laterals[lvl].w, params.laterals[lvl].b)
        up = upsample_nearest(fused[lvl + 1])
        if lat.shape != up.shape:
            raise ValueError(f"fusion shape mismatch at P{lvl}: {lat.shape} vs {up.shape}")
        fused[lvl] = lat + up
    out = {
        lvl: conv2d(fused[lvl], params.smooths[lvl].w, params.smooths[lvl].b, padding=1)
        for lvl in (2, 3, 4, 5)
    }
    if with_p6:
        out[6] = max_pool2d(out[5], kernel=1, stride=2)
    return out
