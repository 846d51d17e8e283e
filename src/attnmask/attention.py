"""Channel and spatial feature gating blocks, listed once in `GATES`.

`GATES` maps each variant name to its parameter container, which builds
itself through its `init(channels, reduction, eca_kernel, rng)` classmethod,
and to its gates in the order they apply. A gate is a pure function of
(input, params) that returns the multiplier of an (N,C,H,W) input,
(N,C,1,1) over channels or (N,1,H,W) over positions, through a sigmoid so
it lies strictly in (0,1); `apply_attention` alone multiplies the gates in.
With all parameters zero each gate is exactly 0.5, which gives the handy
closed forms 0.5*F for a single gate and 0.25*F for the channel+spatial
cascade.

Defaults the surrounding literature settles and `model.ModelConfig`
exposes: MLP reduction ratio r (default 16), ReLU between the MLP layers,
and the adaptive kernel size of ECA's k-tap correlation across the
channels, which `eca_gate` takes as a gather of (C, k) windows times the
kernel. `make_attention` takes them as plain values, one block at a time.

One init rule holds for the whole detector: gates and trunk convs draw
"he_uniform", the heads' prediction layers "near_zero_uniform".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, concat, conv2d, gather_rows, linear, relu, sigmoid

__all__ = [
    "GATES",
    "VARIANTS",
    "MLPParams",
    "SpatialAttentionParams",
    "CBAMParams",
    "ECAParams",
    "channel_gate",
    "spatial_gate",
    "se_gate",
    "eca_gate",
    "make_attention",
    "apply_attention",
    "eca_kernel_size",
    "check_eca_kernel",
    "init_uniform",
]


def check_eca_kernel(k) -> None:
    """The one eca_kernel rule: an odd positive int, never a bool, or "adaptive"."""
    if k != "adaptive" and not (type(k) is int and k >= 1 and k % 2):
        raise ValueError(f"eca_kernel must be an odd positive int or 'adaptive', got {k!r}")


def init_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator, scheme: str) -> Tensor:
    """A trainable uniform draw under "he_uniform" or "near_zero_uniform"."""
    if scheme == "he_uniform":
        # variance 2/fan_in keeps activation scale steady across relu convs
        bound = math.sqrt(6.0 / max(fan_in, 1))
    elif scheme == "near_zero_uniform":
        # final prediction layers start near-neutral so the first updates
        # stay gentle instead of fighting confident random logits
        bound = 0.01
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def eca_kernel_size(channels: int) -> int:
    """Adaptive odd kernel from the channel count: grows like log2(C)/2,
    bumped to the next odd number, never below 3."""
    t = int(abs(math.log2(channels) + 1.0) / 2.0)
    k = t if t % 2 else t + 1
    return max(k, 3)


# -- parameter containers ------------------------------------------------------


@dataclass
class MLPParams:
    """The C -> C/r -> C MLP of the SE gate and of CBAM's channel gate."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, channels: int, reduction: int, eca_kernel: int | str, rng: np.random.Generator) -> "MLPParams":
        c, r = channels, reduction
        mid = c // r
        if c % r or mid < 1:
            raise ValueError(f"reduction {r} must divide channels {c} and leave hidden units")
        return cls(
            init_uniform((mid, c), c, rng, "he_uniform"),
            init_uniform((mid,), c, rng, "he_uniform"),
            init_uniform((c, mid), mid, rng, "he_uniform"),
            init_uniform((c,), mid, rng, "he_uniform"),
        )


@dataclass
class SpatialAttentionParams:
    """One 7x7 conv mapping the stacked [avg, max] channel maps to a gate."""

    w: Tensor  # (1, 2, 7, 7)
    b: Tensor  # (1,)

    @classmethod
    def init(cls, rng: np.random.Generator) -> "SpatialAttentionParams":
        return cls(
            w=init_uniform((1, 2, 7, 7), 2 * 49, rng, "he_uniform"),
            b=init_uniform((1,), 2 * 49, rng, "he_uniform"),
        )


@dataclass
class CBAMParams:
    cam: MLPParams
    sam: SpatialAttentionParams

    @classmethod
    def init(cls, channels: int, reduction: int, eca_kernel: int | str, rng: np.random.Generator) -> "CBAMParams":
        return cls(MLPParams.init(channels, reduction, eca_kernel, rng), SpatialAttentionParams.init(rng))


@dataclass
class ECAParams:
    """The k taps of the cross-channel correlation; no bias, matching the usual form."""

    w: Tensor

    @classmethod
    def init(cls, channels: int, reduction: int, eca_kernel: int | str, rng: np.random.Generator) -> "ECAParams":
        k = eca_kernel_size(channels) if eca_kernel == "adaptive" else eca_kernel
        return cls(w=init_uniform((k,), k, rng, "he_uniform"))


# -- gates ---------------------------------------------------------------------


def _mlp(rows: Tensor, p: MLPParams) -> Tensor:
    return linear(relu(linear(rows, p.w1, p.b1)), p.w2, p.b2)


def channel_gate(x: Tensor, params: CBAMParams) -> Tensor:
    """CBAM's (N,C,1,1) gate: sigmoid(MLP(avg pool) + MLP(max pool)), the 2N
    descriptors going through the shared MLP as one batch, averages first."""
    n, c = x.shape[:2]
    flat = x.reshape(n, c, -1)
    pooled = concat([flat.mean(axis=2), flat.max(axis=2)])
    return sigmoid(_mlp(pooled, params.cam).reshape(2, n, c).sum(axis=0)).reshape(n, c, 1, 1)


def spatial_gate(x: Tensor, params: CBAMParams) -> Tensor:
    """CBAM's (N,1,H,W) gate: a 7x7 conv over the stacked channel avg/max maps."""
    n, _, h, w = x.shape
    stacked = concat([x.mean(axis=1), x.max(axis=1)], axis=1).reshape(n, 2, h, w)
    return sigmoid(conv2d(stacked, params.sam.w, params.sam.b, stride=1, padding=3))


def se_gate(x: Tensor, params: MLPParams) -> Tensor:
    """(N,C,1,1) gate from the spatially averaged descriptor alone."""
    n, c = x.shape[:2]
    squeezed = x.reshape(n, c, -1).mean(axis=2)
    return sigmoid(_mlp(squeezed, params)).reshape(n, c, 1, 1)


def eca_gate(x: Tensor, params: ECAParams) -> Tensor:
    """(N,C,1,1) gate from a k-tap correlation across each pooled channel
    vector: the (C, k) windows of its zero-padded row, gathered, times the kernel."""
    n, c, k = *x.shape[:2], params.w.shape[0]
    pad = Tensor(np.zeros((n, k // 2)))
    rows = concat([pad, x.reshape(n, c, -1).mean(axis=2), pad], axis=1)
    starts = np.arange(n)[:, None] * rows.shape[1] + np.arange(c)
    windows = gather_rows(rows.reshape(-1), starts.reshape(-1, 1) + np.arange(k))
    return sigmoid(linear(windows, params.w.reshape(1, k), Tensor(np.zeros(1)))).reshape(n, c, 1, 1)


# -- the variant table -----------------------------------------------------------

# name -> (parameter container, gates in the order they apply); each
# container type appears once, and each gate reads the map the gates before
# it have already scaled
GATES = {
    "se": (MLPParams, (se_gate,)),
    "eca": (ECAParams, (eca_gate,)),
    "cbam": (CBAMParams, (channel_gate, spatial_gate)),
}
VARIANTS = ("none",) + tuple(GATES)


def make_attention(variant: str, channels: int, reduction: int, eca_kernel: int | str, rng: np.random.Generator):
    """Build the parameter container of a variant's gate over a map of
    `channels` channels, with MLP ratio `reduction` (it must divide
    `channels`) and ECA kernel `eca_kernel` (odd, or "adaptive"); None for
    "none"."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    check_eca_kernel(eca_kernel)
    entry = GATES.get(variant)
    return None if entry is None else entry[0].init(channels, reduction, eca_kernel, rng)


def apply_attention(x: Tensor, params) -> Tensor:
    """Multiply in, one after another, the gates of the variant whose
    container type params has; None is the identity."""
    if params is None:
        return x
    for container, gates in GATES.values():
        if type(params) is container:
            for gate in gates:
                x = x * gate(x, params)
            return x
    raise TypeError(f"unknown attention params {type(params).__name__}")
