"""Residual trunk and pyramid fusion: shapes, strides, wiring."""

import numpy as np
import pytest

from attnmask.attention import GATES, CBAMParams, apply_attention, make_attention
from attnmask.backbone import (
    StageConfig,
    backbone_forward,
    bottleneck_forward,
    fpn_fuse,
    init_backbone,
    init_bottleneck,
    init_fpn,
)
from attnmask.model import _walk
from attnmask.tensor import Tensor, max_pool2d
from oracles import zero_params


def test_stage_config_validation():
    with pytest.raises(ValueError, match=r"blocks must be of length 4, got \(1, 1, 1\)"):
        StageConfig(blocks=(1, 1, 1), widths=(8, 16, 32, 64))
    with pytest.raises(ValueError, match=r"widths must be strictly increasing, got \(64, 32, 16, 8\)"):
        StageConfig(widths=(64, 32, 16, 8))
    with pytest.raises(ValueError, match=r"widths must be divisible by 4, got \(6, 10, 14, 18\)"):
        StageConfig(widths=(6, 10, 14, 18))
    assert StageConfig().stem_channels == 64
    assert StageConfig.toy().stem_channels == 2


def test_bottleneck_identity_skip_vs_projection():
    rng = np.random.default_rng(0)
    same = init_bottleneck(8, 8, 1, "none", 4, "adaptive", rng)
    assert same.proj is None  # identity skip when shape is preserved
    strided = init_bottleneck(8, 8, 2, "none", 4, "adaptive", rng)
    assert strided.proj is not None
    widened = init_bottleneck(8, 16, 1, "none", 4, "adaptive", rng)
    assert widened.proj is not None


def test_bottleneck_shapes_and_nonnegative_output():
    rng = np.random.default_rng(1)
    x = Tensor(np.random.default_rng(2).standard_normal((1, 8, 8, 8)))
    p1 = init_bottleneck(8, 16, 1, "none", 4, "adaptive", rng)
    assert bottleneck_forward(x, p1).shape == (1, 16, 8, 8)
    p2 = init_bottleneck(8, 16, 2, "none", 4, "adaptive", rng)
    out = bottleneck_forward(x, p2)
    assert out.shape == (1, 16, 4, 4)
    assert (out.data >= 0).all()  # final relu


def test_bottleneck_attention_gate_attenuates():
    rng = np.random.default_rng(3)
    x = Tensor(np.abs(np.random.default_rng(4).standard_normal((1, 8, 6, 6))))
    plain = zero_params(init_bottleneck(8, 8, 1, "none", 4, "adaptive", rng))
    gated = zero_params(init_bottleneck(8, 8, 1, "cbam", 4, "adaptive", rng))
    assert isinstance(gated.attn, CBAMParams)
    # zero convs: residual branch is zero either way, skip passes through
    assert np.allclose(bottleneck_forward(x, plain).data, x.data)
    assert np.allclose(bottleneck_forward(x, gated).data, x.data)


def test_backbone_emits_c2_to_c5_with_halving():
    cfg = StageConfig.toy()
    params = init_backbone(cfg, "cbam", 4, "adaptive", np.random.default_rng(0))
    image = Tensor(np.random.default_rng(1).standard_normal((1, 3, 64, 64)))
    cmaps = backbone_forward(image, params)
    assert sorted(cmaps) == [2, 3, 4, 5]
    for lvl, width in zip((2, 3, 4, 5), cfg.widths):
        assert cmaps[lvl].shape == (1, width, 64 >> lvl, 64 >> lvl)


def test_backbone_rejects_indivisible_extent():
    params = init_backbone(StageConfig.toy(), "none", 4, "adaptive", np.random.default_rng(0))
    with pytest.raises(ValueError):
        backbone_forward(Tensor(np.zeros((1, 3, 60, 64))), params)


def test_backbone_variant_none_has_no_gates():
    params = init_backbone(StageConfig.toy(), "none", 4, "adaptive", np.random.default_rng(0))
    assert all(b.attn is None for stage in params.stages for b in stage)


def test_fpn_shapes_and_p6():
    widths = (8, 16, 32, 64)
    rng = np.random.default_rng(0)
    cmaps = {
        lvl: Tensor(np.random.default_rng(lvl).standard_normal((1, w, 64 >> lvl, 64 >> lvl)))
        for lvl, w in zip((2, 3, 4, 5), widths)
    }
    params = init_fpn(widths, 16, rng)
    pyr = fpn_fuse(cmaps, params, with_p6=True)
    assert sorted(pyr) == [2, 3, 4, 5, 6]
    for lvl in (2, 3, 4, 5):
        assert pyr[lvl].shape == (1, 16, 64 >> lvl, 64 >> lvl)
    assert pyr[6].shape == (1, 16, 1, 1)
    assert 6 not in fpn_fuse(cmaps, params, with_p6=False)


def test_fpn_topdown_actually_mixes_levels():
    # a bump in C5 must reach P2 through the upsample chain
    widths = (4, 4, 4, 4)
    params = init_fpn(widths, 4, np.random.default_rng(5))
    base = {
        lvl: Tensor(np.zeros((1, 4, 32 >> lvl, 32 >> lvl))) for lvl in (2, 3, 4, 5)
    }
    bumped = dict(base)
    bumped[5] = Tensor(np.ones((1, 4, 1, 1)))
    quiet = fpn_fuse(base, params, with_p6=False)
    loud = fpn_fuse(bumped, params, with_p6=False)
    assert not np.allclose(quiet[2].data, loud[2].data)


def _values_and_grads(fn, x, pw, params):
    """fn(x), and the gradients of sum(fn(x) * pw) for x and for each of params."""
    for p in params:
        p.grad = None
    leaf = Tensor(x, requires_grad=True)
    out = fn(leaf)
    (out * pw).sum().backward()
    return out.data, leaf.grad, [p.grad for p in params]


@pytest.mark.parametrize("op", ["max_pool2d", *GATES, "bottleneck"])
@pytest.mark.parametrize("seed", range(3))
def test_batch_of_two_equals_stacked_batches_of_one(op, seed):
    # each sample of a batch gets a batch-of-one call's values and input
    # gradient, bit for bit, and the parameter gradients sum over the samples
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 8, 6, 5))
    if op == "max_pool2d":
        params, fn = None, lambda t: max_pool2d(t, kernel=3, stride=2, padding=1)
    elif op == "bottleneck":
        params = init_bottleneck(8, 16, 2, "cbam", 4, "adaptive", rng)
        fn = lambda t: bottleneck_forward(t, params)
    else:
        params = make_attention(op, 8, 4, "adaptive", rng)
        fn = lambda t: apply_attention(t, params)
    leaves = []
    _walk(params, op, leaves)
    leaves = [t for _, t in leaves]
    pw = rng.standard_normal(fn(Tensor(x)).shape)

    out, dx, dparams = _values_and_grads(fn, x, pw, leaves)
    per = [_values_and_grads(fn, x[n : n + 1], pw[n : n + 1], leaves) for n in range(2)]
    if op == "se":
        # SE's MLP multiplies one descriptor row with a matrix-vector BLAS call
        # and two rows with a matrix-matrix call, which round differently
        same = lambda got, want: np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    else:
        same = np.testing.assert_array_equal
    same(out, np.concatenate([o for o, _, _ in per]))
    same(dx, np.concatenate([d for _, d, _ in per]))
    for i, got in enumerate(dparams):
        np.testing.assert_allclose(got, per[0][2][i] + per[1][2][i], rtol=0.0, atol=1e-12)
