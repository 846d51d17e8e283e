"""Gating blocks: closed forms at zero parameters, shapes, dispatch."""

import numpy as np
import pytest

from attnmask.attention import (
    GATES,
    VARIANTS,
    AttentionConfig,
    CBAMParams,
    ECAParams,
    MLPParams,
    apply_attention,
    channel_gate,
    eca_gate,
    eca_kernel_size,
    init_uniform,
    make_attention,
    spatial_gate,
)
from attnmask.model import ModelConfig, build_model
from attnmask.tensor import Tensor, grad_check
from oracles import attention_reference


def _zero_params(variant, channels=8, reduction=4):
    rng = np.random.default_rng(0)
    cfg = AttentionConfig(channels=channels, reduction=reduction, variant=variant, init="zeros")
    return make_attention(cfg, rng)


@pytest.mark.parametrize("seed", range(10))
def test_cbam_zero_params_quarter_identity(seed):
    # both gates sit at sigmoid(0) = 0.5, so the cascade is 0.25 * F
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 8, 6, 6))
    out = apply_attention(Tensor(x), _zero_params("cbam"))
    assert np.allclose(out.data, 0.25 * x, atol=1e-15)


@pytest.mark.parametrize("variant,block", [("se", "se_block"), ("eca", "eca_block")])
@pytest.mark.parametrize("seed", range(5))
def test_single_gate_zero_params_half_identity(variant, block, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 8, 5, 7))
    params = _zero_params(variant)
    (gate,) = GATES[variant][1]
    assert (gate(Tensor(x), params).data == 0.5).all(), f"{block} gate is not sigmoid(0)"
    out = apply_attention(Tensor(x), params)
    assert np.allclose(out.data, 0.5 * x, atol=1e-15)


def test_gates_preserve_shape_and_bound_output():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 16, 4, 4))
    for variant in GATES:
        params = make_attention(
            AttentionConfig(channels=16, reduction=4, variant=variant), np.random.default_rng(1)
        )
        out = apply_attention(Tensor(x), params)
        assert out.shape == x.shape
        # multiplicative gates in (0,1) can never grow a magnitude
        assert (np.abs(out.data) <= np.abs(x) + 1e-12).all()


def test_channel_then_spatial_composition():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 8, 5, 5))
    params = make_attention(AttentionConfig(channels=8, reduction=4, variant="cbam"), np.random.default_rng(1))
    cgate = channel_gate(Tensor(x), params)
    assert cgate.shape == (1, 8, 1, 1)
    mid = Tensor(x) * cgate
    # the spatial gate reads the channel-gated map, not the input
    sgate = spatial_gate(mid, params)
    assert sgate.shape == (1, 1, 5, 5)
    assert not np.array_equal(sgate.data, spatial_gate(Tensor(x), params).data)
    np.testing.assert_array_equal(apply_attention(Tensor(x), params).data, (mid * sgate).data)


def test_eca_kernel_adaptive_rule():
    # grows like log2(C)/2 rounded up to odd, floored at 3
    assert eca_kernel_size(8) == 3
    assert eca_kernel_size(64) == 3
    assert eca_kernel_size(256) == 5
    assert eca_kernel_size(1024) == 5
    for c in (4, 16, 32, 128, 512):
        assert eca_kernel_size(c) % 2 == 1


def test_eca_fixed_kernel_config():
    params = make_attention(
        AttentionConfig(channels=8, reduction=4, variant="eca", eca_kernel=5),
        np.random.default_rng(0),
    )
    assert params.kernel == 5


@pytest.mark.parametrize("make", [lambda k: AttentionConfig(channels=8, reduction=4, variant="eca", eca_kernel=k),
                                  lambda k: ModelConfig(eca_kernel=k)], ids=["AttentionConfig", "ModelConfig"])
@pytest.mark.parametrize("kernel", [True, -3, 0, 4, "big"])
def test_eca_kernel_has_one_rule(make, kernel):
    # booleans are never kernel sizes, and a negative one fails here, not in init_uniform
    with pytest.raises(ValueError, match=f"eca_kernel must be an odd positive int or 'adaptive', got {kernel!r}"):
        make(kernel)


def test_make_attention_dispatch_and_none():
    rng = np.random.default_rng(0)
    assert make_attention(AttentionConfig(channels=8, reduction=4, variant="none"), rng) is None
    assert isinstance(make_attention(AttentionConfig(channels=8, reduction=4, variant="cbam"), rng), CBAMParams)
    assert isinstance(make_attention(AttentionConfig(channels=8, reduction=4, variant="se"), rng), MLPParams)
    assert isinstance(make_attention(AttentionConfig(channels=8, reduction=4, variant="eca"), rng), ECAParams)
    x = Tensor(np.ones((1, 2, 2, 2)))
    assert apply_attention(x, None) is x
    assert VARIANTS == ("none", "se", "eca", "cbam")
    with pytest.raises(TypeError):
        apply_attention(x, object())


# attn.* parameter names of one gated block, in walk order: checkpoint keys
_ATTN_KEYS = {
    "none": [],
    "se": ["w1", "b1", "w2", "b2"],
    "eca": ["w"],
    "cbam": ["cam.w1", "cam.b1", "cam.w2", "cam.b2", "sam.w", "sam.b"],
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_table_builds_applies_and_names_params(variant):
    params = make_attention(AttentionConfig(channels=8, reduction=4, variant=variant), np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((1, 8, 5, 5)))
    if variant == "none":
        assert params is None and apply_attention(x, params) is x
    else:
        container, gates = GATES[variant]
        assert type(params) is container
        want = x
        for gate in gates:
            want = want * gate(want, params)
        assert np.array_equal(apply_attention(x, params).data, want.data)

    model = build_model(ModelConfig.toy(variant), seed=0)
    per_block: dict[str, list] = {}
    for name, _ in model.named_params():
        if ".attn." in name:
            block, key = name.split(".attn.")
            per_block.setdefault(block, []).append(key)
    blocks = [f"backbone.stages.{s}.0" for s in range(4)] if _ATTN_KEYS[variant] else []
    assert list(per_block) == blocks
    assert all(keys == _ATTN_KEYS[variant] for keys in per_block.values())


def test_reduction_must_leave_hidden_units():
    with pytest.raises(ValueError):
        make_attention(AttentionConfig(channels=4, reduction=8, variant="se"), np.random.default_rng(0))
    # 12 channels leave a hidden unit at r=8, but r must also divide C; the
    # cross-channel conv has no MLP, so the same reduction is fine there
    for variant in ("se", "cbam"):
        with pytest.raises(ValueError, match="must divide channels 12"):
            make_attention(AttentionConfig(channels=12, reduction=8, variant=variant), np.random.default_rng(0))
    make_attention(AttentionConfig(channels=12, reduction=8, variant="eca"), np.random.default_rng(0))


def test_init_uniform_schemes():
    rng = np.random.default_rng(0)
    fan = 64
    w = init_uniform((100, fan), fan, rng, "fan_in_uniform")
    assert w.requires_grad
    assert np.abs(w.data).max() <= 1.0 / np.sqrt(fan)
    he = init_uniform((100, fan), fan, rng, "he_uniform")
    assert np.abs(he.data).max() <= np.sqrt(6.0 / fan)
    assert np.abs(he.data).max() > 1.0 / np.sqrt(fan)  # wider than fan-in scaling
    tiny = init_uniform((100, fan), fan, rng, "near_zero_uniform")
    assert np.abs(tiny.data).max() <= 0.01
    zeros = init_uniform((5,), fan, rng, "zeros")
    assert not zeros.data.any()
    with pytest.raises(ValueError):
        init_uniform((2, 2), 4, rng, "xavier")


def test_config_rejects_unknown_variant():
    with pytest.raises(ValueError):
        AttentionConfig(channels=8, reduction=4, variant="senet")


# ECA kernels 1-7 over 4 and 8 channels; k = 7 over 4 channels pads wider
# than half the pooled vector, so some windows hold more zeros than values
_ECA_SIZES = [(k, c) for k in (1, 3, 5, 7) for c in (4, 8)]


@pytest.mark.parametrize(
    "variant,channels,eca_kernel",
    [pytest.param(v, 8, "adaptive", id=v) for v in GATES]
    + [pytest.param("eca", c, k, id=f"eca-k{k}-c{c}") for k, c in _ECA_SIZES],
)
def test_gates_match_equation_oracle(variant, channels, eca_kernel):
    # he_uniform weights push the gates well away from their 0.5 midpoint
    rng = np.random.default_rng(5)
    cfg = AttentionConfig(channels, reduction=2, variant=variant, eca_kernel=eca_kernel, init="he_uniform")
    params = make_attention(cfg, rng)
    x = rng.standard_normal((1, channels, 6, 5))
    got = apply_attention(Tensor(x), params).data
    np.testing.assert_allclose(got[0], attention_reference(x[0], variant, params), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("k,c", _ECA_SIZES, ids=[f"k{k}-c{c}" for k, c in _ECA_SIZES])
def test_eca_gate_gradients(k, c):
    rng = np.random.default_rng(k * 10 + c)
    x = rng.standard_normal((1, c, 3, 4))
    w = rng.uniform(-1.0, 1.0, k)
    probe = Tensor(rng.standard_normal((1, c, 1, 1)))  # weights every gate entry differently
    assert grad_check(lambda t: (eca_gate(t, ECAParams(Tensor(w))) * probe).sum(), Tensor(x)) < 1e-6
    assert grad_check(lambda t: (eca_gate(Tensor(x), ECAParams(t)) * probe).sum(), Tensor(w)) < 1e-6
