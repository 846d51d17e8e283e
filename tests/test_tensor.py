"""Autodiff core: forward values against numpy, gradients against FD."""

import re
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attnmask.tensor import (
    Tensor,
    clamp,
    concat,
    conv2d,
    gather_rows,
    grad_check,
    linear,
    log,
    log_softmax,
    max_pool2d,
    no_grad,
    relu,
    sigmoid,
    smooth_l1,
    upsample_nearest,
)
from oracles import conv2d_grads_reference, conv2d_reference, max_pool2d_reference


def test_leaf_defaults_and_item():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert t.shape == (2, 3)
    assert t.ndim == 2
    assert t.size == 6
    assert not t.requires_grad
    assert Tensor(np.array(3.5)).item() == 3.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tensor_rejects_non_finite_values(bad):
    with pytest.raises(FloatingPointError):
        Tensor(bad)
    arr = np.ones((2, 3))
    arr[1, 2] = bad
    with pytest.raises(FloatingPointError):
        Tensor(arr)


def test_op_whose_result_overflows_is_rejected():
    big = Tensor(np.array([1.0, 1e308]))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        big * 10.0
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        big + big


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("op", ["add", "mul"])
def test_non_finite_array_operand_is_rejected(op, bad):
    # an array operand is a constant, never a Tensor, so the output's scan is
    # what catches it: against a 0.0 of the Tensor, inf * 0.0 is nan
    x = np.array([[[[1.0]], [[0.0]]]])  # (1, 2, 1, 1): a channel gate's shape
    for shape, cell in (((1, 2, 1, 1), (0, 0, 0, 0)), ((1, 2, 1, 1), (0, 1, 0, 0)), ((1, 2, 3, 3), (0, 1, 2, 1))):
        if op == "add" and shape != x.shape:
            continue
        arr = np.ones(shape)
        arr[cell] = bad
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            Tensor(x) + arr if op == "add" else Tensor(x) * arr


def test_array_operand_is_a_constant_not_a_node():
    t = Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
    gate = np.array([[[[2.0]], [[3.0]]]])
    for out in (t + np.full((1, 2, 3, 3), 2.0), t * gate, t * 2.0):
        assert out._parents == (t,) and out.requires_grad
    (t * gate).sum().backward()
    assert np.array_equal(t.grad, np.broadcast_to(gate, t.shape))


@pytest.mark.parametrize("axis", [None, 0, 1, 2, -1])
def test_mean_is_one_node_bit_equal_to_sum_times_reciprocal(axis):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4, 7)) * 3.0
    c = 1.0 / (x.size if axis is None else x.shape[axis])
    t, ref = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
    out, ref_out = t.mean(axis), ref.sum(axis) * c
    assert out._parents == (t,)
    pw = rng.standard_normal(out.shape)
    (out * pw).sum().backward()
    (ref_out * pw).sum().backward()
    _same_bytes(out.data, ref_out.data)
    _same_bytes(out.data, np.asarray(x.sum(axis=axis) * c))
    _same_bytes(t.grad, ref.grad)


# finite extremes: the largest magnitudes, the smallest subnormals, the smallest normal and both zeros
_FINITE_EDGES = (1.79e308, -1.79e308, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0)


@settings(max_examples=80)
@given(
    x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=4, max_dims=4, min_side=1, max_side=4),
        elements=st.one_of(st.sampled_from(_FINITE_EDGES), st.floats(allow_nan=False, allow_infinity=False)),
    ),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
    data=st.data(),
)
def test_scan_free_ops_keep_finite_inputs_finite(x, kernel, stride, data):
    # these ops skip the finiteness scan: their outputs are finite by construction
    padding = data.draw(st.integers(0, kernel - 1))
    n, _, h, w = x.shape
    t = Tensor(x)
    outs = [t.reshape(-1), t.transpose((3, 1, 2, 0)), -t, t.max(1), relu(t), sigmoid(t),
            upsample_nearest(t), concat([t, -t], axis=1), gather_rows(t, np.array([n - 1, 0, n - 1]))]
    if _extent(h, kernel, stride, padding) >= 1 and _extent(w, kernel, stride, padding) >= 1:
        outs.append(max_pool2d(t, kernel, stride, padding))
    for out in outs:
        assert np.isfinite(out.data).all()


@pytest.mark.parametrize("kernel, padding", [(1, 1), (3, 3), (2, 5)])
def test_max_pool2d_rejects_padding_at_or_above_the_kernel(kernel, padding):
    # such padding leaves a window of border cells alone, whose max is -inf
    with pytest.raises(ValueError, match=f"padding {padding} must be below the kernel size {kernel}"):
        max_pool2d(Tensor(np.ones((1, 1, 4, 4))), kernel, 1, padding)


def test_add_mul_same_shape_values():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    assert np.allclose((Tensor(a) + Tensor(b)).data, a + b)
    assert np.allclose((Tensor(a) * Tensor(b)).data, a * b)
    assert np.allclose((Tensor(a) + (-Tensor(b))).data, a - b)
    assert np.allclose((Tensor(a) * 2.0).data, a * 2)
    assert np.allclose((Tensor(a) + b).data, a + b)  # ndarray operand


def test_operator_forms_are_the_ones_the_detector_uses():
    # + takes a Tensor or an equal-shape array on the right; * also takes a
    # float; there is no -, and neither operator is reflected
    t = Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="add shape mismatch"):
        t + 1.0
    for op in (lambda: t - t, lambda: 1.0 + t, lambda: 2.0 * t, lambda: 1.0 - t):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        t.reshape((3, 2))


def test_broadcast_rules():
    x = Tensor(np.ones((1, 3, 4, 5)))
    gate = Tensor(np.full((1, 3, 1, 1), 0.5))
    spatial = Tensor(np.full((1, 1, 4, 5), 2.0))
    assert (x * gate).data.shape == (1, 3, 4, 5)
    assert (x * spatial).data.shape == (1, 3, 4, 5)
    with pytest.raises(ValueError):
        _ = Tensor(np.ones((3, 4))) * Tensor(np.ones((4, 3)))


@pytest.mark.parametrize(
    "a, b",
    [((3, 4, 5), (3, 1, 1)), ((3, 4, 5), (1, 4, 5)), ((1, 3, 4, 5), (2, 3, 1, 1)), ((2, 3, 4, 5), (1, 1, 4, 5))],
    ids=["3d-channel", "3d-spatial", "channel-gate-of-2", "spatial-gate-of-1"],
)
def test_mul_broadcasts_only_per_sample_gates(a, b):
    with pytest.raises(ValueError, match="unsupported multiply broadcast"):
        _ = Tensor(np.ones(a)) * Tensor(np.ones(b))


def test_broadcast_gradient_reduces():
    # d/dgate sum(x * gate) must sum over the broadcast axes
    x = np.arange(24.0).reshape(1, 2, 3, 4)
    gate = Tensor(np.array([[[[2.0]], [[3.0]]]]), requires_grad=True)
    out = (Tensor(x) * gate).sum()
    out.backward()
    assert np.allclose(gate.grad.reshape(2), x.sum(axis=(2, 3)))


def test_backward_accumulates_through_reuse():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1
    y.sum().backward()
    assert np.allclose(x.grad, [7.0])


def test_sum_axis_and_mean():
    a = np.arange(12.0).reshape(3, 4)
    assert np.allclose(Tensor(a).sum(axis=0).data, a.sum(axis=0))
    assert np.allclose(Tensor(a).sum(axis=-1).data, a.sum(axis=-1))
    assert Tensor(a).mean().item() == pytest.approx(a.mean())


def test_reshape_transpose_roundtrip():
    a = np.arange(24.0).reshape(2, 3, 4)
    t = Tensor(a, requires_grad=True)
    out = t.transpose((2, 0, 1)).reshape(-1).sum()
    out.backward()
    assert np.allclose(t.grad, np.ones_like(a))
    assert np.allclose(Tensor(a).transpose((2, 0, 1)).data, a.transpose(2, 0, 1))


def test_relu_sigmoid_log_clamp_values():
    a = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(relu(Tensor(a)).data, np.maximum(a, 0))
    assert np.allclose(sigmoid(Tensor(a)).data, 1 / (1 + np.exp(-a)))
    assert np.allclose(clamp(Tensor(a), -1.0, 1.0).data, np.clip(a, -1, 1))
    pos = np.array([0.5, 1.0, 3.0])
    assert np.allclose(log(Tensor(pos)).data, np.log(pos))


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_relu_equals_the_select_rule_bit_for_bit():
    # np.where(x > 0, x, 0.0) writes +0.0 for both zeros: a kept -0.0 would differ in its sign bit
    edge = np.array([-0.0, 0.0, 1e308, -1e308, 5e-324, -5e-324, 1.0, -1.0])
    rand = np.random.default_rng(0).standard_normal((2, 3, 5, 5))
    rand[0, 0, 0] = -0.0
    for x in (edge, rand):
        _same_bytes(relu(Tensor(x)).data, np.where(x > 0, x, 0.0))
    assert np.signbit(relu(Tensor(edge)).data).sum() == 0


def _sigmoid_two_branch(d):
    """1/(1+exp(-d)) on the cells with d >= 0, exp(d)/(1+exp(d)) on the rest."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_equals_the_two_branch_formula_bit_for_bit():
    mags = np.array([0.0, 1e-300, 36.0, 709.0, 745.0, 800.0])
    edge = np.concatenate([mags, -mags])
    assert np.signbit(edge[len(mags)])  # -0.0 takes the x >= 0 branch
    rng = np.random.default_rng(1)
    for x in (edge, rng.standard_normal((3, 4, 6, 6)) * 8.0, rng.standard_normal((16, 1, 14, 14))):
        _same_bytes(sigmoid(Tensor(x)).data, _sigmoid_two_branch(x))


def test_smooth_l1_fixture_values():
    d = Tensor(np.array([0.5, 2.0, -2.0, 1.0]))
    out = smooth_l1(d).data
    assert out[0] == pytest.approx(0.125)  # 0.5 * 0.5^2
    assert out[1] == pytest.approx(1.5)  # 2 - 0.5
    assert out[2] == pytest.approx(1.5)
    assert out[3] == pytest.approx(0.5)  # both branches agree at |d| = 1


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 3])
def test_conv2d_matches_brute_force_correlation(k, stride, padding):
    rng = np.random.default_rng(k * 100 + stride * 10 + padding)
    x = rng.standard_normal((1, 2, 9, 8))
    w = rng.standard_normal((3, 2, k, k))
    b = rng.standard_normal(3)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
    ho, wo = (9 + 2 * padding - k) // stride + 1, (8 + 2 * padding - k) // stride + 1
    assert out.shape == (1, 3, ho, wo)
    np.testing.assert_allclose(out, conv2d_reference(x, w, b, stride, padding), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 3])
@pytest.mark.parametrize("shape", [(1, 2, 8, 9), (2, 2, 8, 9)])
def test_conv2d_gradients_match_brute_force(k, stride, padding, shape):
    # H + 2*padding - k is odd, so at stride 2 the last row lies outside every
    # window and must get no input gradient; padding 3 exceeds k - 1 for k < 7
    rng = np.random.default_rng(k * 100 + stride * 10 + padding + 2 + shape[0])
    x = rng.standard_normal(shape)
    w = rng.standard_normal((3, 2, k, k))
    b = rng.standard_normal(3)
    pw = rng.standard_normal(conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).shape)
    _, grads = _conv_grads(x, w, b, pw, stride, padding)
    for got, want in zip(grads, conv2d_grads_reference(x, w, pw, stride, padding)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    if stride == 2 and padding == 0:
        assert not grads[0][..., -1, :].any()


def test_conv2d_stride_shape():
    x = Tensor(np.zeros((1, 1, 8, 8)))
    w = Tensor(np.zeros((4, 1, 3, 3)))
    assert conv2d(x, w, Tensor(np.zeros(4)), stride=2, padding=1).shape == (1, 4, 4, 4)


_MAP_OPS = {
    "conv2d": lambda x: conv2d(x, Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.zeros(3))),
    "max_pool2d": lambda x: max_pool2d(x, kernel=3, stride=2, padding=1),
    "upsample_nearest": upsample_nearest,
}


@pytest.mark.parametrize("op", _MAP_OPS)
@pytest.mark.parametrize("shape", [(2, 8, 8), (1, 1, 2, 8, 8)], ids=["chw", "5d"])
def test_map_ops_take_only_nchw(op, shape):
    with pytest.raises(ValueError, match=rf"{op} takes an \(N,C,H,W\) map, got shape {re.escape(str(shape))}"):
        _MAP_OPS[op](Tensor(np.zeros(shape)))


def test_linear_matches_manual():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((5, 6))  # (out, in)
    b = rng.standard_normal(5)
    assert np.allclose(linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w.T + b)
    with pytest.raises(ValueError, match="shape mismatch"):
        linear(Tensor(x[0]), Tensor(w), Tensor(b))  # one row is a (1, in) batch


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_mean_and_max_over_axis(axis):
    rng = np.random.default_rng(axis % 3)
    x = rng.standard_normal((3, 4, 5))
    np.testing.assert_allclose(Tensor(x).mean(axis).data, x.mean(axis=axis), rtol=0.0, atol=1e-15)
    assert np.array_equal(Tensor(x).max(axis).data, x.max(axis=axis))
    pw = rng.standard_normal(x.max(axis=axis).shape)
    assert grad_check(lambda t: (t.mean(axis) * pw).sum(), Tensor(x)) < 1e-3
    assert grad_check(lambda t: (t.max(axis) * pw).sum(), Tensor(x)) < 1e-3

    # ties: along the axis each line holds 1 at its first and last entries
    ties = np.zeros((3, 4, 5))
    first = [slice(None)] * 3
    first[axis] = 0
    last = [slice(None)] * 3
    last[axis] = -1
    ties[tuple(first)] = ties[tuple(last)] = 1.0
    t = Tensor(ties, requires_grad=True)
    (t.max(axis) * pw).sum().backward()
    want = np.zeros_like(ties)
    want[tuple(first)] = pw
    assert np.array_equal(t.grad, want)


def global_pool(x: Tensor, axis: str, mode: str) -> Tensor:
    """The attention gates' global descriptors of an (N,C,H,W) map, built from
    Tensor.mean/max as the gates build them: axis="spatial" gives (N,C,1,1),
    axis="channel" gives (N,1,H,W)."""
    n, c, h, w = x.shape
    if axis == "spatial":
        flat = x.reshape(n, c, -1)
        return (flat.mean(axis=2) if mode == "avg" else flat.max(axis=2)).reshape(n, c, 1, 1)
    return (x.mean(axis=1) if mode == "avg" else x.max(axis=1)).reshape(n, 1, h, w)


def test_pool_modes():
    x = np.arange(24.0).reshape(1, 2, 3, 4)
    assert np.allclose(global_pool(Tensor(x), "spatial", "avg").data, x.mean(axis=(2, 3), keepdims=True))
    assert np.allclose(global_pool(Tensor(x), "spatial", "max").data, x.max(axis=(2, 3), keepdims=True))
    assert np.allclose(global_pool(Tensor(x), "channel", "avg").data, x.mean(axis=1, keepdims=True))
    assert np.allclose(global_pool(Tensor(x), "channel", "max").data, x.max(axis=1, keepdims=True))


@pytest.mark.parametrize("axis", ["spatial", "channel"])
@pytest.mark.parametrize("mode", ["avg", "max"])
def test_pool_gradients(axis, mode):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 3, 4, 5))
    pw = rng.standard_normal(global_pool(Tensor(x), axis, mode).shape)
    assert grad_check(lambda t: (global_pool(t, axis, mode) * pw).sum(), Tensor(x)) < 1e-3


def test_pool_max_ties_go_to_first_element():
    for axis, first in (("spatial", (0, slice(None), 0, 0)), ("channel", (0, 0))):
        t = Tensor(np.ones((1, 2, 3, 2)), requires_grad=True)
        global_pool(t, axis, "max").sum().backward()
        want = np.zeros((1, 2, 3, 2))
        want[first] = 1.0
        assert np.array_equal(t.grad, want), axis


def test_max_pool2d_values_and_tie_rule():
    x = np.array([[[[1.0, 2.0], [2.0, 0.0]]]])
    t = Tensor(x, requires_grad=True)
    out = max_pool2d(t, kernel=2, stride=2)
    assert out.data.reshape(()) == 2.0
    out.sum().backward()
    # ties route the gradient to the first maximum in scan order
    assert t.grad[0, 0, 0, 1] == 1.0
    assert t.grad[0, 0, 1, 0] == 0.0


@pytest.mark.parametrize("kernel, stride, padding", [(3, 2, 1), (1, 2, 0)])
def test_max_pool2d_matches_brute_force(kernel, stride, padding):
    # the stem's pool and P6's subsampling over odd extents; small integers tie often
    rng = np.random.default_rng(kernel)
    x = rng.integers(0, 3, (1, 3, 9, 7)).astype(float)
    t = Tensor(x, requires_grad=True)
    out = max_pool2d(t, kernel, stride, padding)
    pw = rng.standard_normal(out.shape)
    (out * pw).sum().backward()
    want, dx = max_pool2d_reference(x[0], kernel, stride, padding, pw[0])
    assert np.array_equal(out.data[0], want)
    np.testing.assert_allclose(t.grad[0], dx, rtol=0.0, atol=1e-12)


def test_max_pool2d_overlapping_winner_and_ties():
    # 3x3, stride 2, padding 1 on a 3x3 map: all four windows hold the centre
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 1] = 9.0
    pw = np.array([[[[1.0, 2.0], [4.0, 8.0]]]])
    t = Tensor(x, requires_grad=True)
    out = max_pool2d(t, kernel=3, stride=2, padding=1)
    assert np.array_equal(out.data, np.full((1, 1, 2, 2), 9.0))
    (out * pw).sum().backward()
    want = np.zeros((1, 1, 3, 3))
    want[0, 0, 1, 1] = 15.0  # the gradients of every window it wins
    assert np.array_equal(t.grad, want)
    # all cells tie: each window's first in-map cell in scan order wins
    t = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
    (max_pool2d(t, kernel=3, stride=2, padding=1) * pw).sum().backward()
    assert np.array_equal(t.grad, [[[[1.0, 2.0, 0.0], [4.0, 8.0, 0.0], [0.0, 0.0, 0.0]]]])


def test_upsample_nearest_repeats_cells():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    up = upsample_nearest(Tensor(x)).data
    assert up.shape == (1, 1, 4, 4)
    assert np.allclose(up[0, 0, :2, :2], 1.0)
    assert np.allclose(up[0, 0, 2:, 2:], 4.0)


def test_concat_and_gather_rows():
    a, b = np.ones((1, 2, 2)), np.zeros((2, 2, 2))
    cat = concat([Tensor(a), Tensor(b)], axis=0)
    assert cat.shape == (3, 2, 2)
    rows = np.arange(10.0).reshape(5, 2)
    picked = gather_rows(Tensor(rows), np.array([3, 0, 3]))
    assert np.allclose(picked.data, rows[[3, 0, 3]])


def test_log_softmax_normalizes():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((3, 5)) * 10
    out = log_softmax(Tensor(z)).data
    assert np.allclose(np.exp(out).sum(axis=-1), 1.0)
    # shift invariance guards the max-subtraction trick
    assert np.allclose(log_softmax(Tensor(z + 100.0)).data, out)


def test_grad_check_rejects_bad_eps_and_nonscalar():
    with pytest.raises(ValueError):
        grad_check(lambda t: t.sum(), Tensor(np.ones(3)), eps=1e-2)
    with pytest.raises(ValueError):
        grad_check(lambda t: t * 2.0, Tensor(np.ones(3)))


@pytest.mark.parametrize("seed", range(10))
def test_composite_graph_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    pw = rng.standard_normal((1, 3, 3, 3))

    def fn(t):
        h = conv2d(t, Tensor(w), Tensor(np.zeros(3)), stride=2, padding=1)
        return (sigmoid(h) * pw).sum()

    assert grad_check(fn, Tensor(x)) < 1e-3


@pytest.mark.parametrize("seed", range(10))
def test_reduction_and_gather_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, 4))
    idx = rng.integers(0, 5, size=3)
    pw = rng.standard_normal((3, 4))

    def fn(t):
        return (gather_rows(log_softmax(t), idx) * pw).sum()

    assert grad_check(fn, Tensor(x)) < 1e-3


def _conv_grads(x, w, b, pw, stride, padding):
    """Output and x/w/b gradients of sum(conv2d(x, w, b) * pw)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
    out = conv2d(*leaves, stride=stride, padding=padding)
    (out * pw).sum().backward()
    return out.data, [t.grad for t in leaves]


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 3])
def test_batched_conv2d_equals_stacked_per_sample_calls(k, stride, padding):
    # each sample gets a batch-of-one call's arithmetic bit for bit, and the
    # weight and bias gradients are the per-sample ones summed in order
    rng = np.random.default_rng(k * 100 + stride * 10 + padding)
    x = rng.standard_normal((3, 2, 9, 8))
    w = rng.standard_normal((4, 2, k, k))
    b = rng.standard_normal(4)
    pw = rng.standard_normal(conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).shape)
    out, (dx, dw, db) = _conv_grads(x, w, b, pw, stride, padding)
    per = [_conv_grads(x[n : n + 1], w, b, pw[n : n + 1], stride, padding) for n in range(3)]
    assert np.array_equal(out, np.concatenate([o for o, _ in per]))
    assert np.array_equal(dx, np.concatenate([g[0] for _, g in per]))
    assert np.array_equal(dw, np.stack([g[1] for _, g in per]).sum(axis=0))
    assert np.array_equal(db, np.stack([g[2] for _, g in per]).sum(axis=0))


@pytest.mark.parametrize("seed", range(3))
def test_batched_conv2d_and_upsample_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    b = rng.standard_normal(3)
    pw = rng.standard_normal((2, 3, 6, 6))

    def head(x, w, b):
        return (upsample_nearest(sigmoid(conv2d(x, w, b, stride=2, padding=1))) * pw).sum()

    assert grad_check(lambda t: head(t, Tensor(w), Tensor(b)), Tensor(x)) < 1e-3
    assert grad_check(lambda t: head(Tensor(x), t, Tensor(b)), Tensor(w)) < 1e-3
    assert grad_check(lambda t: head(Tensor(x), Tensor(w), t), Tensor(b)) < 1e-3


def test_batched_upsample_repeats_each_sample():
    x = np.arange(12.0).reshape(3, 1, 2, 2)
    up = upsample_nearest(Tensor(x)).data
    assert np.array_equal(up, np.concatenate([upsample_nearest(Tensor(x[n : n + 1])).data for n in range(3)]))


def test_no_grad_records_nothing_nests_and_restores():
    w = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        leaf = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            inner = w * 2.0
        out = sigmoid(w + leaf)
    assert leaf.requires_grad  # leaves keep their flag
    for t in (inner, out):
        assert not t.requires_grad and t._parents == () and t._backward is None
    assert (w * 2.0).requires_grad  # recording is back on after the scope
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert (w * 2.0).requires_grad  # and after a scope left by an exception


def test_no_grad_in_one_thread_leaves_others_recording():
    w = Tensor(np.ones(3), requires_grad=True)
    entered, release = threading.Event(), threading.Event()
    seen = []

    def worker():
        with no_grad():
            entered.set()
            release.wait(timeout=10)
            seen.append((w * 2.0).requires_grad)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert entered.wait(timeout=10)
        assert (w * 2.0).requires_grad
    finally:
        release.set()
        thread.join()
    assert seen == [False]


def _extent(n, k, stride, padding):
    return (n + 2 * padding - k) // stride + 1


@settings(max_examples=40)
@given(
    n=st.integers(0, 2),  # 0 and 1: a batch of one
    c=st.integers(1, 3),
    o=st.integers(1, 3),
    h=st.integers(1, 10),
    w=st.integers(1, 10),
    k=st.sampled_from([1, 3, 7]),
    stride=st.integers(1, 2),
    padding=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv2d_values_and_gradients_match_oracles(n, c, o, h, w, k, stride, padding, seed):
    assume(_extent(h, k, stride, padding) >= 1 and _extent(w, k, stride, padding) >= 1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((max(n, 1), c, h, w))
    wt = rng.standard_normal((o, c, k, k))
    b = rng.standard_normal(o)
    pw = rng.standard_normal(conv2d_reference(x, wt, b, stride, padding).shape)
    out, grads = _conv_grads(x, wt, b, pw, stride, padding)
    np.testing.assert_allclose(out, conv2d_reference(x, wt, b, stride, padding), rtol=0.0, atol=1e-12)
    for got, want in zip(grads, conv2d_grads_reference(x, wt, pw, stride, padding)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@settings(max_examples=40)
@given(
    c=st.integers(1, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 3),
    padding=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_pool2d_values_and_gradients_match_oracle(c, h, w, kernel, stride, padding, seed):
    # padding stays within half the kernel, so no window lies wholly in the border
    assume(2 * padding <= kernel)
    assume(_extent(h, kernel, stride, padding) >= 1 and _extent(w, kernel, stride, padding) >= 1)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, (1, c, h, w)).astype(float)
    t = Tensor(x, requires_grad=True)
    out = max_pool2d(t, kernel, stride, padding)
    pw = rng.standard_normal(out.shape)
    (out * pw).sum().backward()
    want, dx = max_pool2d_reference(x[0], kernel, stride, padding, pw[0])
    assert np.array_equal(out.data[0], want)
    np.testing.assert_allclose(t.grad[0], dx, rtol=0.0, atol=1e-12)
