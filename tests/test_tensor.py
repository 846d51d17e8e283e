"""Autodiff core: forward values against numpy, gradients against FD."""

import numpy as np
import pytest

from attnmask.tensor import (
    Tensor,
    clamp,
    concat,
    conv1d,
    conv2d,
    gather_rows,
    grad_check,
    linear,
    log,
    log_softmax,
    max_pool2d,
    pool,
    relu,
    sigmoid,
    smooth_l1,
    split_rows,
    upsample_nearest,
)


def test_leaf_defaults_and_item():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert t.shape == (2, 3)
    assert t.ndim == 2
    assert t.size == 6
    assert not t.requires_grad
    assert Tensor(np.array(3.5)).item() == 3.5


def test_add_mul_same_shape_values():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    assert np.allclose((Tensor(a) + Tensor(b)).data, a + b)
    assert np.allclose((Tensor(a) * Tensor(b)).data, a * b)
    assert np.allclose((Tensor(a) - Tensor(b)).data, a - b)
    assert np.allclose((Tensor(a) * 2.0).data, a * 2)
    assert np.allclose((Tensor(a) + b).data, a + b)  # ndarray operand


def test_broadcast_rules():
    x = Tensor(np.ones((3, 4, 5)))
    gate = Tensor(np.full((3, 1, 1), 0.5))
    spatial = Tensor(np.full((1, 4, 5), 2.0))
    assert (x * gate).data.shape == (3, 4, 5)
    assert (x * spatial).data.shape == (3, 4, 5)
    with pytest.raises(ValueError):
        _ = Tensor(np.ones((3, 4))) * Tensor(np.ones((4, 3)))


def test_broadcast_gradient_reduces():
    # d/dgate sum(x * gate) must sum over the broadcast axes
    x = np.arange(24.0).reshape(2, 3, 4)
    gate = Tensor(np.array([[[2.0]], [[3.0]]]), requires_grad=True)
    out = (Tensor(x) * gate).sum()
    out.backward()
    assert np.allclose(gate.grad.reshape(2), x.sum(axis=(1, 2)))


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


def test_smooth_l1_fixture_values():
    d = Tensor(np.array([0.5, 2.0, -2.0, 1.0]))
    out = smooth_l1(d).data
    assert out[0] == pytest.approx(0.125)  # 0.5 * 0.5^2
    assert out[1] == pytest.approx(1.5)  # 2 - 0.5
    assert out[2] == pytest.approx(1.5)
    assert out[3] == pytest.approx(0.5)  # both branches agree at |d| = 1


def test_conv2d_matches_manual_correlation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1).data
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    want = np.zeros((3, 5, 5))
    for co in range(3):
        for i in range(5):
            for j in range(5):
                want[co, i, j] = (xp[:, i : i + 3, j : j + 3] * w[co]).sum() + b[co]
    assert np.allclose(out, want)


def test_conv2d_stride_shape():
    x = Tensor(np.zeros((1, 8, 8)))
    w = Tensor(np.zeros((4, 1, 3, 3)))
    assert conv2d(x, w, None, stride=2, padding=1).shape == (4, 4, 4)


def test_conv1d_matches_manual():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(7)
    w = rng.standard_normal(3)
    out = conv1d(Tensor(x), Tensor(w), padding=1).data
    xp = np.pad(x, 1)
    want = np.array([(xp[i : i + 3] * w).sum() for i in range(7)])
    assert np.allclose(out, want)


def test_linear_matches_manual():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((5, 6))  # (out, in)
    b = rng.standard_normal(5)
    assert np.allclose(linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w.T + b)


def test_pool_modes():
    x = np.arange(24.0).reshape(2, 3, 4)
    assert np.allclose(pool(Tensor(x), "spatial", "avg").data, x.mean(axis=(1, 2), keepdims=True))
    assert np.allclose(pool(Tensor(x), "spatial", "max").data, x.max(axis=(1, 2), keepdims=True))
    assert np.allclose(pool(Tensor(x), "channel", "avg").data, x.mean(axis=0, keepdims=True))
    assert np.allclose(pool(Tensor(x), "channel", "max").data, x.max(axis=0, keepdims=True))


def test_max_pool2d_values_and_tie_rule():
    x = np.array([[[1.0, 2.0], [2.0, 0.0]]])
    t = Tensor(x, requires_grad=True)
    out = max_pool2d(t, kernel=2, stride=2)
    assert out.data.reshape(()) == 2.0
    out.sum().backward()
    # ties route the gradient to the first maximum in scan order
    assert t.grad[0, 0, 1] == 1.0
    assert t.grad[0, 1, 0] == 0.0


def test_upsample_nearest_repeats_cells():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    up = upsample_nearest(Tensor(x), 2).data
    assert up.shape == (1, 4, 4)
    assert np.allclose(up[0, :2, :2], 1.0)
    assert np.allclose(up[0, 2:, 2:], 4.0)


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
    x = rng.standard_normal((2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    pw = rng.standard_normal((3, 3, 3))

    def fn(t):
        h = conv2d(t, Tensor(w), None, stride=2, padding=1)
        return (sigmoid(h) * pw).sum()

    assert grad_check(fn, Tensor(x)).ok(1e-3)


@pytest.mark.parametrize("seed", range(10))
def test_reduction_and_gather_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, 4))
    idx = rng.integers(0, 5, size=3)
    pw = rng.standard_normal((3, 4))

    def fn(t):
        return (gather_rows(log_softmax(t), idx) * pw).sum()

    assert grad_check(fn, Tensor(x)).ok(1e-3)


@pytest.mark.parametrize("seed", range(5))
def test_split_rows_gradients(seed):
    # rows feed separate subgraphs, some twice and one not at all, as the
    # per-region mask head uses them
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 2, 3))
    pw = rng.standard_normal((4, 2, 3))

    def fn(t):
        rows = split_rows(sigmoid(t))
        terms = [(rows[i] * pw[i]).sum() for i in (0, 2, 3, 0)]
        return concat([r.reshape(1) for r in terms], axis=0).sum()

    assert [r.shape for r in split_rows(Tensor(x))] == [(2, 3)] * 4
    assert grad_check(fn, Tensor(x)).ok(1e-3)
