"""ROI Align against the dense bilinear oracle; level routing."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnmask.boxes import box_array
from attnmask.roi_align import CHUNK, assign_level, roi_align
from attnmask.tensor import Tensor, grad_check, no_grad
from oracles import roi_align_dense


def test_constant_map_is_exact():
    feature = Tensor(np.full((1, 3, 8, 8), 2.5))
    out = roi_align(feature, 4.0, np.array([[3.1, 2.7, 17.4, 21.0]]), 7)
    assert out.shape == (1, 3, 7, 7)
    # interior samples of a constant map reproduce the constant exactly
    assert np.allclose(out.data, 2.5, atol=1e-12)


def test_matches_dense_oracle_200_rois():
    rng = np.random.default_rng(11)
    for case in range(200):
        feature = rng.standard_normal((1, 4, 10, 10))
        x1 = rng.uniform(-4, 30)
        y1 = rng.uniform(-4, 30)
        box = np.array([[x1, y1, x1 + rng.uniform(2, 14), y1 + rng.uniform(2, 14)]])
        res = int(rng.integers(1, 6))
        got = roi_align(Tensor(feature), 4.0, box, res).data[0]
        want = roi_align_dense(feature[0], 4.0, box[0].tolist(), res)
        assert np.abs(got - want).max() < 1e-6, f"case {case}"


def test_outside_samples_read_zero():
    feature = Tensor(np.ones((1, 1, 4, 4)))
    box = np.array([[-64.0, -64.0, -32.0, -32.0]])  # fully off the map
    out = roi_align(feature, 1.0, box, 2)
    assert np.allclose(out.data, 0.0)


def test_zero_area_region_rejected():
    # positive extents that underflow to a zero feature-space bin
    with pytest.raises(ValueError):
        roi_align(Tensor(np.ones((1, 1, 4, 4))), 1.0e9, np.array([[0.0, 0.0, 1e-320, 1e-320]]), 2)


@pytest.mark.parametrize("shape, message", [((3, 8, 8), r"roi_align takes an \(N,C,H,W\) map"),
                                            ((2, 3, 8, 8), r"roi_align reads a \(1,C,H,W\) map")],
                         ids=["chw", "two-images"])
def test_map_must_hold_one_image(shape, message):
    # rows carry no image index, so a map of two images is ambiguous
    with pytest.raises(ValueError, match=rf"{message}, got shape {re.escape(str(shape))}"):
        roi_align(Tensor(np.ones(shape)), 4.0, np.array([[8.0, 8.0, 16.0, 16.0]]), 3)


def test_assign_level_scale_rule():
    # a 224px square sits at level 4; halving the side drops one level
    assert assign_level(np.array([[0.0, 0.0, 224, 224]]))[0] == 4
    assert assign_level(np.array([[0.0, 0.0, 112, 112]]))[0] == 3
    assert assign_level(np.array([[0.0, 0.0, 448, 448]]))[0] == 5
    assert assign_level(np.array([[0.0, 0.0, 4, 4]]))[0] == 2  # clamped at the bottom
    assert assign_level(np.array([[0.0, 0.0, 4096, 4096]]))[0] == 5  # clamped at the top


@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    feature = rng.standard_normal((1, 3, 8, 8))
    box = np.array([[2.0 + seed, 3.0, 20.0, 26.0]])
    pw = rng.standard_normal((1, 3, 3, 3))

    def fn(t):
        return (roi_align(t, 4.0, box, 3) * pw).sum()

    assert grad_check(fn, Tensor(feature)) < 1e-3


def test_gradient_scatters_only_into_touched_cells():
    feature = Tensor(np.zeros((1, 1, 8, 8)), requires_grad=True)
    box = np.array([[0.0, 0.0, 8.0, 8.0]])  # strides to cells (0..1)x(0..1)
    out = roi_align(feature, 4.0, box, 1)
    out.sum().backward()
    touched = np.abs(feature.grad[0, 0]) > 0
    assert touched[:3, :3].any()
    assert not touched[3:, :].any() and not touched[:, 3:].any()


# a 3 x 6 x 7 map at stride 4 covers [0, 28] x [0, 24] in image pixels;
# each of these crosses one edge of it: left, right, top, bottom
_EDGE_BOXES = [(-6.0, 5.0, 7.0, 15.0), (20.0, 3.0, 33.0, 12.0), (9.0, -5.0, 18.0, 6.0), (2.0, 17.0, 16.0, 29.0)]
_corner = st.floats(-10.0, 30.0)
_side = st.floats(0.5, 20.0)
_roi = st.builds(lambda x, y, w, h: (x, y, x + w, y + h), _corner, _corner, _side, _side)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    extra=st.lists(_roi, max_size=CHUNK + 4),
    seed=st.integers(0, 2**32 - 1),
    res=st.integers(1, 5),
)
def test_batched_equals_per_box_and_dense_oracle(extra, seed, res):
    boxes = box_array(_EDGE_BOXES + extra)
    rng = np.random.default_rng(seed)
    feature = rng.standard_normal((1, 3, 6, 7))
    leaf = Tensor(feature, requires_grad=True)
    batched = roi_align(leaf, 4.0, boxes, res)
    assert batched.shape == (len(boxes), 3, res, res)
    pw = rng.standard_normal(batched.shape)
    (batched * pw).sum().backward()

    grad_sum = np.zeros_like(feature)
    for i, xyxy in enumerate(boxes.tolist()):
        one_leaf = Tensor(feature, requires_grad=True)
        one = roi_align(one_leaf, 4.0, boxes[i : i + 1], res)
        np.testing.assert_array_equal(batched.data[i], one.data[0])
        want = roi_align_dense(feature[0], 4.0, xyxy, res)
        assert np.abs(one.data[0] - want).max() < 1e-9
        (one * pw[i : i + 1]).sum().backward()
        grad_sum += one_leaf.grad
    # the batched backward is the sum of the per-region backwards
    assert np.allclose(leaf.grad, grad_sum, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("res", [7, 14])
def test_values_do_not_depend_on_the_map_needing_a_gradient(res):
    # without a gradient the forward skips the winner bookkeeping; the
    # pooled values must stay the same bit for bit
    rng = np.random.default_rng(res)
    feature = rng.standard_normal((1, 3, 6, 7))
    drawn = [(x, y, x + bw, y + bh)
             for x, y, bw, bh in zip(*rng.uniform(-10.0, 30.0, (2, CHUNK)), *rng.uniform(0.5, 20.0, (2, CHUNK)))]
    boxes = box_array(_EDGE_BOXES + drawn)
    want = roi_align(Tensor(feature, requires_grad=True), 4.0, boxes, res)
    assert want.requires_grad
    plain = roi_align(Tensor(feature), 4.0, boxes, res)
    with no_grad():
        scoped = roi_align(Tensor(feature), 4.0, boxes, res)
    for got in (plain, scoped):
        assert not got.requires_grad
        np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize("seed", range(3))
def test_gradients_of_several_regions_on_one_map(seed):
    rng = np.random.default_rng(100 + seed)
    feature = rng.standard_normal((1, 2, 6, 7))
    boxes = box_array(_EDGE_BOXES + [(3.0 + seed, 4.0, 19.0, 20.0)])
    pw = rng.standard_normal((len(boxes), 2, 3, 3))

    def fn(t):
        return (roi_align(t, 4.0, boxes, 3) * pw).sum()

    assert grad_check(fn, Tensor(feature)) < 1e-3


def test_max_ties_send_gradient_to_first_sample():
    # quarter points at dyadic cell fractions read a constant map exactly,
    # so the four samples of the bin tie and the whole bin gradient goes to
    # the (0.25, 0.25) sample's bilinear neighbours
    feature = Tensor(np.ones((1, 1, 10, 10)), requires_grad=True)
    box = np.array([[0.75, 1.25, 8.75, 9.25]])
    out = roi_align(feature, 1.0, box, 1)
    assert out.data[0, 0, 0, 0] == 1.0
    out.sum().backward()
    x1, y1, x2, y2 = box[0]
    sy, sx = y1 + 0.25 * (y2 - y1), x1 + 0.25 * (x2 - x1)
    hat_y = np.maximum(0.0, 1.0 - np.abs(sy - (np.arange(10) + 0.5)))
    hat_x = np.maximum(0.0, 1.0 - np.abs(sx - (np.arange(10) + 0.5)))
    np.testing.assert_array_equal(feature.grad[0, 0], np.outer(hat_y, hat_x))


@pytest.mark.parametrize("with_wide", [False, True])
def test_small_regions_on_a_large_map(with_wide):
    # regions much smaller than the map, of mixed spans in one chunk, next
    # to every edge and past the far ones, with and without a region that
    # spans over half the map's width
    rng = np.random.default_rng(7)
    feature = rng.standard_normal((1, 2, 24, 28))
    boxes = box_array([
        (0.5, 0.5, 3.0, 2.5),
        (52.0, 44.0, 57.0, 49.0),
        (54.5, 3.0, 56.0, 6.5),
        (1.0, 45.5, 4.0, 47.5),
        (26.0, 20.0, 27.5, 21.0),
    ] + ([(10.0, 8.0, 42.0, 14.0)] if with_wide else []))
    out = roi_align(Tensor(feature), 2.0, boxes, 3)
    for got, xyxy in zip(out.data, boxes.tolist()):
        want = roi_align_dense(feature[0], 2.0, xyxy, 3)
        assert np.abs(got - want).max() < 1e-9
    pw = rng.standard_normal(out.shape)

    def fn(t):
        return (roi_align(t, 2.0, boxes, 3) * pw).sum()

    assert grad_check(fn, Tensor(feature)) < 1e-3
