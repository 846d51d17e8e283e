"""ROI Align against the dense bilinear oracle and its recorded digests;
level routing."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnmask.boxes import box_array
from attnmask.roi_align import CHUNK, GRAD_CHUNK, assign_level, bilinear_weights, roi_align
from attnmask.tensor import Tensor, grad_check, no_grad
from numeric_env import digest_context
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


def _check_batched(feature, stride, boxes, res, rng):
    """Each region of one batched call equals its batch-of-one call bit for
    bit and the dense oracle, and the batched gradient is the sum of the
    per-region backwards."""
    leaf = Tensor(feature, requires_grad=True)
    batched = roi_align(leaf, stride, boxes, res)
    assert batched.shape == (len(boxes), feature.shape[1], res, res)
    pw = rng.standard_normal(batched.shape)
    (batched * pw).sum().backward()

    grad_sum = np.zeros_like(feature)
    for i, xyxy in enumerate(boxes.tolist()):
        one_leaf = Tensor(feature, requires_grad=True)
        one = roi_align(one_leaf, stride, boxes[i : i + 1], res)
        np.testing.assert_array_equal(batched.data[i], one.data[0])
        want = roi_align_dense(feature[0], stride, xyxy, res)
        assert np.abs(one.data[0] - want).max() < 1e-9
        (one * pw[i : i + 1]).sum().backward()
        grad_sum += one_leaf.grad
    # the batched backward is the sum of the per-region backwards
    assert np.allclose(leaf.grad, grad_sum, rtol=0.0, atol=1e-12)


# at least 2 * CHUNK + 4 regions: three forward chunks or more
@settings(max_examples=40)
@given(
    extra=st.lists(_roi, min_size=2 * CHUNK, max_size=3 * CHUNK + 4),
    seed=st.integers(0, 2**32 - 1),
    res=st.integers(1, 5),
)
def test_batched_equals_per_box_and_dense_oracle(extra, seed, res):
    boxes = box_array(_EDGE_BOXES + extra)
    assert len(boxes) > 2 * CHUNK
    rng = np.random.default_rng(seed)
    _check_batched(rng.standard_normal((1, 3, 6, 7)), 4.0, boxes, res, rng)


@pytest.mark.parametrize("res", [7, 14])
def test_batched_equals_per_box_on_the_p2_shape(res):
    # the detector's box and mask resolutions on P2's (24, 16, 16) map at
    # stride 4, over three forward chunks and two backward groups or more
    rng = np.random.default_rng(27 + res)
    n = max(3 * CHUNK, GRAD_CHUNK) + 2
    corner = rng.uniform(-8.0, 60.0, (n, 2))
    boxes = np.concatenate([corner, corner + rng.uniform(1.0, 40.0, (n, 2))], axis=1)
    _check_batched(rng.standard_normal((1, 24, 16, 16)), 4.0, boxes, res, rng)


# sha256 of np.signbit of the pooled output on the signed-zero map below,
# recorded with the two-pass max: every pooled zero is +0.0 there, as the
# interpolation products sum their zeros to +0.0 whatever the map's signs
SIGNED_ZERO_SIGNS = {
    7: "d0be9e4963d7b27d1e138c17b2c1726169bfd5d450dc9c06df167a9c8b535ade",
    14: "2b59c3dc353d8dc0b81e3d88dbc92c2301d686b96c02bc2fb0f2e5be037b3d5a",
}
SIGNED_ZERO_SIGNS_ENV = {"numpy": "2.4.6", "blas_core": "SkylakeX", "blas_threads": 2}


@pytest.mark.parametrize("res", [7, 14])
def test_values_do_not_depend_on_the_map_needing_a_gradient(res):
    # without a gradient the forward skips the winner bookkeeping; the
    # pooled values must stay the same bit for bit, signs of zeros included
    rng = np.random.default_rng(res)
    feature = rng.standard_normal((1, 3, 6, 7))
    drawn = [(x, y, x + bw, y + bh)
             for x, y, bw, bh in zip(*rng.uniform(-10.0, 30.0, (2, CHUNK)), *rng.uniform(0.5, 20.0, (2, CHUNK)))]
    boxes = box_array(_EDGE_BOXES + drawn)
    # the second map is all zeros whose cells carry random signs: every bin ties
    for fmap in (feature, np.copysign(0.0, feature)):
        want = roi_align(Tensor(fmap, requires_grad=True), 4.0, boxes, res)
        assert want.requires_grad
        plain = roi_align(Tensor(fmap), 4.0, boxes, res)
        with no_grad():
            scoped = roi_align(Tensor(fmap), 4.0, boxes, res)
        for got in (plain, scoped):
            assert not got.requires_grad
            assert got.data.tobytes() == want.data.tobytes()
    assert hashlib.sha256(np.signbit(want.data).tobytes()).hexdigest() == SIGNED_ZERO_SIGNS[res], \
        digest_context(SIGNED_ZERO_SIGNS_ENV)


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


# (row, col) slopes of a 10 x 10 ramp map, each with the (y half, x half)
# of the bin sample that should take the gradient: a ramp along one axis
# ties the two samples across the other, and the first of them wins
_RAMPS = {
    "right": ((0.0, 1.0), (0, 1)),
    "left": ((0.0, -1.0), (0, 0)),
    "down": ((1.0, 0.0), (1, 0)),
    "down-right": ((1.0, 1.0), (1, 1)),
    "up-right": ((-1.0, 1.0), (0, 1)),
}


@pytest.mark.parametrize("ramp", _RAMPS)
def test_bin_gradient_goes_to_the_first_maximal_sample(ramp):
    # the same dyadic box reads a ramp of small integers exactly
    (ky, kx), (dy, dx) = _RAMPS[ramp]
    cells = np.arange(10.0)
    feature = Tensor((ky * cells[:, None] + kx * cells[None, :])[None, None], requires_grad=True)
    box = np.array([[0.75, 1.25, 8.75, 9.25]])
    out = roi_align(feature, 1.0, box, 1)
    out.sum().backward()
    x1, y1, x2, y2 = box[0]
    sy, sx = y1 + (0.25 + 0.5 * dy) * (y2 - y1), x1 + (0.25 + 0.5 * dx) * (x2 - x1)
    assert out.data[0, 0, 0, 0] == ky * (sy - 0.5) + kx * (sx - 0.5)
    hat_y = np.maximum(0.0, 1.0 - np.abs(sy - (cells + 0.5)))
    hat_x = np.maximum(0.0, 1.0 - np.abs(sx - (cells + 0.5)))
    np.testing.assert_array_equal(feature.grad[0, 0], np.outer(hat_y, hat_x))


def _bilinear_compare_rule(coords, n):
    """The compare-and-multiply form: weight 1 - f where a cell is floor(v),
    f where it is floor(v) + 1, for v = coords - 0.5 and f = v - floor(v)."""
    v = coords - 0.5
    i0 = np.floor(v)[..., None]
    f = v[..., None] - i0
    cells = np.arange(n)
    return (cells == i0) * (1.0 - f) + (cells == i0 + 1.0) * f


@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_bilinear_weights_equal_the_compare_rule_bit_for_bit(n):
    centers = np.arange(n) + 0.5
    edges = [-0.5, 0.0, 0.5, n - 0.5, n, n + 0.5, n + 1.5, -1.5, -2.5, -1e9, 1e9, -1e300, 1e300]
    rng = np.random.default_rng(n)
    for coords in (np.array([np.concatenate([centers, edges])]),
                   rng.uniform(-3.0, n + 3.0, (5, 14)),
                   np.round(rng.uniform(-3.0, n + 3.0, (3, 6)) * 4) / 4):
        got = bilinear_weights(coords, n)
        want = _bilinear_compare_rule(coords, n)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    # a NaN coordinate lands in the pads and reads nothing
    assert bilinear_weights(np.array([[np.nan, 0.5]]), n)[0, 0].tobytes() == np.zeros(n).tobytes()


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


# sha256 of the (R, C, p, p) values and of the map's gradient under a fixed
# projection, on _digest_case() at p = 7 and p = 14. Recorded with the form
# that built the weights per chunk of 16 regions and read the map channels
# last; any change to the last bit of a pooled value or of the gradient
# changes them.
ROI_DIGESTS = {
    7: ("8bdd9bc5209d5361831c33d26762bf5e5c96f9ff89ba1caf87996734d4ee3b8a",
        "4bd9372c938ba2bd2414887099dd0cb6f970a4e01a9409c6360a63ce9fb1878d"),
    14: ("38d62856e00593202a5021507fbf5cd75ab6df481e22d32a0b0e94e51880efb8",
         "adb65fc29255b2e0e7b2acf395dfe0bf08ebfd4a2330f25865dcac8f1360faeb"),
}
ROI_DIGESTS_ENV = {"numpy": "2.4.6", "blas_core": "SkylakeX", "blas_threads": 2}


def _digest_case():
    """A seeded (1, 24, 16, 16) map, P2's shape at stride 4, and 40 regions
    of its 64-pixel image, some past its edges: several chunks each way."""
    rng = np.random.default_rng(2727)
    feature = rng.standard_normal((1, 24, 16, 16))
    corner = rng.uniform(-8.0, 60.0, (40, 2))
    side = rng.uniform(1.0, 40.0, (40, 2))
    return feature, np.concatenate([corner, corner + side], axis=1)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("res", sorted(ROI_DIGESTS))
def test_values_and_gradient_match_their_digests(res):
    feature, boxes = _digest_case()
    assert len(boxes) > 2 * max(CHUNK, GRAD_CHUNK)
    leaf = Tensor(feature, requires_grad=True)
    out = roi_align(leaf, 4.0, boxes, res)
    # the projection: one fixed weight per output value
    (out * np.random.default_rng(res).standard_normal(out.shape)).sum().backward()
    assert (_sha(out.data), _sha(leaf.grad)) == ROI_DIGESTS[res], digest_context(ROI_DIGESTS_ENV)
