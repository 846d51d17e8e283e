"""Loss fixtures, anchor labeling rules, and the composite total."""

import math

import numpy as np
import pytest

from attnmask.boxes import box_array, encode
from attnmask.losses import (
    EPS,
    IGNORE,
    NEGATIVE,
    POS_IOU,
    POSITIVE,
    assign_anchor_labels,
    cls_loss,
    mask_loss,
    reg_loss,
    sample_minibatch,
    softmax_ce,
    total_loss,
)
from attnmask.tensor import Tensor, clamp, grad_check, log, log_softmax
from oracles import anchor_labels_reference, iou_xyxy


def _cls(p: float, y: float) -> float:
    return cls_loss(Tensor(np.array(p)), y).item()


def test_cls_loss_half_is_ln2():
    assert abs(_cls(0.5, 1.0) - math.log(2.0)) <= 1e-12
    assert abs(_cls(0.5, 0.0) - math.log(2.0)) <= 1e-12


def test_cls_loss_direction_and_clamp():
    assert _cls(0.9, 1.0) < _cls(0.1, 1.0)
    assert _cls(0.9, 0.0) > _cls(0.1, 0.0)
    # exact 0/1 predictions stay finite through the clamp
    assert np.isfinite(_cls(0.0, 1.0))
    assert np.isfinite(_cls(1.0, 0.0))
    assert _cls(1.0, 1.0) == pytest.approx(0.0, abs=1e-6)


def test_cls_loss_shape_mismatch():
    with pytest.raises(ValueError, match=r"target shape \(4,\) != prediction shape \(3,\)"):
        cls_loss(Tensor(np.ones(3)), np.ones(4))


def test_softmax_ce_matches_log_softmax():
    logits = np.array([[2.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    out = softmax_ce(Tensor(logits), [0, 2]).data
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    assert out[0] == pytest.approx(-math.log(probs[0, 0]))
    assert out[1] == pytest.approx(math.log(3.0))  # uniform logits


@pytest.mark.parametrize("labels", [[2, 0, 1], [0, -1, 1], [0, 1], [0, 1, 1, 0], [[0, 1, 1]]])
def test_softmax_ce_rejects_labels_outside_rows_and_classes(labels):
    # a label >= K would read the next row's logits and a negative one wrap
    with pytest.raises(ValueError, match=r"labels must be 3 values in \[0, 2\)"):
        softmax_ce(Tensor(np.zeros((3, 2))), labels)


def _reg(*d: float) -> float:
    return reg_loss(Tensor(np.array(d)), np.zeros(4)).item()


def test_reg_loss_fixture_values():
    assert _reg(0.5, 0.0, 0.0, 0.0) == pytest.approx(0.125)
    assert _reg(2.0, 0.0, 0.0, 0.0) == pytest.approx(1.5)
    # continuity across |d| = 1: both branches give 0.5
    lo = _reg(1.0 - 1e-9, 0, 0, 0)
    hi = _reg(1.0 + 1e-9, 0, 0, 0)
    assert abs(lo - hi) <= 1e-8
    assert _reg(1.0, 0, 0, 0) == pytest.approx(0.5)


def test_reg_loss_sums_components_and_batches():
    assert _reg(0.5, 0.5, 0.5, 0.5) == pytest.approx(0.5)
    batch = Tensor(np.array([[0.5, 0, 0, 0], [2.0, 0, 0, 0]]))
    targets = np.zeros((2, 4))
    out = reg_loss(batch, targets)
    assert out.shape == (2,)
    assert np.allclose(out.data, [0.125, 1.5])


def test_mask_loss_refinement_invariance():
    # mean normalization: refining every cell into four identical copies
    # leaves the value unchanged
    rng = np.random.default_rng(0)
    y = rng.uniform(0.1, 0.9, (4, 4))
    ys = rng.integers(0, 2, (4, 4)).astype(float)
    coarse = mask_loss(Tensor(y), ys).item()
    fine = mask_loss(Tensor(np.kron(y, np.ones((2, 2)))), np.kron(ys, np.ones((2, 2)))).item()
    assert coarse == pytest.approx(fine, abs=1e-12)


def test_mask_loss_binary_validation_and_perfect_prediction():
    with pytest.raises(ValueError, match="binary"):
        mask_loss(Tensor(np.full((2, 2), 0.5)), np.full((2, 2), 0.3))
    with pytest.raises(ValueError, match=r"target shape \(2, 3\) != prediction shape \(2, 2\)"):
        mask_loss(Tensor(np.full((2, 2), 0.5)), np.ones((2, 3)))
    ys = np.array([[1.0, 0.0], [0.0, 1.0]])
    near = mask_loss(Tensor(np.where(ys == 1, 0.999999, 0.000001)), ys).item()
    assert near == pytest.approx(0.0, abs=1e-5)


def test_mask_loss_log_complement_variant_differs():
    # an all-background grid costs the -log(1 - y) term in every cell,
    # not the raw complement -(1 - y)
    y = Tensor(np.full((2, 2), 0.3))
    background = mask_loss(y, np.zeros((2, 2))).item()
    assert background == pytest.approx(-math.log(0.7))
    assert background != pytest.approx(-0.7)


# the formulas mask_loss and softmax_ce had before they reused cls_loss and
# gather_rows; the rewrites keep every value and gradient bit for bit
def _mask_loss_two_logs(y, ys):
    yc = clamp(y, EPS, 1.0 - EPS)
    return -((log(yc) * ys + log(1.0 - yc) * (1.0 - ys)).mean())


def _softmax_ce_onehot(logits, labels):
    onehot = np.zeros(logits.shape)
    onehot[np.arange(labels.size), labels] = 1.0
    return -((log_softmax(logits) * onehot).sum(axis=1))


def _value_and_grad(fn, x):
    leaf = Tensor(x, requires_grad=True)
    out = fn(leaf)
    out.backward()
    return out.data, leaf.grad


@pytest.mark.parametrize("seed", range(20))
def test_mask_loss_bit_equals_two_log_form(seed):
    rng = np.random.default_rng(seed)
    shape = [(5, 5), (3, 4, 4), (1, 2, 2)][seed % 3]
    y = rng.uniform(0.0, 1.0, shape)
    # a quarter of the cells sit where the clamp saturates, on both sides
    edge = rng.uniform(size=shape) < 0.25
    y[edge] = rng.choice([0.0, 1e-12, EPS, 1.0 - EPS, 1.0 - 1e-12, 1.0], size=int(edge.sum()))
    ys = rng.integers(0, 2, shape).astype(np.float64)
    got = _value_and_grad(lambda t: mask_loss(t, ys), y)
    want = _value_and_grad(lambda t: _mask_loss_two_logs(t, ys), y)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", range(20))
def test_softmax_ce_bit_equals_onehot_form(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 9)), int(rng.integers(2, 6))
    logits = rng.standard_normal((n, k)) * 4.0
    labels = rng.integers(0, k, n)
    weights = Tensor(rng.standard_normal(n))  # a different gradient per row
    got = _value_and_grad(lambda t: (softmax_ce(t, labels) * weights).sum(), logits)
    want = _value_and_grad(lambda t: (_softmax_ce_onehot(t, labels) * weights).sum(), logits)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(softmax_ce(Tensor(logits), labels).data,
                                  _softmax_ce_onehot(Tensor(logits), labels).data)


def test_total_loss_hand_composition():
    # two ln2 cls terms over N_cls=2, one 0.125 reg term over N_reg=100,
    # and a chance-level mask: ln2 + 0.00125 + ln2
    cls_terms = cls_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0, 0.0]))
    reg_terms = reg_loss(Tensor(np.array([[0.5, 0, 0, 0]])), np.zeros((1, 4)))
    mask_term = mask_loss(Tensor(np.full((2, 2), 0.5)), np.ones((2, 2)))
    total, report = total_loss(cls_terms, reg_terms, mask_term, n_cls=2, n_reg=100)
    want = math.log(2.0) + 0.00125 + math.log(2.0)
    assert total.item() == pytest.approx(want, abs=1e-12)
    assert total.item() == pytest.approx(1.38754, abs=1e-5)
    assert report.l_total == pytest.approx(report.l_cls + report.l_reg + report.l_mask)


def test_total_loss_mask_linearity():
    cls_terms = cls_loss(Tensor(np.array([0.5])), np.array([1.0]))
    base, _ = total_loss(cls_terms, None, Tensor(np.array(0.1)), n_cls=1, n_reg=1)
    bumped, _ = total_loss(cls_terms, None, Tensor(np.array(0.6)), n_cls=1, n_reg=1)
    assert bumped.item() - base.item() == pytest.approx(0.5, abs=1e-12)


def test_total_loss_missing_parts_and_weight():
    total, report = total_loss(None, None, None, n_cls=1, n_reg=1)
    assert total.item() == 0.0
    reg_terms = reg_loss(Tensor(np.array([[2.0, 0, 0, 0]])), np.zeros((1, 4)))
    weighted, _ = total_loss(None, reg_terms, None, n_cls=1, n_reg=1, reg_weight=10.0)
    assert weighted.item() == pytest.approx(15.0)


def test_total_loss_backward_flows_to_all_parts():
    p = Tensor(np.array([0.4, 0.6]), requires_grad=True)
    t = Tensor(np.array([[0.3, 0, 0, 0]]), requires_grad=True)
    y = Tensor(np.full((2, 2), 0.5), requires_grad=True)
    total, _ = total_loss(
        cls_loss(p, np.array([1.0, 0.0])),
        reg_loss(t, np.zeros((1, 4))),
        mask_loss(y, np.ones((2, 2))),
        n_cls=2,
        n_reg=1,
    )
    total.backward()
    assert p.grad is not None and np.abs(p.grad).min() > 0
    assert t.grad is not None and abs(t.grad[0, 0]) > 0
    assert y.grad is not None and np.abs(y.grad).min() > 0


@pytest.mark.parametrize("seed", range(10))
def test_loss_gradients(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.95, 8)
    y = rng.integers(0, 2, 8).astype(float)
    assert grad_check(lambda t: cls_loss(t, y).sum(), Tensor(p)) < 1e-3

    d = rng.uniform(-2, 2, (4, 4))
    d = np.where(np.abs(np.abs(d) - 1) < 0.01, d * 1.1, d)  # step off the kink
    assert grad_check(lambda t: reg_loss(t, np.zeros((4, 4))).sum(), Tensor(d)) < 1e-3


# -- anchor labeling ----------------------------------------------------------


def test_assignment_thresholds_and_ignore_band():
    gt = [(5.0, 5.0, 15.0, 15.0)]
    anchors = [
        (5.0, 5.0, 15.0, 15.0),  # IoU 1.0 -> positive
        (6.0, 5.0, 16.0, 15.0),  # IoU ~0.82 -> positive
        (11.0, 5.0, 21.0, 15.0),  # IoU 0.25 -> negative
        (5.0, 8.0, 15.0, 20.0),  # IoU ~0.47: the ignore band
        (75.0, 75.0, 85.0, 85.0),  # IoU 0 -> negative
    ]
    out = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(0))
    assert out.labels[0] == POSITIVE
    assert out.labels[1] == POSITIVE
    assert out.labels[2] == NEGATIVE
    assert out.labels[3] == IGNORE
    assert out.labels[4] == NEGATIVE
    assert out.matched_gt[0] == 0
    assert out.matched_gt[4] == -1


def test_assignment_bounds_are_inclusive():
    # IoUs of exactly NEG_IOU and POS_IOU: 30/100 and 70/100 in float
    gt = [(0.0, 0.0, 10.0, 10.0)]
    anchors = [(0.0, 0.0, 10.0, 10.0), (0.0, 0.0, 10.0, 3.0), (0.0, 0.0, 10.0, 7.0)]
    out = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(0))
    assert out.labels.tolist() == [POSITIVE, NEGATIVE, POSITIVE]


def test_assignment_rescue_low_iou_argmax():
    # nothing reaches 0.7, but the best anchor per box is still positive
    gt = [(6.0, 6.0, 14.0, 14.0)]
    anchors = [
        (13.0, 6.0, 21.0, 14.0),  # IoU ~0.067, the best available
        (36.0, 36.0, 44.0, 44.0),  # zero overlap
    ]
    out = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(0))
    assert out.labels[0] == POSITIVE
    assert out.matched_gt[0] == 0
    assert out.labels[1] == NEGATIVE


def test_assignment_rescue_includes_ties_but_never_zero_iou():
    gt = [(6.0, 6.0, 14.0, 14.0), (96.0, 96.0, 104.0, 104.0)]
    anchors = [
        (12.0, 6.0, 20.0, 14.0),  # ties with the next for box 0
        (0.0, 6.0, 8.0, 14.0),
        (46.0, 46.0, 54.0, 54.0),  # zero IoU with both boxes
    ]
    out = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(0))
    assert out.labels[0] == POSITIVE and out.labels[1] == POSITIVE
    # the zero-overlap anchor must not be rescued for the far-away box
    assert out.labels[2] == NEGATIVE


def _grid_rows(rng, n):
    """n corner rows with small integer corners: repeated boxes and equal
    overlaps are common."""
    xy = rng.integers(0, 8, (n, 2))
    return np.column_stack([xy, xy + rng.integers(2, 5, (n, 2))]).astype(np.float64)


def test_assignment_equals_bruteforce_oracle():
    # the IoUs are the oracle's bit for bit, so labels and matches agree
    # exactly, also where several anchors tie as a box's best overlap
    rng = np.random.default_rng(19)
    tied_rescues = 0
    for case in range(300):
        anchors, gt = _grid_rows(rng, int(rng.integers(1, 40))), _grid_rows(rng, int(rng.integers(0, 5)))
        labels, matched = anchor_labels_reference(anchors.tolist(), gt.tolist())
        out = assign_anchor_labels(anchors, gt, np.random.default_rng(case))
        assert out.labels.tolist() == labels, f"case {case}"
        assert out.matched_gt.tolist() == matched, f"case {case}"
        if len(gt):
            ious = np.array([[iou_xyxy(a, g) for g in gt.tolist()] for a in anchors.tolist()])
            top = ious.max(axis=0)
            tied = ((ious == top) & (top > 0)).sum(axis=0) > 1
            tied_rescues += int((tied & (top < POS_IOU)).sum())
    assert tied_rescues > 40


def test_assignment_no_gt_all_negative():
    anchors = [(3.0, 3.0, 7.0, 7.0) for _ in range(6)]
    out = assign_anchor_labels(box_array(anchors), np.zeros((0, 4)), np.random.default_rng(0))
    assert (out.labels == NEGATIVE).all()
    assert out.sampled_pos.size == 0
    assert out.sampled_neg.size == 6


def test_minibatch_caps_and_composition():
    rng = np.random.default_rng(3)
    gt = [(24.0, 24.0, 40.0, 40.0)]
    # a dense grid produces plenty of positives and negatives
    anchors = [
        (24.0 + dx, 24.0 + dy, 40.0 + dx, 40.0 + dy)
        for dx in np.linspace(-24, 24, 16)
        for dy in np.linspace(-24, 24, 16)
    ]
    out = assign_anchor_labels(box_array(anchors), box_array(gt), rng, batch=32, pos_fraction=0.5)
    assert out.sampled_pos.size <= 16
    assert out.sampled_pos.size + out.sampled_neg.size <= 32
    assert set(out.labels[out.sampled_pos]) == {POSITIVE}
    assert set(out.labels[out.sampled_neg]) == {NEGATIVE}
    assert np.intersect1d(out.sampled_pos, out.sampled_neg).size == 0


def test_minibatch_sampling_is_seeded():
    gt = [(24.0, 24.0, 40.0, 40.0)]
    anchors = [
        (24.0 + dx, 24.0 + dy, 40.0 + dx, 40.0 + dy)
        for dx in range(-8, 9, 2)
        for dy in range(-8, 9, 2)
    ]
    a = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(5), batch=8)
    b = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(5), batch=8)
    assert np.array_equal(a.sampled, b.sampled)


def test_sample_minibatch_pins_seeded_draws():
    # anchor labelling and region sampling share this draw order: positives
    # first, negatives second, and no draw for a set within its share
    rng = np.random.default_rng(7)
    pos, neg = sample_minibatch(np.arange(10), np.arange(10, 40), 4, 12, rng)
    assert pos.tolist() == [0, 1, 7, 8]
    assert neg.tolist() == [10, 14, 19, 20, 29, 31, 36, 37]
    pos, neg = sample_minibatch(np.arange(3), np.arange(10, 40), 4, 12, rng)
    assert pos.tolist() == [0, 1, 2]
    assert neg.tolist() == [11, 20, 21, 23, 28, 31, 33, 35, 36]
    pos, neg = sample_minibatch(np.arange(2), np.arange(10, 13), 4, 12, rng)
    assert pos.tolist() == [0, 1] and neg.tolist() == [10, 11, 12]
    assert rng.integers(1000) == 847


def test_positive_targets_encode_against_matched_box():
    gt = [(7.0, 5.0, 17.0, 15.0)]
    anchors = [(5.0, 5.0, 15.0, 15.0)]
    out = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(0))
    gi = out.matched_gt[0]
    tx, _, tw, _ = encode(box_array(anchors), box_array(gt)[[gi]])[0]
    assert tx == pytest.approx(0.2)
    assert tw == pytest.approx(0.0)
