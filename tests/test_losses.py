"""Loss fixtures, anchor labeling rules, and the composite total."""

import math

import numpy as np
import pytest

from attnmask.boxes import Box, BoxDelta, box_array, encode
from attnmask.losses import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    MaskTarget,
    assign_anchor_labels,
    cls_loss,
    mask_loss,
    reg_loss,
    softmax_ce,
    total_loss,
)
from attnmask.tensor import Tensor, grad_check


def test_cls_loss_half_is_ln2():
    assert abs(cls_loss(0.5, 1.0).item() - math.log(2.0)) <= 1e-12
    assert abs(cls_loss(0.5, 0.0).item() - math.log(2.0)) <= 1e-12


def test_cls_loss_direction_and_clamp():
    assert cls_loss(0.9, 1.0).item() < cls_loss(0.1, 1.0).item()
    assert cls_loss(0.9, 0.0).item() > cls_loss(0.1, 0.0).item()
    # exact 0/1 predictions stay finite through the clamp
    assert np.isfinite(cls_loss(0.0, 1.0).item())
    assert np.isfinite(cls_loss(1.0, 0.0).item())
    assert cls_loss(1.0, 1.0).item() == pytest.approx(0.0, abs=1e-6)


def test_cls_loss_shape_mismatch():
    with pytest.raises(ValueError):
        cls_loss(Tensor(np.ones(3)), np.ones(4))


def test_softmax_ce_matches_log_softmax():
    logits = np.array([[2.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    out = softmax_ce(Tensor(logits), [0, 2]).data
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    assert out[0] == pytest.approx(-math.log(probs[0, 0]))
    assert out[1] == pytest.approx(math.log(3.0))  # uniform logits


def test_reg_loss_fixture_values():
    zero = BoxDelta(0.0, 0.0, 0.0, 0.0)
    assert reg_loss(BoxDelta(0.5, 0.0, 0.0, 0.0), zero).item() == pytest.approx(0.125)
    assert reg_loss(BoxDelta(2.0, 0.0, 0.0, 0.0), zero).item() == pytest.approx(1.5)
    # continuity across |d| = 1: both branches give 0.5
    lo = reg_loss(BoxDelta(1.0 - 1e-9, 0, 0, 0), zero).item()
    hi = reg_loss(BoxDelta(1.0 + 1e-9, 0, 0, 0), zero).item()
    assert abs(lo - hi) <= 1e-8
    assert reg_loss(BoxDelta(1.0, 0, 0, 0), zero).item() == pytest.approx(0.5)


def test_reg_loss_sums_components_and_batches():
    zero = BoxDelta(0.0, 0.0, 0.0, 0.0)
    assert reg_loss(BoxDelta(0.5, 0.5, 0.5, 0.5), zero).item() == pytest.approx(0.5)
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
    coarse = mask_loss(MaskTarget(Tensor(y), ys)).item()
    fine = mask_loss(MaskTarget(Tensor(np.kron(y, np.ones((2, 2)))), np.kron(ys, np.ones((2, 2))))).item()
    assert coarse == pytest.approx(fine, abs=1e-12)


def test_mask_loss_binary_validation_and_perfect_prediction():
    with pytest.raises(ValueError):
        MaskTarget(Tensor(np.full((2, 2), 0.5)), np.full((2, 2), 0.3))
    ys = np.array([[1.0, 0.0], [0.0, 1.0]])
    near = mask_loss(MaskTarget(Tensor(np.where(ys == 1, 0.999999, 0.000001)), ys)).item()
    assert near == pytest.approx(0.0, abs=1e-5)


def test_mask_loss_log_complement_variant_differs():
    y = Tensor(np.full((2, 2), 0.3))
    ys = np.zeros((2, 2))
    strict = mask_loss(MaskTarget(y, ys), log_complement=True).item()
    raw = mask_loss(MaskTarget(y, ys), log_complement=False).item()
    assert strict == pytest.approx(-math.log(0.7))
    assert raw == pytest.approx(-0.7)


def test_total_loss_hand_composition():
    # two ln2 cls terms over N_cls=2, one 0.125 reg term over N_reg=100,
    # and a chance-level mask: ln2 + 0.00125 + ln2
    cls_terms = cls_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0, 0.0]))
    reg_terms = reg_loss(Tensor(np.array([[0.5, 0, 0, 0]])), np.zeros((1, 4)))
    mask_term = mask_loss(MaskTarget(Tensor(np.full((2, 2), 0.5)), np.ones((2, 2))))
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
        mask_loss(MaskTarget(y, np.ones((2, 2)))),
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
    assert grad_check(lambda t: cls_loss(t, y).sum(), Tensor(p)).ok(1e-3)

    d = rng.uniform(-2, 2, (4, 4))
    d = np.where(np.abs(np.abs(d) - 1) < 0.01, d * 1.1, d)  # step off the kink
    assert grad_check(lambda t: reg_loss(t, np.zeros((4, 4))).sum(), Tensor(d)).ok(1e-3)


# -- anchor labeling ----------------------------------------------------------


def test_assignment_thresholds_and_ignore_band():
    gt = [Box(10.0, 10.0, 10.0, 10.0)]
    anchors = [
        Box(10.0, 10.0, 10.0, 10.0),  # IoU 1.0 -> positive
        Box(11.0, 10.0, 10.0, 10.0),  # IoU ~0.82 -> positive
        Box(16.0, 10.0, 10.0, 10.0),  # IoU 0.25 -> negative
        Box(10.0, 14.0, 10.0, 12.0),  # IoU ~0.47: the ignore band
        Box(80.0, 80.0, 10.0, 10.0),  # IoU 0 -> negative
    ]
    out = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(0))
    assert out.labels[0] == POSITIVE
    assert out.labels[1] == POSITIVE
    assert out.labels[2] == NEGATIVE
    assert out.labels[3] == IGNORE
    assert out.labels[4] == NEGATIVE
    assert out.matched_gt[0] == 0
    assert out.matched_gt[4] == -1


def test_assignment_rescue_low_iou_argmax():
    # nothing reaches 0.7, but the best anchor per box is still positive
    gt = [Box(10.0, 10.0, 8.0, 8.0)]
    anchors = [
        Box(17.0, 10.0, 8.0, 8.0),  # IoU ~0.067, the best available
        Box(40.0, 40.0, 8.0, 8.0),  # zero overlap
    ]
    out = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(0))
    assert out.labels[0] == POSITIVE
    assert out.matched_gt[0] == 0
    assert out.labels[1] == NEGATIVE


def test_assignment_rescue_includes_ties_but_never_zero_iou():
    gt = [Box(10.0, 10.0, 8.0, 8.0), Box(100.0, 100.0, 8.0, 8.0)]
    anchors = [
        Box(16.0, 10.0, 8.0, 8.0),  # ties with the next for box 0
        Box(4.0, 10.0, 8.0, 8.0),
        Box(50.0, 50.0, 8.0, 8.0),  # zero IoU with both boxes
    ]
    out = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(0))
    assert out.labels[0] == POSITIVE and out.labels[1] == POSITIVE
    # the zero-overlap anchor must not be rescued for the far-away box
    assert out.labels[2] == NEGATIVE


def test_assignment_no_gt_all_negative():
    anchors = [Box(5.0, 5.0, 4.0, 4.0) for _ in range(6)]
    out = assign_anchor_labels(box_array(anchors), np.zeros((0, 4)), np.random.default_rng(0))
    assert (out.labels == NEGATIVE).all()
    assert out.sampled_pos.size == 0
    assert out.sampled_neg.size == 6


def test_minibatch_caps_and_composition():
    rng = np.random.default_rng(3)
    gt = [Box(32.0, 32.0, 16.0, 16.0)]
    # a dense grid produces plenty of positives and negatives
    anchors = [
        Box(32.0 + dx, 32.0 + dy, 16.0, 16.0)
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
    gt = [Box(32.0, 32.0, 16.0, 16.0)]
    anchors = [
        Box(32.0 + dx, 32.0 + dy, 16.0, 16.0)
        for dx in range(-8, 9, 2)
        for dy in range(-8, 9, 2)
    ]
    a = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(5), batch=8)
    b = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(5), batch=8)
    assert np.array_equal(a.sampled, b.sampled)


def test_positive_targets_encode_against_matched_box():
    gt = [Box(12.0, 10.0, 10.0, 10.0)]
    anchors = [Box(10.0, 10.0, 10.0, 10.0)]
    out = assign_anchor_labels(box_array(anchors), box_array(gt), np.random.default_rng(0))
    gi = out.matched_gt[0]
    delta = encode(anchors[0], gt[gi])
    assert delta.tx == pytest.approx(0.2)
    assert delta.tw == pytest.approx(0.0)
