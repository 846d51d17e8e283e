"""Assembled detector: wiring, proposals, mask pasting, checkpoints."""

import dataclasses
import gc
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnmask import model as model_mod
from attnmask.backbone import StageConfig
from attnmask.boxes import Box, box_array, generate_anchors, nms, stride_of
from attnmask.model import (
    DET_NMS_IOU,
    MASK_CHUNK,
    MAX_DETS,
    MIN_SIZE,
    InstancePrediction,
    ModelConfig,
    box_head_forward,
    build_model,
    extract_roi_features,
    infer,
    load_checkpoint,
    mask_head_forward,
    paste_mask,
    propose,
    pyramid_forward,
    rpn_forward,
    save_checkpoint,
)
from attnmask.roi_align import assign_level, roi_align
from attnmask.synth import SynthSpec, synth_dataset
from attnmask.tensor import Tensor, conv2d, grad_check, log_softmax, no_grad, relu, sigmoid, upsample_nearest
from numeric_env import digest_context
from oracles import detections_per_class, paste_mask_reference


def _toy_model(variant="none", seed=0):
    return build_model(ModelConfig.toy(variant), seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(variant="senet")
    with pytest.raises(ValueError):
        ModelConfig(num_classes=0)
    assert ModelConfig.toy().num_anchor_shapes == 3
    # the reduction must divide every stage width, whatever the variant
    stages = StageConfig(blocks=(1, 1, 1, 1), widths=(8, 12, 16, 20))
    for variant in ("none", "cbam"):
        with pytest.raises(ValueError, match=r"reduction 8 must divide every stage width \(8, 12, 16, 20\)"):
            ModelConfig(variant=variant, stages=stages, reduction=8)
    assert ModelConfig(stages=stages, reduction=4).reduction == 4


def test_config_caps_hold_both_recipes_and_reject_one_past():
    caps = model_mod.MODEL_CAPS
    for cfg in (ModelConfig(), ModelConfig.toy()):
        assert all(getattr(cfg, name) <= cap for name, cap in caps.items())
    at_caps = {**caps, "mask_out": 2 * caps["mask_resolution"]}
    assert dataclasses.replace(ModelConfig(), **at_caps).head_width == caps["head_width"]
    for name, cap in caps.items():
        past = {name: cap + 1, "mask_out": 2 * (cap + 1)} if name == "mask_resolution" else {name: cap + 1}
        with pytest.raises(ValueError, match=f"^{name} must be at most {cap}, got {cap + 1}$"):
            dataclasses.replace(ModelConfig(), **past)
    # ECA's taps stop at twice the widest stage less 1: 2 * 2048 - 1 and 2 * 64 - 1
    for cfg, taps in ((ModelConfig(), 4095), (ModelConfig.toy("eca"), 127)):
        assert dataclasses.replace(cfg, eca_kernel=taps).eca_kernel == taps
        with pytest.raises(ValueError, match=rf"^eca_kernel must be 'adaptive' or at most {taps} .*got {taps + 2}$"):
            dataclasses.replace(cfg, eca_kernel=taps + 2)


def test_named_params_unique_and_counted():
    model = _toy_model("cbam")
    names = [n for n, _ in model.named_params()]
    assert len(names) == len(set(names))
    assert all(t.requires_grad for _, t in model.named_params())
    assert model.param_count() == sum(t.size for _, t in model.named_params())
    # attention variants add parameters over the plain backbone
    assert model.param_count() > _toy_model("none").param_count()


def test_build_is_seed_deterministic():
    a = dict(_toy_model("se", seed=3).named_params())
    b = dict(_toy_model("se", seed=3).named_params())
    c = dict(_toy_model("se", seed=4).named_params())
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def test_prediction_layers_start_near_zero():
    model = _toy_model("cbam")
    for name, t in model.named_params():
        if name in ("rpn.cls.w", "rpn.reg.w", "box_head.cls_w", "box_head.reg_w", "mask_head.out.w"):
            assert np.abs(t.data).max() <= 0.01, name
        if name == "backbone.stem.w":
            assert np.abs(t.data).max() > 0.01, name


def test_rpn_flatten_order_matches_anchor_order():
    model = _toy_model()
    a = model.cfg.num_anchor_shapes
    dim = model.cfg.fpn_dim

    # make the RPN a passthrough probe: hidden = relu(feature channel 0),
    # foreground logit of every anchor shape = hidden channel 0, so each
    # anchor's score is the logistic function of one feature cell
    model.rpn.conv.w.data[:] = 0.0
    model.rpn.conv.b.data[:] = 0.0
    model.rpn.conv.w.data[0, 0, 1, 1] = 1.0
    model.rpn.cls.w.data[:] = 0.0
    model.rpn.cls.b.data[:] = 0.0
    for s in range(a):
        model.rpn.cls.w.data[2 * s + 1, 0, 0, 0] = 1.0

    # two levels, given out of order: rows run level by level ascending
    shapes = {3: (2, 2), 2: (3, 4)}
    pyramid, level_of = {}, []
    for lvl, (fh, fw) in shapes.items():
        feat = np.zeros((1, dim, fh, fw))
        feat[0, 0] = lvl + 0.1 * np.arange(fh)[:, None] + 0.01 * np.arange(fw)[None, :]
        pyramid[lvl] = Tensor(feat)
    for lvl in sorted(shapes):
        level_of += [lvl] * (shapes[lvl][0] * shapes[lvl][1] * a)
    anchors, scores, offsets = rpn_forward(model, pyramid)
    np.testing.assert_array_equal(anchors, generate_anchors(shapes, model.cfg.anchors))
    assert scores.shape == (len(level_of),) and offsets.shape == (len(level_of), 4)

    for n, ((x1, y1, x2, y2), lvl) in enumerate(zip(anchors, level_of)):
        row = round((y1 + y2) / 2.0 / stride_of(lvl) - 0.5)
        col = round((x1 + x2) / 2.0 / stride_of(lvl) - 0.5)
        assert scores.data[n] == pytest.approx(1.0 / (1.0 + np.exp(-pyramid[lvl].data[0, 0, row, col])))


def test_objectness_equals_softmax_foreground():
    model = _toy_model()
    a = model.cfg.num_anchor_shapes
    # logits of a few units, so scores spread over (0, 1)
    model.rpn.cls.w.data[:] = np.random.default_rng(0).normal(scale=0.5, size=model.rpn.cls.w.shape)
    pyramid = pyramid_forward(model, Tensor(np.random.default_rng(1).uniform(size=(1, 3, 64, 64))))
    _, scores, _ = rpn_forward(model, pyramid)
    want = []
    for lvl in sorted(pyramid):
        h = relu(conv2d(pyramid[lvl], model.rpn.conv.w, model.rpn.conv.b, padding=1))
        z = conv2d(h, model.rpn.cls.w, model.rpn.cls.b).data
        z = z.reshape(a, 2, *z.shape[2:]).transpose(2, 3, 0, 1)  # (row, col, shape, [bg, fg])
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        want.append((e[..., 1] / e.sum(axis=-1)).ravel())
    want = np.concatenate(want)
    assert want.min() < 0.1 and want.max() > 0.9
    np.testing.assert_allclose(scores.data, want, rtol=0.0, atol=1e-12)


def test_propose_respects_caps_and_bounds():
    model = _toy_model()
    x = Tensor(np.random.default_rng(1).uniform(size=(1, 3, 64, 64)))
    anchors, scores, offsets = rpn_forward(model, pyramid_forward(model, x))
    props = propose(anchors, scores, offsets, (64, 64), pre_nms=300, post_nms=12)
    assert 0 < len(props) <= 12
    x1, y1, x2, y2 = props.T
    assert ((0.0 <= x1) & (x1 <= x2) & (x2 <= 64.0)).all()
    assert ((0.0 <= y1) & (y1 <= y2) & (y2 <= 64.0)).all()
    assert (props[:, 2:] - props[:, :2] >= MIN_SIZE).all()

    # the minimum side is 1 px: shrunk to 8*e^-3 = 0.40 px the best anchor
    # is dropped, at 8*e^-2 = 1.08 px the next one stays
    anchors = np.array([[6.0, 6.0, 14.0, 14.0], [26.0, 26.0, 34.0, 34.0], [46.0, 46.0, 54.0, 54.0]])
    scores = Tensor(np.array([0.9, 0.8, 0.7]))
    reg = Tensor(np.array([[0.0, 0.0, -3.0, -3.0], [0.0, 0.0, -2.0, -2.0], [0.0, 0.0, 0.0, 0.0]]))
    props = propose(anchors, scores, reg, (64, 64), pre_nms=3, post_nms=3)
    assert MIN_SIZE == 1.0
    assert (props[:, :2] + props[:, 2:]) / 2.0 == pytest.approx(np.array([[30.0, 30.0], [50.0, 50.0]]))
    assert props[0, 2] - props[0, 0] == pytest.approx(8.0 * np.exp(-2.0))


def test_propose_cap_keeps_the_uncapped_prefix():
    model = _toy_model()
    x = Tensor(np.random.default_rng(1).uniform(size=(1, 3, 64, 64)))
    anchors, scores, offsets = rpn_forward(model, pyramid_forward(model, x))
    full = propose(anchors, scores, offsets, (64, 64), pre_nms=300, post_nms=300)
    assert 100 < len(full) < 300
    for k in (1, 12, 100, 300):
        got = propose(anchors, scores, offsets, (64, 64), pre_nms=300, post_nms=k)
        np.testing.assert_array_equal(got, full[:k])


@pytest.mark.parametrize("caps", [{"pre_nms": 0}, {"pre_nms": -1}, {"post_nms": 0}, {"post_nms": -1}],
                         ids=["zero-pre", "negative-pre", "zero-post", "negative-post"])
def test_propose_rejects_caps_below_one(caps):
    anchors = np.array([[6.0, 6.0, 14.0, 14.0], [26.0, 26.0, 34.0, 34.0], [46.0, 46.0, 54.0, 54.0]])
    scores = Tensor(np.array([0.9, 0.8, 0.7]))
    offsets = Tensor(np.zeros((3, 4)))
    (name, value), = caps.items()
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
        propose(anchors, scores, offsets, (64, 64), **{"pre_nms": 3, "post_nms": 3, **caps})


def test_propose_checks_anchor_alignment():
    model = _toy_model()
    x = Tensor(np.zeros((1, 3, 64, 64)))
    anchors, scores, offsets = rpn_forward(model, pyramid_forward(model, x))
    with pytest.raises(ValueError, match=f"{len(anchors) - 1} anchors vs {len(anchors)} RPN positions"):
        propose(anchors[1:], scores, offsets, (64, 64), pre_nms=1000, post_nms=100)


def test_extract_roi_features_shapes_and_level_clamp():
    model = _toy_model()
    x = Tensor(np.random.default_rng(2).uniform(size=(1, 3, 64, 64)))
    pyramid = pyramid_forward(model, x)
    boxes = np.array([[8.0, 8.0, 12.0, 12.0], [2.0, 2.0, 62.0, 62.0]])
    feats = extract_roi_features(pyramid, boxes, resolution=7)
    assert feats.shape == (2, model.cfg.fpn_dim, 7, 7)


_PYRAMID = {
    lvl: Tensor(np.random.default_rng(lvl).standard_normal((1, 4, 64 >> lvl, 64 >> lvl)))
    for lvl in (2, 3, 4, 5, 6)
}
# sides from 8 to 600 px route to every level from P2 to P5
_region = st.builds(lambda x, y, w, h: (x, y, x + w, y + h),
                    st.floats(0.0, 64.0), st.floats(0.0, 64.0), st.floats(8.0, 600.0), st.floats(8.0, 600.0))


@settings(max_examples=40)
@given(st.lists(_region, min_size=1, max_size=12))
def test_extract_roi_features_keeps_input_order_across_levels(boxes):
    feats = extract_roi_features(_PYRAMID, box_array(boxes), 3)
    assert feats.shape == (len(boxes), 4, 3, 3)
    for row, box in zip(feats.data, boxes):
        lvl = assign_level(box_array([box]))[0]
        want = roi_align(_PYRAMID[lvl], float(stride_of(lvl)), box_array([box]), 3)
        np.testing.assert_allclose(row, want.data[0], rtol=0.0, atol=1e-12)


def test_head_output_shapes():
    model = _toy_model()
    rng = np.random.default_rng(3)
    feats = Tensor(rng.uniform(size=(5, model.cfg.fpn_dim, 7, 7)))
    logits, deltas = box_head_forward(model, feats)
    assert logits.shape == (5, model.cfg.num_classes + 1)
    assert deltas.shape == (5, 4)
    mfeats = rng.uniform(size=(5, model.cfg.fpn_dim, 14, 14))
    classes = np.array([1, 3, 2, 3, 1])
    probs = mask_head_forward(model, Tensor(mfeats), np.arange(5), classes)
    assert probs.shape == (5, 28, 28)
    assert probs.data.min() >= 0.0 and probs.data.max() <= 1.0
    # a batch of regions gets exactly the arithmetic of one call per region
    for feat, k, grid in zip(mfeats, classes, probs.data):
        one = mask_head_forward(model, Tensor(feat[None]), np.array([0]), np.array([k]))
        assert np.array_equal(one.data[0], grid)


def test_mask_head_tail_equals_upsampling_first():
    # a 1x1 conv and a sigmoid commute with nearest upsampling, so the tail
    # at p x p on the class channel gives the values of upsampling first and
    # then reading the class channel of all K
    model = _toy_model()
    head = model.mask_head
    k = model.cfg.num_classes
    rng = np.random.default_rng(8)
    feats = Tensor(rng.standard_normal((5, model.cfg.fpn_dim, 14, 14)))
    h = relu(conv2d(feats, head.conv1.w, head.conv1.b, padding=1))
    h = relu(conv2d(h, head.conv2.w, head.conv2.b, padding=1))
    first = sigmoid(conv2d(upsample_nearest(h), head.out.w, head.out.b)).data
    last = upsample_nearest(sigmoid(conv2d(h, head.out.w, head.out.b))).data
    # the BLAS product rounds some 1x1 conv outputs differently at 28 x 28
    # than at 14 x 14, by at most a few units in the last place
    np.testing.assert_allclose(last, first, rtol=0.0, atol=1e-15)
    for cls in range(1, k + 1):
        got = mask_head_forward(model, feats, np.arange(5), np.full(5, cls)).data
        assert np.array_equal(got, last[:, cls - 1]), f"class {cls}"
        np.testing.assert_allclose(got, first[:, cls - 1], rtol=0.0, atol=1e-15, err_msg=f"class {cls}")
    mixed = np.array([3, 1, 2, 3, 3])
    assert np.array_equal(mask_head_forward(model, feats, np.arange(5), mixed).data, last[np.arange(5), mixed - 1])

    # the gradient with respect to the features flows through the class
    # gather, the sigmoid and the upsampling; a small head keeps it cheap
    small = build_model(dataclasses.replace(ModelConfig.toy(), fpn_dim=3, mask_resolution=4, mask_out=8), seed=2)
    small.mask_head.out.w.data = rng.standard_normal(small.mask_head.out.w.shape)
    x0 = rng.standard_normal((3, 3, 4, 4))
    pw = rng.standard_normal((3, 8, 8))
    regions, classes = np.arange(3), np.array([2, 1, 2])
    assert grad_check(lambda t: (mask_head_forward(small, t, regions, classes) * pw).sum(), Tensor(x0)) < 1e-3


def test_mask_head_repeated_regions_equal_single_calls():
    # infer passes each distinct proposal row once and repeats its index for
    # every class the row is detected in
    model = _toy_model()
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((3, model.cfg.fpn_dim, 14, 14))
    regions, classes = np.array([0, 2, 0, 1, 2]), np.array([1, 3, 2, 2, 1])
    got = mask_head_forward(model, Tensor(feats), regions, classes).data
    assert got.shape == (5, 28, 28)
    for grid, i, k in zip(got, regions, classes):
        one = mask_head_forward(model, Tensor(feats[i : i + 1]), np.array([0]), np.array([k])).data[0]
        assert np.array_equal(grid, one), f"region {i}, class {k}"

    # a repeated region's gradient sums over its rows, and a repeated
    # (region, class) pair reads one logit row twice, which gather_rows'
    # backward must accumulate
    small = build_model(dataclasses.replace(ModelConfig.toy(), fpn_dim=3, mask_resolution=4, mask_out=8), seed=2)
    small.mask_head.out.w.data = rng.standard_normal(small.mask_head.out.w.shape)
    x0 = rng.standard_normal((2, 3, 4, 4))
    pw = rng.standard_normal((4, 8, 8))
    regions, classes = np.array([1, 0, 1, 1]), np.array([2, 1, 2, 3])
    assert grad_check(lambda t: (mask_head_forward(small, t, regions, classes) * pw).sum(), Tensor(x0)) < 1e-3


@pytest.mark.parametrize(
    "regions, classes, message",
    [
        ([0], [0], r"classes must lie in 1\.\.3"),
        ([1], [4], r"classes must lie in 1\.\.3"),
        ([-1], [1], r"region indices must lie in \[0, 2\)"),
        ([2], [1], r"region indices must lie in \[0, 2\)"),
        ([0, 1], [1], "2 region indices vs 1 classes"),
        ([0], [1, 2], "1 region indices vs 2 classes"),
    ],
)
def test_mask_head_rejects_bad_regions_and_classes(regions, classes, message):
    # class 0 would read the previous region's class-K channel, -1 would wrap
    # around to the last region, and a length mismatch would broadcast
    model = _toy_model()
    feats = Tensor(np.zeros((2, model.cfg.fpn_dim, 14, 14)))
    with pytest.raises(ValueError, match=message):
        mask_head_forward(model, feats, np.array(regions), np.array(classes))


def test_fresh_model_class_probs_near_uniform():
    # near-zero head init keeps initial class scores at chance
    model = _toy_model("cbam")
    x = Tensor(np.random.default_rng(4).uniform(size=(1, 3, 64, 64)))
    pyramid = pyramid_forward(model, x)
    feats = extract_roi_features(pyramid, np.array([[14.0, 14.0, 26.0, 26.0]]), 7)
    logits, deltas = box_head_forward(model, feats)
    probs = np.exp(logits.data - logits.data.max())
    probs /= probs.sum()
    # no class should start confident; a relu-scaled head would hit ~0.99
    assert logits.data.max() - logits.data.min() < 1.5
    assert probs.max() < 0.5 and probs.min() > 0.1
    assert np.abs(deltas.data).max() < 1.0  # refinements start near identity


def _paste_one(probs: np.ndarray, row: np.ndarray, height: int, width: int) -> np.ndarray:
    return paste_mask(probs[None], row, height, width)[0]


def test_paste_mask_full_grid_counts_inside_pixels():
    probs = np.ones((4, 4))
    mask = _paste_one(probs, np.array([[2.0, 2.0, 6.0, 6.0]]), 10, 10)
    assert mask.sum() == 16
    assert mask[2:6, 2:6].all()

    # off-canvas box pastes nothing
    assert _paste_one(probs, np.array([[198.0, 3.0, 202.0, 7.0]]), 10, 10).sum() == 0

    # sub-threshold probabilities paste nothing
    assert _paste_one(np.full((4, 4), 0.4), np.array([[2.0, 2.0, 6.0, 6.0]]), 10, 10).sum() == 0


def test_paste_mask_respects_grid_layout():
    # left half on, right half off: only the left half of the box fills
    probs = np.zeros((4, 4))
    probs[:, :2] = 1.0
    mask = _paste_one(probs, np.array([[0.0, 0.0, 8.0, 8.0]]), 8, 8)
    assert mask[:, :3].all()      # grid centers land at x=1,3,5,7
    assert not mask[:, 4:].any()  # right half stays clear


def test_paste_mask_clips_to_canvas():
    probs = np.ones((4, 4))
    mask = _paste_one(probs, np.array([[-4.0, 2.0, 4.0, 6.0]]), 10, 10)
    assert mask.sum() == 16  # 4 wide inside canvas x 4 tall
    assert mask[2:6, 0:4].all()


def test_paste_mask_batch_equals_per_pixel_oracle():
    height, width, m = 24, 32, 6
    rng = np.random.default_rng(11)
    special = [
        [-5.0, 3.0, 9.0, 15.0],         # crosses the left edge
        [25.0, 4.0, 40.0, 18.0],        # crosses the right edge
        [6.0, -7.0, 20.0, 5.0],         # crosses the top edge
        [3.0, 17.0, 14.0, 31.0],        # crosses the bottom edge
        [-3.0, -2.0, 36.0, 27.0],       # covers the whole canvas
        [56.0, 6.0, 64.0, 14.0],        # fully off the canvas
        [10.25, 7.3, 10.75, 7.7],       # sub-pixel, holds one pixel center
        [9.7, 6.7, 10.3, 7.3],          # sub-pixel, holds none
        [4.5, 5.5, 12.5, 14.5],         # edges on pixel centers
    ]
    drawn = []
    for _ in range(2 * MASK_CHUNK):
        xy, wh = rng.uniform(-4.0, 36.0, 2), rng.uniform(1.0, 20.0, 2)
        drawn.append([*xy, *(xy + wh)])
    boxes = np.array(special + drawn)
    probs = rng.uniform(0.0, 1.0, (len(boxes), m, m))
    masks = paste_mask(probs, boxes, height, width)
    assert masks.shape == (len(boxes), height, width) and masks.dtype == bool
    for i, (grid, row) in enumerate(zip(probs, boxes)):
        want = paste_mask_reference(grid, row, height, width)
        np.testing.assert_array_equal(masks[i], want, err_msg=f"row {i}")
        np.testing.assert_array_equal(paste_mask(probs[i : i + 1], boxes[i : i + 1], height, width)[0], masks[i])
    assert masks[:5].any(axis=(1, 2)).all() and not masks[5].any()
    # a full grid turns on exactly the pixel centers a box holds, its edges included
    ones = np.ones((3, m, m))
    assert paste_mask(ones, boxes[6:9], height, width).sum(axis=(1, 2)).tolist() == [1, 0, 9 * 10]
    assert [paste_mask_reference(ones[0], row, height, width).sum() for row in boxes[6:9]] == [1, 0, 9 * 10]


def test_infer_structure_and_caps(monkeypatch):
    model = _toy_model("cbam")
    image = np.random.default_rng(5).uniform(size=(3, 64, 64))
    mask_calls = []  # (feature rows, output grids) of each mask-head call

    def spy(*args):
        mask_calls.append((args[1].shape[0], mask_head_forward(*args)))
        return mask_calls[-1][1]

    monkeypatch.setattr(model_mod, "mask_head_forward", spy)
    # fresh heads score every class near 1/4, so at conf 0 all of the
    # 139 detections that survive NMS here fire and the cap keeps 100
    preds = infer(model, image, image_id=9, conf_threshold=0.0)
    assert MAX_DETS == 100
    assert len(preds) == MAX_DETS
    # one mask-head call per chunk of distinct proposal rows (a row's
    # detections share its refined box), one grid per detection, and
    # inference records no graph
    distinct = len({p.detection.box for p in preds})
    assert distinct < MAX_DETS
    assert len(mask_calls) == math.ceil(distinct / MASK_CHUNK)
    assert all(rows <= MASK_CHUNK for rows, _ in mask_calls)
    assert sum(rows for rows, _ in mask_calls) == distinct
    assert sum(out.shape[0] for _, out in mask_calls) == len(preds)
    assert not any(out.requires_grad for _, out in mask_calls)
    assert all(t.grad is None and t.requires_grad for _, t in model.named_params())
    scores = [p.detection.score for p in preds]
    assert scores == sorted(scores, reverse=True)
    for p in preds:
        assert isinstance(p, InstancePrediction)
        assert p.detection.image_id == 9
        assert 1 <= p.detection.class_id <= model.cfg.num_classes
        assert p.mask.shape == (64, 64) and p.mask.dtype == bool

    # stricter thresholds than chance yield nothing on a fresh model, and
    # with no detection the mask head is not called
    mask_calls.clear()
    assert infer(model, image, conf_threshold=0.9) == []
    assert infer(model, image, conf_threshold=1.0) == []
    assert mask_calls == []


@no_grad()
def _infer_per_detection(model, image, conf):
    """infer with the mask head run on every detection's own row, in chunks
    of MASK_CHUNK detections: the loop that the per-row path replaced."""
    height, width = image.shape[1:]
    pyramid = pyramid_forward(model, Tensor(image[None]))
    proposals = propose(*rpn_forward(model, pyramid), (height, width), pre_nms=1000, post_nms=100)
    logits, deltas = box_head_forward(model, extract_roi_features(pyramid, proposals, model.cfg.box_resolution))
    probs = np.exp(log_softmax(logits).data)
    refined, kept = model_mod._refine(proposals, deltas.data, float(width), float(height))
    classes, rows = np.nonzero(probs[kept, 1:].T >= conf)
    scores = probs[kept[rows], classes + 1]
    keep = nms(refined[rows], scores, DET_NMS_IOU, max_keep=MAX_DETS, labels=classes)
    boxes, scores, classes = refined[rows[keep]], scores[keep].tolist(), classes[keep] + 1
    out = []
    for lo in range(0, len(keep), MASK_CHUNK):
        chunk = slice(lo, lo + MASK_CHUNK)
        feats = extract_roi_features(pyramid, boxes[chunk], model.cfg.mask_resolution)
        grids = mask_head_forward(model, feats, np.arange(feats.shape[0]), classes[chunk]).data
        masks = paste_mask(grids, boxes[chunk], height, width)
        for k, box, score, mask in zip(classes[chunk].tolist(), boxes[chunk].tolist(), scores[chunk], masks):
            out.append((k, score, Box(*box), mask.tobytes()))
    return out


# a random class layer spreads the scores: at conf 0 the 100 detections
# share 72 proposal rows, and at 0.5 each of 40 rows passes in one class
@pytest.mark.parametrize("conf, dets, rows", [(0.0, 100, 72), (0.5, 40, 40)])
def test_infer_equals_per_detection_mask_loop(monkeypatch, conf, dets, rows):
    model = _toy_model("cbam")
    model.box_head.cls_w.data = np.random.default_rng(3).standard_normal(model.box_head.cls_w.shape)
    image = np.random.default_rng(5).uniform(size=(3, 64, 64))
    want = _infer_per_detection(model, image, conf)
    pooled = []

    def spy(*args):
        pooled.append(args[1].shape[0])
        return mask_head_forward(*args)

    monkeypatch.setattr(model_mod, "mask_head_forward", spy)
    preds = infer(model, image, conf_threshold=conf)
    assert len(want) == dets and sum(pooled) == rows
    assert len({k for k, *_ in want}) > 1
    got = [(p.detection.class_id, p.detection.score, p.detection.box, p.mask.tobytes()) for p in preds]
    assert got == want


# at conf 0 all 139 NMS survivors fire and the cap keeps 100; at 0.2, 71 of
# three classes survive under the cap (at 0.3 nothing fires on this model)
@pytest.mark.parametrize("conf, survivors", [(0.0, 139), (0.2, 71)])
def test_infer_matches_per_class_reference(monkeypatch, conf, survivors):
    model = _toy_model("cbam")
    image = np.random.default_rng(5).uniform(size=(3, 64, 64))
    seen = {}
    for name in ("log_softmax", "_refine"):

        def spy(*args, real=getattr(model_mod, name), name=name):
            seen[name] = real(*args)
            return seen[name]

        monkeypatch.setattr(model_mod, name, spy)
    preds = infer(model, image, conf_threshold=conf)
    refined, kept = seen["_refine"]  # the last call refines the box head's boxes
    probs = np.exp(seen["log_softmax"].data)[kept]
    boxes = [Box(*box) for box in refined.tolist()]
    want = detections_per_class(probs.tolist(), boxes, conf, DET_NMS_IOU)
    assert len(want) == survivors
    got = [(p.detection.class_id, p.detection.score, p.detection.box) for p in preds]
    assert got == [(k, score, boxes[i]) for k, i, score in want[:MAX_DETS]]


# sha256 of every detection's class id, score, box corners and mask bytes
# from infer at conf 0.0 (100 per scene, masks from the mask head) on
# _INFER_DIGEST_SCENES. Recorded with the form whose relu selected with
# np.where, whose sigmoid gathered each sign's cells and whose ROI Align
# max chained four samples, and re-recorded at one BLAS thread, which moved
# scores by at most 1.1e-16 and boxes by at most 7.1e-15 with the same
# classes and masks; any change to the last bit of a score or box, or to a
# mask pixel, changes it.
INFER_DIGEST = "d4b35dd2c0500990e89cfab29ca2bd3d0d0d1e0ea6fdfe0129a8e351f9ceffb9"
_INFER_DIGEST_SCENES = (29, 3)  # synth_dataset seed and count


def test_infer_matches_its_digest():
    model = build_model(ModelConfig.toy("cbam"), seed=0)
    h = hashlib.sha256()
    count = 0
    for image_id, sample in enumerate(synth_dataset(SynthSpec(), *_INFER_DIGEST_SCENES)):
        for p in infer(model, sample.image, image_id=image_id, conf_threshold=0.0):
            d = p.detection
            h.update(np.int64(d.class_id).tobytes() + np.array([d.score, *d.box]).tobytes() + p.mask.tobytes())
            count += 1
    assert count == 3 * MAX_DETS
    assert h.hexdigest() == INFER_DIGEST, digest_context()


@pytest.mark.parametrize("conf", [float("nan"), -0.1, 1.5], ids=["nan", "negative", "above-one"])
def test_infer_rejects_bad_conf_threshold(conf):
    with pytest.raises(ValueError, match=rf"conf_threshold must be in \[0, 1\], got {conf}"):
        infer(_toy_model(), np.zeros((3, 64, 64)), conf_threshold=conf)


@pytest.mark.parametrize("shape", [(64, 64), (64, 64, 3), (1, 3, 64, 64)], ids=["2d", "channels-last", "batch"])
def test_infer_rejects_images_not_3hw(shape):
    with pytest.raises(ValueError, match=rf"image must be \(3, H, W\), got shape {re.escape(str(shape))}"):
        infer(_toy_model(), np.zeros(shape))


def test_checkpoint_roundtrip(tmp_path):
    model = _toy_model("eca", seed=1)
    path = str(tmp_path / "model.npz")
    save_checkpoint(model, path)
    other = _toy_model("eca", seed=2)
    load_checkpoint(other, path)
    want = dict(model.named_params())
    for name, t in other.named_params():
        assert np.array_equal(t.data, want[name].data), name


def test_checkpoint_key_and_shape_mismatch(tmp_path):
    model = _toy_model()
    arrays = {name: t.data for name, t in model.named_params()}

    dropped = dict(arrays)
    dropped.pop("rpn.cls.w")
    np.savez(tmp_path / "missing.npz", **dropped)
    with pytest.raises(ValueError, match="missing"):
        load_checkpoint(model, str(tmp_path / "missing.npz"))

    extra = dict(arrays)
    extra["bogus"] = np.zeros(3)
    np.savez(tmp_path / "extra.npz", **extra)
    with pytest.raises(ValueError, match="extra"):
        load_checkpoint(model, str(tmp_path / "extra.npz"))

    bad = dict(arrays)
    bad["rpn.cls.w"] = np.zeros((1, 1, 1, 1))
    np.savez(tmp_path / "bad.npz", **bad)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(model, str(tmp_path / "bad.npz"))


def test_unreadable_checkpoint_is_rejected_without_leaking_its_file(tmp_path):
    model = _toy_model()
    truncated = str(tmp_path / "model.npz")
    save_checkpoint(model, truncated)
    with open(truncated, "r+b") as fh:
        fh.truncate(4096)
    bare = str(tmp_path / "array.npy")  # one array, not an archive
    np.save(bare, np.zeros(3))
    for path in (truncated, bare):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="unreadable checkpoint archive") as err:
                load_checkpoint(model, path)
            gc.collect()
        assert path in str(err.value)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_checkpoint_rejects_non_finite_arrays(tmp_path):
    model = _toy_model()
    path = str(tmp_path / "model.npz")
    save_checkpoint(model, path)
    with np.load(path) as archive:
        good = {name: archive[name] for name in archive.files}
    w = good["box_head.cls_w"]
    nan = w.copy()
    nan[1, 2] = np.nan
    # strings, complex and bool values are not real numbers, whatever they would cast to
    bad = [
        (nan, "non-finite"),
        (w.astype(str), "dtype <U.* is not integer or float"),
        (w + 1j, "dtype complex128 is not integer or float"),
        (w > 0, "dtype bool is not integer or float"),
    ]
    target = _toy_model(seed=1)
    before = {name: t.data.copy() for name, t in target.named_params()}
    for array, message in bad:
        np.savez(path, **{**good, "box_head.cls_w": array})
        with pytest.raises(ValueError, match=r"box_head\.cls_w.*" + message):
            load_checkpoint(target, path)
        # a rejected checkpoint leaves every parameter as it was
        for name, t in target.named_params():
            assert np.array_equal(t.data, before[name]), name
