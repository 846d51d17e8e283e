"""Assembled detector: wiring, proposals, mask pasting, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnmask.backbone import stride_of
from attnmask.boxes import AnchorConfig, Box, box_array, generate_anchors
from attnmask.model import (
    InstancePrediction,
    ModelConfig,
    _clip_or_none,
    box_head_forward,
    build_model,
    extract_roi_features,
    infer,
    load_checkpoint,
    mask_head_forward,
    objectness,
    paste_mask,
    propose,
    pyramid_forward,
    rpn_forward,
    save_checkpoint,
)
from attnmask.roi_align import ROIAlignConfig, assign_level, roi_align
from attnmask.tensor import Tensor


def _toy_model(variant="none", seed=0):
    return build_model(ModelConfig.toy(variant), seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(variant="senet")
    with pytest.raises(ValueError):
        ModelConfig(num_classes=0)
    assert ModelConfig.toy().num_anchor_shapes == 3


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
    # foreground logit of every anchor shape = hidden channel 0
    model.rpn.conv.w.data[:] = 0.0
    model.rpn.conv.b.data[:] = 0.0
    model.rpn.conv.w.data[0, 0, 1, 1] = 1.0
    model.rpn.cls.w.data[:] = 0.0
    model.rpn.cls.b.data[:] = 0.0
    for s in range(a):
        model.rpn.cls.w.data[2 * s + 1, 0, 0, 0] = 1.0

    fh, fw = 3, 4
    feat = np.zeros((dim, fh, fw))
    feat[0] = 10.0 * np.arange(fh)[:, None] + np.arange(fw)[None, :] + 1.0
    pyramid = {2: Tensor(feat)}
    obj, _ = rpn_forward(model, pyramid)[2]
    assert obj.shape == (fh * fw * a, 2)

    anchors = generate_anchors({2: (fh, fw)}, model.cfg.anchors)
    for n, (cx, cy, _, _) in enumerate(anchors):
        row = int(cy / 4 - 0.5)
        col = int(cx / 4 - 0.5)
        assert obj.data[n, 1] == pytest.approx(feat[0, row, col])


def test_objectness_equals_softmax_foreground():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(40, 2))
    got = objectness(Tensor(z)).data
    e = np.exp(z - z.max(axis=1, keepdims=True))
    want = (e[:, 1] / e.sum(axis=1))
    assert np.allclose(got, want, atol=1e-12)


def test_clip_or_none():
    assert _clip_or_none(Box(100.0, 8.0, 4.0, 4.0), 64.0, 64.0) is None
    partial = _clip_or_none(Box(63.0, 8.0, 6.0, 4.0), 64.0, 64.0)
    assert partial.x2 == 64.0 and partial.x1 == 60.0


def test_propose_respects_caps_and_bounds():
    model = _toy_model()
    x = Tensor(np.random.default_rng(1).uniform(size=(3, 64, 64)))
    pyramid = pyramid_forward(model, x)
    shapes = {lvl: (f.shape[1], f.shape[2]) for lvl, f in pyramid.items()}
    anchors = generate_anchors(shapes, model.cfg.anchors)
    rpn_out = rpn_forward(model, pyramid)
    props = propose(model, pyramid, anchors, rpn_out, (64, 64), post_nms=12, min_size=2.0)
    assert 0 < len(props) <= 12
    for b in (Box(*row) for row in props):
        assert 0.0 <= b.x1 <= b.x2 <= 64.0
        assert 0.0 <= b.y1 <= b.y2 <= 64.0
        assert b.w >= 2.0 and b.h >= 2.0


def test_propose_checks_anchor_alignment():
    model = _toy_model()
    x = Tensor(np.zeros((3, 64, 64)))
    pyramid = pyramid_forward(model, x)
    rpn_out = rpn_forward(model, pyramid)
    with pytest.raises(ValueError):
        propose(model, pyramid, np.zeros((0, 4)), rpn_out, (64, 64))


def test_extract_roi_features_shapes_and_level_clamp():
    model = _toy_model()
    x = Tensor(np.random.default_rng(2).uniform(size=(3, 64, 64)))
    pyramid = pyramid_forward(model, x)
    boxes = [Box(10.0, 10.0, 4.0, 4.0), Box(32.0, 32.0, 60.0, 60.0)]
    feats = extract_roi_features(pyramid, box_array(boxes), resolution=7)
    assert feats.shape == (2, model.cfg.fpn_dim, 7, 7)


_PYRAMID = {
    lvl: Tensor(np.random.default_rng(lvl).standard_normal((4, 64 >> lvl, 64 >> lvl)))
    for lvl in (2, 3, 4, 5, 6)
}
# sides from 8 to 600 px route to every level from P2 to P5
_region = st.builds(
    Box, st.floats(0.0, 64.0), st.floats(0.0, 64.0), st.floats(8.0, 600.0), st.floats(8.0, 600.0)
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(_region, min_size=1, max_size=12))
def test_extract_roi_features_keeps_input_order_across_levels(boxes):
    feats = extract_roi_features(_PYRAMID, box_array(boxes), 3)
    assert feats.shape == (len(boxes), 4, 3, 3)
    for row, box in zip(feats.data, boxes):
        lvl = assign_level(box_array([box]))[0]
        want = roi_align(_PYRAMID[lvl], float(stride_of(lvl)), box, ROIAlignConfig(3))
        np.testing.assert_allclose(row, want.data, rtol=0.0, atol=1e-12)


def test_head_output_shapes():
    model = _toy_model()
    rng = np.random.default_rng(3)
    feats = Tensor(rng.uniform(size=(5, model.cfg.fpn_dim, 7, 7)))
    logits, deltas = box_head_forward(model, feats)
    assert logits.shape == (5, model.cfg.num_classes + 1)
    assert deltas.shape == (5, 4)
    mfeat = Tensor(rng.uniform(size=(model.cfg.fpn_dim, 14, 14)))
    probs = mask_head_forward(model, mfeat)
    assert probs.shape == (model.cfg.num_classes, 28, 28)
    assert probs.data.min() >= 0.0 and probs.data.max() <= 1.0


def test_fresh_model_class_probs_near_uniform():
    # near-zero head init keeps initial class scores at chance
    model = _toy_model("cbam")
    x = Tensor(np.random.default_rng(4).uniform(size=(3, 64, 64)))
    pyramid = pyramid_forward(model, x)
    feats = extract_roi_features(pyramid, box_array([Box(20.0, 20.0, 12.0, 12.0)]), 7)
    logits, deltas = box_head_forward(model, feats)
    probs = np.exp(logits.data - logits.data.max())
    probs /= probs.sum()
    # no class should start confident; a relu-scaled head would hit ~0.99
    assert logits.data.max() - logits.data.min() < 1.5
    assert probs.max() < 0.5 and probs.min() > 0.1
    assert np.abs(deltas.data).max() < 1.0  # refinements start near identity


def test_paste_mask_full_grid_counts_inside_pixels():
    probs = np.ones((4, 4))
    mask = paste_mask(probs, Box.from_corners(2.0, 2.0, 6.0, 6.0), 10, 10)
    assert mask.sum() == 16
    assert mask[2:6, 2:6].all()

    # off-canvas box pastes nothing
    assert paste_mask(probs, Box(200.0, 5.0, 4.0, 4.0), 10, 10).sum() == 0

    # sub-threshold probabilities paste nothing
    assert paste_mask(np.full((4, 4), 0.4), Box.from_corners(2.0, 2.0, 6.0, 6.0), 10, 10).sum() == 0


def test_paste_mask_respects_grid_layout():
    # left half on, right half off: only the left half of the box fills
    probs = np.zeros((4, 4))
    probs[:, :2] = 1.0
    mask = paste_mask(probs, Box.from_corners(0.0, 0.0, 8.0, 8.0), 8, 8)
    assert mask[:, :3].all()      # grid centers land at x=1,3,5,7
    assert not mask[:, 4:].any()  # right half stays clear


def test_paste_mask_clips_to_canvas():
    probs = np.ones((4, 4))
    mask = paste_mask(probs, Box.from_corners(-4.0, 2.0, 4.0, 6.0), 10, 10)
    assert mask.sum() == 16  # 4 wide inside canvas x 4 tall
    assert mask[2:6, 0:4].all()


def test_infer_structure_and_caps():
    model = _toy_model("cbam")
    image = np.random.default_rng(5).uniform(size=(3, 64, 64))
    # fresh heads score everything near 1/4, so a low threshold fires
    preds = infer(model, image, image_id=9, conf_threshold=0.2, max_dets=7)
    assert len(preds) <= 7
    assert preds, "chance-level scores should clear a 0.2 threshold"
    for p in preds:
        assert isinstance(p, InstancePrediction)
        assert p.detection.image_id == 9
        assert 1 <= p.detection.class_id <= model.cfg.num_classes
        assert p.detection.score >= 0.2
        assert p.mask.shape == (64, 64) and p.mask.dtype == bool

    # stricter threshold than chance yields nothing on a fresh model
    assert infer(model, image, conf_threshold=0.9) == []


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
