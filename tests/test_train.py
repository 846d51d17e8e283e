"""Training loop: schedule exactness, determinism, mask targets, SGD math,
the plan and the loss under it, the loss path's digest and the whole
detector against central differences."""

import csv
import dataclasses
import hashlib
import re

import numpy as np
import pytest

from attnmask import attention as attention_mod
from attnmask import losses as losses_mod
from attnmask import model as model_mod
from attnmask import tensor as tensor_mod
from attnmask import train as train_mod
from attnmask.attention import VARIANTS
from attnmask.losses import mask_loss, total_loss
from attnmask.model import (
    ModelConfig,
    build_model,
    extract_roi_features,
    mask_head_forward,
    pyramid_forward,
    rpn_forward,
)
from attnmask.synth import SynthSpec, dataset_hash, synth_dataset
from attnmask.tensor import Tensor, concat, no_grad
from attnmask.train import (
    StepRecord,
    TrainConfig,
    _detector_loss,
    _image_loss,
    _plan_image,
    _sgd_step,
    lr_at,
    mask_target_grid,
    train,
    write_trace_csv,
)
from numeric_env import digest_context


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, step_epochs=(16, 22))
    # both ends of the momentum range, and the zero values that stay legal
    for bad in (-5.0, 1.0):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig(momentum=bad)
    TrainConfig(momentum=0.0, weight_decay=0.0, rpn_reg_weight=0.0, step_epochs=(0,))


@pytest.mark.parametrize("name", ["lr", "step_factor", "weight_decay", "rpn_reg_weight"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=["inf", "-inf", "nan"])
def test_config_rejects_non_finite_rates(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        TrainConfig(**{name: value})


def test_lr_schedule_exact_literals():
    cfg = TrainConfig()
    assert lr_at(cfg, 0) == 0.002
    assert lr_at(cfg, 15) == 0.002
    assert lr_at(cfg, 16) == 0.0002  # 0-based boundary: drop starts here
    assert lr_at(cfg, 21) == 0.0002
    assert lr_at(cfg, 22) == 0.00002
    assert lr_at(cfg, 25) == 0.00002
    # naive repeated float multiply would give 0.002*0.1 = 0.0002000...4
    assert lr_at(cfg, 16) == float("0.0002")


def test_sgd_step_momentum_and_decay():
    cfg = TrainConfig(momentum=0.5, weight_decay=0.1)
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([1.0])
    v = {"p": np.zeros(1)}
    _sgd_step([("p", p)], v, lr=0.1, cfg=cfg)
    # v = 1 + 0.1*2 = 1.2; p = 2 - 0.1*1.2 = 1.88
    assert p.data[0] == pytest.approx(1.88, abs=1e-12)
    assert p.grad is None

    p.grad = np.array([0.0])
    _sgd_step([("p", p)], v, lr=0.1, cfg=cfg)
    # v = 0.5*1.2 + 0.1*1.88 = 0.788; p = 1.88 - 0.0788
    assert p.data[0] == pytest.approx(1.8012, abs=1e-12)


def test_sgd_step_rejects_non_finite_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.inf])
    with pytest.raises(FloatingPointError, match="p"):
        _sgd_step([("p", p)], {"p": np.zeros(1)}, lr=0.1, cfg=TrainConfig())


def test_mask_target_grid_nearest_sampling():
    mask = np.zeros((8, 8), dtype=bool)
    mask[0:4, 0:4] = True
    full = np.array([[0.0, 0.0, 8.0, 8.0]])
    grid = mask_target_grid(mask[None], full, 4)[0]
    want = np.zeros((4, 4), dtype=np.int64)
    want[0:2, 0:2] = 1
    assert np.array_equal(grid, want)

    # box hanging off the image: outside cells read 0
    hanging = np.array([[-4.0, 0.0, 4.0, 8.0]])
    grid = mask_target_grid(mask[None], hanging, 4)[0]
    assert np.array_equal(grid[:, :2], np.zeros((4, 2), dtype=np.int64))
    assert np.array_equal(grid[0:2, 2:4], np.ones((2, 2), dtype=np.int64))

    # a batch: each row reads its own mask over its own (here flat) box
    other = np.zeros((8, 8), dtype=bool)
    other[4:8, :] = True
    flat = np.array([[0.0, 2.0, 8.0, 6.0]])
    grids = mask_target_grid(np.stack([mask, other]), np.concatenate([full, flat]), 4)
    assert grids.shape == (2, 4, 4)
    assert np.array_equal(grids[0], want)
    want_other = np.zeros((4, 4), dtype=np.int64)
    want_other[2:4, :] = 1  # cell centers at y = 2.5 ... 5.5
    assert np.array_equal(grids[1], want_other)


def test_image_loss_on_an_empty_scene():
    # no objects: neither the anchor nor the region batch has positives, so
    # both offset terms and the mask term are absent and contribute zero
    sample = synth_dataset(SynthSpec(n_objects=(0, 0)), 5, 1)[0]
    assert sample.boxes.shape == (0, 4)
    model = build_model(ModelConfig.toy("none"), seed=0)
    rng = np.random.default_rng(0)
    total, parts = _image_loss(model, sample, rng, TrainConfig.toy())
    assert parts[0] > 0.0
    assert parts[1] == 0.0 and parts[2] == 0.0
    assert total.item() == pytest.approx(parts.sum(), abs=1e-12)
    total.backward()
    assert model.box_head.cls_w.grad is not None


def test_image_loss_parts_sum_to_total():
    sample = synth_dataset(SynthSpec(n_objects=(2, 3)), 6, 1)[0]
    model = build_model(ModelConfig.toy("none"), seed=0)
    total, parts = _image_loss(model, sample, np.random.default_rng(0), TrainConfig.toy())
    assert (parts > 0.0).all()
    assert total.item() == pytest.approx(parts.sum(), abs=1e-12)


def test_rpn_offsets_are_normalized_by_anchor_positions(monkeypatch):
    # the RPN offset term is divided by the number of feature-map cells over
    # every pyramid level, not by the number of anchors
    sample = synth_dataset(SynthSpec(n_objects=(2, 3)), 6, 1)[0]
    model = build_model(ModelConfig.toy("none"), seed=0)
    calls = []

    def total_spy(*args):
        calls.append(args)
        return total_loss(*args)

    monkeypatch.setattr(train_mod, "total_loss", total_spy)
    _image_loss(model, sample, np.random.default_rng(0), TrainConfig.toy())
    cells = sum(f.shape[2] * f.shape[3] for f in pyramid_forward(model, Tensor(sample.image[None])).values())
    assert calls[0][4] == cells


def _forward(model, sample):
    """The pyramid and rpn_forward's anchors, scores and offsets of one scene."""
    pyramid = pyramid_forward(model, Tensor(sample.image[None]))
    return (pyramid, *rpn_forward(model, pyramid))


def _plan(model, sample, anchors, scores, offsets, seed):
    return _plan_image(anchors, scores, offsets, sample, np.random.default_rng(seed), TrainConfig.toy(),
                       model.cfg.mask_out)


def test_mask_term_and_gradients_equal_a_per_region_loop(monkeypatch):
    # the one mask-head call over an image's positives gives the mean of the
    # per-region mask losses and the same mask-head weight gradients
    sample = synth_dataset(SynthSpec(n_objects=(2, 3)), 6, 1)[0]
    model = build_model(ModelConfig.toy("cbam"), seed=0)
    head_calls = []

    def head_spy(*args):
        head_calls.append(args)
        return mask_head_forward(*args)

    monkeypatch.setattr(train_mod, "mask_head_forward", head_spy)
    pyramid, anchors, scores, offsets = _forward(model, sample)
    plan = _plan(model, sample, anchors, scores, offsets, 0)
    total, parts = _detector_loss(model, pyramid, scores, offsets, plan, TrainConfig.toy())
    total.backward()
    head = [(name, t) for name, t in model.named_params() if name.startswith("mask_head.")]
    batched = {name: t.grad for name, t in head}
    for _, t in head:
        t.grad = None

    _, (rois, classes, _, targets) = plan
    pos = np.flatnonzero(classes > 0)
    assert len(head_calls) == 1 and pos.size >= 2 and len(targets) == pos.size
    m = model.cfg.mask_out
    feats = extract_roi_features(pyramid, rois[pos], model.cfg.mask_resolution).data
    terms = []
    for feat, label, target in zip(feats, classes[pos], targets):
        channel = mask_head_forward(model, Tensor(feat[None]), np.array([0]), np.array([label])).reshape(m, m)
        terms.append(mask_loss(channel, target))
    l_mask = concat([t.reshape(1) for t in terms], axis=0).mean()
    l_mask.backward()
    assert parts[2] == pytest.approx(l_mask.item(), rel=0.0, abs=1e-12)
    for name, t in head:
        np.testing.assert_allclose(batched[name], t.grad, rtol=0.0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_loss_reads_only_its_plan(variant):
    # a plan rebuilt from an untaped forward and an equal-seeded generator is
    # byte-equal, and the loss under it is the taped loss bit for bit, total
    # and parts: what a held-out loss under no_grad rests on. A region batch
    # of 4 makes the region sample draw, where the toy recipe's 24 takes all.
    model = build_model(ModelConfig.toy(variant), seed=0)
    cfg = dataclasses.replace(TrainConfig.toy(), roi_batch=4)
    m = model.cfg.mask_out
    for sample in synth_dataset(SynthSpec(n_objects=(0, 0)), 5, 1) + synth_dataset(SynthSpec(n_objects=(3, 3)), 6, 1):
        pyramid, anchors, scores, offsets = _forward(model, sample)
        plan = _plan_image(anchors, scores, offsets, sample, np.random.default_rng(4), cfg, m)
        total, parts = _detector_loss(model, pyramid, scores, offsets, plan, cfg)
        with no_grad():
            pyramid, anchors, scores, offsets = _forward(model, sample)
            again = _plan_image(anchors, scores, offsets, sample, np.random.default_rng(4), cfg, m)
            quiet_total, quiet_parts = _detector_loss(model, pyramid, scores, offsets, again, cfg)
        arrays, rebuilt = plan[0] + plan[1], again[0] + again[1]
        assert [(a.dtype, a.shape, a.tobytes()) for a in arrays] == [(a.dtype, a.shape, a.tobytes()) for a in rebuilt]
        assert total.data.tobytes() == quiet_total.data.tobytes() and parts.tobytes() == quiet_parts.tobytes()
        (_, anchor_labels, anchor_targets), (rois, classes, roi_targets, mask_targets) = plan
        n_pos = int((classes > 0).sum())
        assert anchor_targets.shape == ((anchor_labels > 0).sum(), 4) and roi_targets.shape == (n_pos, 4)
        assert mask_targets.shape == (n_pos, m, m) and len(rois) == 4
        assert n_pos == (2 if len(sample.boxes) else 0)


# -- the whole detector against central differences ---------------------------

GROUPS = ("backbone", "fpn", "rpn", "box_head", "mask_head")
DETECTOR_EPS = 1e-6
DETECTOR_TOL = 1e-5


def _detector_errors(variant, seed):
    """Per parameter group, the relative disagreement |a - n| / max(|a|, |n|)
    between the loss's taped derivative along a random unit direction
    over the group and its central difference at DETECTOR_EPS.

    Every evaluation reads the plan of the first forward pass, so the
    anchor and region samples stay fixed and the loss is a smooth function
    of the parameters. Biases are redrawn from +-0.05: build_model's zero
    biases put relus on their kinks, where the two disagree by up to 7e-2."""
    model = build_model(ModelConfig.toy(variant), seed=seed)
    sample = synth_dataset(SynthSpec(n_objects=(2, 3)), 100 + seed, 1)[0]
    rng = np.random.default_rng(seed)
    params = model.named_params()
    for name, p in params:
        if re.search(r"(^|[._])b\d?$", name):
            p.data = rng.uniform(-0.05, 0.05, p.shape)

    pyramid, anchors, scores, offsets = _forward(model, sample)
    plan = _plan(model, sample, anchors, scores, offsets, seed)

    def loss():
        pyramid, _, scores, offsets = _forward(model, sample)
        return _detector_loss(model, pyramid, scores, offsets, plan, TrainConfig.toy())[0]

    _detector_loss(model, pyramid, scores, offsets, plan, TrainConfig.toy())[0].backward()
    errors = {}
    for group in GROUPS:
        members = [p for name, p in params if name.startswith(group + ".")]
        dirs = [rng.standard_normal(p.shape) for p in members]
        norm = np.sqrt(sum((d * d).sum() for d in dirs))
        dirs = [d / norm for d in dirs]
        taped = sum(float((p.grad * d).sum()) for p, d in zip(members, dirs) if p.grad is not None)
        base = [p.data for p in members]
        sides = []
        for sign in (1.0, -1.0):
            for p, b, d in zip(members, base, dirs):
                p.data = b + sign * DETECTOR_EPS * d
            with no_grad():
                sides.append(loss().item())
        for p, b in zip(members, base):
            p.data = b
        numeric = (sides[0] - sides[1]) / (2.0 * DETECTOR_EPS)
        errors[group] = abs(taped - numeric) / max(abs(taped), abs(numeric))
    return errors


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("variant", VARIANTS)
def test_detector_gradient_matches_central_differences(variant, seed):
    errors = _detector_errors(variant, seed)
    assert max(errors.values()) < DETECTOR_TOL, errors


def _linear_without_input_grad(x, w, b):
    def bwd(g):
        tensor_mod._accum(w, g.T @ x.data)
        tensor_mod._accum(b, g.sum(axis=0))

    return Tensor(x.data @ w.data.T + b.data, _parents=(x, w, b), _backward=bwd)


def _gather_rows_overwriting(x, indices):
    idx = np.asarray(indices, dtype=np.intp)

    def bwd(g):
        d = np.zeros_like(x.data)
        d[idx] = g  # a repeated row keeps one of its gradients, not their sum
        tensor_mod._accum(x, d)

    return Tensor(x.data[idx], _parents=(x,), _backward=bwd)


@pytest.mark.parametrize("fault, variant", [("linear", v) for v in VARIANTS] + [("gather_rows", "eca")])
def test_detector_check_catches_backward_faults(monkeypatch, fault, variant):
    faulty = {"linear": _linear_without_input_grad, "gather_rows": _gather_rows_overwriting}[fault]
    for module in (model_mod, attention_mod, losses_mod, train_mod):
        if hasattr(module, fault):
            monkeypatch.setattr(module, fault, faulty)
    errors = _detector_errors(variant, 0)
    assert max(errors.values()) > DETECTOR_TOL, errors


# sha256 of _image_loss's total, its parts and every parameter gradient on
# each case of _loss_path_cases(), then of a 4-step train trace and the
# parameters it leaves. Recorded with the form that carried the anchor
# sample and the loss parts in record types; any change to the last bit of
# a loss, a part, a gradient or a step changes it.
LOSS_PATH_DIGEST = "e3574fbc61c60b59be7cc5ff15977a23607074997240afd88c16fcc90b40bae7"
LOSS_PATH_DIGEST_ENV = {"numpy": "2.4.6", "blas_core": "SkylakeX", "blas_threads": 2}


def _loss_path_cases():
    """Every variant at two model seeds, on one empty scene and two with
    objects, each scene under its own rng seed."""
    scenes = synth_dataset(SynthSpec(n_objects=(0, 0)), 5, 1) + synth_dataset(SynthSpec(), 28, 2)
    for variant in VARIANTS:
        for model_seed in (0, 1):
            model = build_model(ModelConfig.toy(variant), seed=model_seed)
            for rng_seed, sample in enumerate(scenes):
                yield model, sample, np.random.default_rng(rng_seed)


def _loss_path_digest():
    h = hashlib.sha256()
    for model, sample, rng in _loss_path_cases():
        total, parts = _image_loss(model, sample, rng, TrainConfig.toy())
        total.backward()
        h.update(total.data.tobytes() + parts.tobytes())
        for name, p in model.named_params():
            h.update(name.encode() + (b"none" if p.grad is None else p.grad.tobytes()))
            p.grad = None
    data = synth_dataset(SynthSpec(), 28, 4)
    model = build_model(ModelConfig.toy("eca"), seed=2)
    cfg = TrainConfig(seed=3, epochs=2, step_epochs=(1,), rpn_batch=32, roi_batch=8,
                      train_pre_nms=100, train_post_nms=8, hflip_prob=0.5)
    for r in train(model, data, cfg).records:
        h.update(repr(r).encode())
    for name, p in model.named_params():
        h.update(name.encode() + p.data.tobytes())
    return h.hexdigest()


def test_loss_path_matches_its_digest():
    assert _loss_path_digest() == LOSS_PATH_DIGEST, digest_context(LOSS_PATH_DIGEST_ENV)


def _short_run(seed=0, epochs=2):
    spec = SynthSpec()
    data = synth_dataset(spec, 100, 4)
    model = build_model(ModelConfig.toy("none"), seed=seed)
    cfg = TrainConfig(
        seed=seed, epochs=epochs, step_epochs=(1,), rpn_batch=32, roi_batch=8,
        train_pre_nms=100, train_post_nms=8, hflip_prob=0.5,
    )
    return model, train(model, data, cfg)


def test_short_run_is_bit_identical():
    model_a, result_a = _short_run()
    model_b, result_b = _short_run()
    assert result_a.records == result_b.records
    pa, pb = dict(model_a.named_params()), dict(model_b.named_params())
    assert all(np.array_equal(pa[k].data, pb[k].data) for k in pa)


def test_run_records_schedule_and_finite_losses():
    _, result = _short_run(epochs=2)
    assert len(result.records) == 4  # 4 images / batch 2 = 2 steps x 2 epochs
    assert [r.lr for r in result.records] == [0.002, 0.002, 0.0002, 0.0002]
    assert np.isfinite(np.array([r.l_total for r in result.records])).all()
    for r in result.records:
        assert r.l_total == pytest.approx(r.l_cls + r.l_reg + r.l_mask, abs=1e-12)
        assert r.l_cls >= 0.0 and r.l_reg >= 0.0 and r.l_mask >= 0.0


def test_train_leaves_its_dataset_unchanged():
    # train-toy and compare hand one scene list to every variant they train,
    # which holds only while training (flips included) writes into no sample
    data = synth_dataset(SynthSpec(), 100, 4)
    before = dataset_hash(data)
    cfg = TrainConfig(seed=0, epochs=2, step_epochs=(1,), rpn_batch=32, roi_batch=8,
                      train_pre_nms=100, train_post_nms=8, hflip_prob=0.5)
    train(build_model(ModelConfig.toy("cbam"), seed=0), data, cfg)
    assert dataset_hash(data) == before


def test_train_rejects_empty_dataset():
    model = build_model(ModelConfig.toy("none"), seed=0)
    with pytest.raises(ValueError):
        train(model, [], TrainConfig())


def test_trace_csv_roundtrip(tmp_path):
    records = [
        StepRecord(step=0, epoch=0, l_cls=0.5, l_reg=0.25, l_mask=1.0 / 3.0,
                   l_total=0.5 + 0.25 + 1.0 / 3.0, lr=0.002),
        StepRecord(step=1, epoch=0, l_cls=0.1, l_reg=0.2, l_mask=0.3,
                   l_total=0.6, lr=0.002),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(records, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "epoch", "l_cls", "l_reg", "l_mask", "l_total", "lr"]
    assert len(rows) == 3
    # repr round-trips doubles exactly
    assert float(rows[1][5]) == records[0].l_total
    assert float(rows[1][6]) == 0.002
