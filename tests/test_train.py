"""Training loop: schedule exactness, determinism, mask targets, SGD math."""

import csv

import numpy as np
import pytest

from attnmask import train as train_mod
from attnmask.losses import mask_loss, total_loss
from attnmask.model import ModelConfig, build_model, extract_roi_features, mask_head_forward, pyramid_forward
from attnmask.synth import SynthSpec, dataset_hash, synth_dataset
from attnmask.tensor import Tensor, concat
from attnmask.train import (
    StepRecord,
    TrainConfig,
    _image_loss,
    _sgd_step,
    lr_at,
    mask_target_grid,
    train,
    write_trace_csv,
)


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


def test_mask_term_and_gradients_equal_a_per_region_loop(monkeypatch):
    # the one mask-head call over an image's positives gives the mean of the
    # per-region mask losses and the same mask-head weight gradients
    sample = synth_dataset(SynthSpec(n_objects=(2, 3)), 6, 1)[0]
    model = build_model(ModelConfig.toy("cbam"), seed=0)
    seen = {"head_calls": 0}
    sample_rois = train_mod._sample_rois

    def sample_spy(proposals, *args):
        seen["proposals"], seen["picked"] = proposals, sample_rois(proposals, *args)
        return seen["picked"]

    def head_spy(*args):
        seen["head_calls"] += 1
        return mask_head_forward(*args)

    monkeypatch.setattr(train_mod, "_sample_rois", sample_spy)
    monkeypatch.setattr(train_mod, "mask_head_forward", head_spy)
    total, parts = _image_loss(model, sample, np.random.default_rng(0), TrainConfig.toy())
    total.backward()
    head = [(name, t) for name, t in model.named_params() if name.startswith("mask_head.")]
    batched = {name: t.grad for name, t in head}
    for _, t in head:
        t.grad = None

    keep, labels, matched = seen["picked"]
    pos = np.flatnonzero(labels > 0)
    assert seen["head_calls"] == 1 and pos.size >= 2
    rois = seen["proposals"][keep[pos]]
    m = model.cfg.mask_out
    pyramid = pyramid_forward(model, Tensor(sample.image[None]))
    feats = extract_roi_features(pyramid, rois, model.cfg.mask_resolution).data
    terms = []
    for feat, label, gt_index, row in zip(feats, labels[pos], matched[pos], rois):
        channel = mask_head_forward(model, Tensor(feat[None]), np.array([0]), np.array([label])).reshape(m, m)
        target = mask_target_grid(sample.masks[gt_index][None], row[None], m)[0]
        terms.append(mask_loss(channel, target))
    l_mask = concat([t.reshape(1) for t in terms], axis=0).mean()
    l_mask.backward()
    assert parts[2] == pytest.approx(l_mask.item(), rel=0.0, abs=1e-12)
    for name, t in head:
        np.testing.assert_allclose(batched[name], t.grad, rtol=0.0, atol=1e-12, err_msg=name)


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
