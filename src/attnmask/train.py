"""Deterministic SGD training for the toy detector.

SGD with momentum 0.9 and weight decay 0.0001 at base learning rate 0.002,
dropped by 0.1 at epochs 16 and 22 of 26 in `TrainConfig()`. Every command
and the benchmark run `TrainConfig.toy`: drops at 18 and 23, 64 sampled
anchors, 24 regions and 12 proposals after NMS. Rates are computed
in decimal, so they are exactly the literals 0.002, 0.0002 and 0.00002.

Each step accumulates gradients over a small image batch. Per image the
loss is a forward pass, a plan and the loss under that plan. The plan
holds, as arrays, every choice that no gradient flows through: the
anchor sample (indices, labels, the positives' encoded targets), then
the region sample, drawn from the proposals plus the scene's clipped box
rows so the region heads see positives once the dataset has them (rows,
classes, the positives' encoded and mask targets). Anchors, proposals
and scene boxes are all (N, 4) corner rows, regions are labelled by one
`pairwise_iou` of them, and `encode` alone reads their centers. The loss
adds two `losses.total_loss` compositions: the anchor-level objectness
and offset terms (normalized by the sampled anchor count and by the
total anchor-position count), and the region head's class and offset
terms (normalized by the sampled region count) with the mean mask cross
entropy over positive regions, from one mask-head call per image. Their
(cls, reg, mask) part arrays add up to the parts a step records.

Every consumed random draw comes from one seeded generator in a fixed
order (each epoch's shuffle, then per image its plan), so a rerun with
the same (model seed, data, config) reproduces the loss trace bit for
bit. Slot j of an epoch trains on the scene at position j mod n of that
epoch's shuffle of the n scenes, so every batch is full.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from .boxes import clip_boxes, encode, pairwise_iou
from .inputs import require
from .losses import (
    assign_anchor_labels,
    cls_loss,
    mask_loss,
    reg_loss,
    sample_minibatch,
    softmax_ce,
    total_loss,
)
from .model import (
    Model,
    box_head_forward,
    extract_roi_features,
    mask_head_forward,
    propose,
    pyramid_forward,
    rpn_forward,
)
from .synth import Sample
from .tensor import Tensor, gather_rows

__all__ = [
    "TrainConfig",
    "StepRecord",
    "TrainResult",
    "lr_at",
    "mask_target_grid",
    "train",
    "write_trace_csv",
]


# the longest schedule and the largest samples a run config can ask for: 200
# epochs of at most 1000 steps of 16 images, and per image Mask R-CNN's own
# training budgets: 256 sampled anchors, 512 regions, and NMS over 12000
# proposals keeping 2000. A run at the caps trains on 3.2M images, about a day
# at the toy model's 25 ms an image.
TRAIN_CAPS = {"epochs": 200, "steps_per_epoch": 1000, "batch_size": 16, "rpn_batch": 256, "roi_batch": 512,
              "train_pre_nms": 12000, "train_post_nms": 2000}


@dataclass(frozen=True)
class TrainConfig:
    """Optimization schedule plus the per-image sampling budgets."""

    lr: float = 0.002
    momentum: float = 0.9
    weight_decay: float = 0.0001
    epochs: int = 26
    batch_size: int = 2
    step_epochs: tuple[int, ...] = (16, 22)
    step_factor: float = 0.1
    seed: int = 0
    steps_per_epoch: int | None = None
    rpn_batch: int = 256
    rpn_pos_fraction: float = 0.5
    rpn_reg_weight: float = 10.0
    roi_batch: int = 32
    roi_pos_fraction: float = 0.25
    roi_pos_iou: float = 0.5
    train_pre_nms: int = 300
    train_post_nms: int = 20

    def __post_init__(self):
        require(self, "finite", math.isfinite, "lr", "step_factor", "weight_decay", "rpn_reg_weight")
        require(self, "positive", lambda v: v > 0, "lr", "step_factor")
        require(self, "at least 1", lambda v: v >= 1,
                "epochs", "batch_size", "rpn_batch", "roi_batch", "train_pre_nms", "train_post_nms")
        require(self, "at least 0", lambda v: v >= 0, "seed")
        require(self, "null or at least 1", lambda v: v is None or v >= 1, "steps_per_epoch")
        for name, cap in TRAIN_CAPS.items():
            require(self, f"at most {cap}", lambda v, cap=cap: v is None or v <= cap, name)
        require(self, "in [0,1]", lambda v: 0.0 <= v <= 1.0, "rpn_pos_fraction", "roi_pos_fraction")
        require(self, "in (0,1]", lambda v: 0.0 < v <= 1.0, "roi_pos_iou")
        require(self, "in [0,1)", lambda v: 0.0 <= v < 1.0, "momentum")
        require(self, "at least 0", lambda v: v >= 0, "weight_decay", "rpn_reg_weight")
        if not all(0 <= e < self.epochs for e in self.step_epochs):
            raise ValueError(f"step_epochs must be in [0,{self.epochs}), got {list(self.step_epochs)}")

    @classmethod
    def toy(cls, seed: int = 0) -> "TrainConfig":
        """Smoke-scale recipe: a tiny memorizable set converges fastest with
        a rich positive fraction and late lr drops."""
        return cls(
            seed=seed,
            rpn_batch=64,
            roi_batch=24,
            roi_pos_fraction=0.5,
            train_post_nms=12,
            step_epochs=(18, 23),
        )


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch, computed in decimal so the
    stepped values round to the exact float literals."""
    rate = Decimal(str(cfg.lr))
    for boundary in cfg.step_epochs:
        if epoch >= boundary:
            rate *= Decimal(str(cfg.step_factor))
    return float(rate)


@dataclass(frozen=True)
class StepRecord:
    step: int
    epoch: int
    l_cls: float
    l_reg: float
    l_mask: float
    l_total: float
    lr: float


@dataclass
class TrainResult:
    records: list[StepRecord] = field(default_factory=list)


def mask_target_grid(masks: np.ndarray, boxes: np.ndarray, m: int) -> np.ndarray:
    """(R, m, m) binary targets of (R, H, W) masks over their (R, 4) corner
    rows: each mask's value at each grid cell center of its box (nearest
    pixel; cells outside the image read 0)."""
    _, h, w = masks.shape
    x1, y1, x2, y2 = (v[:, None] for v in boxes.T)
    frac = (np.arange(m) + 0.5) / m
    r = np.floor(y1 + frac * (y2 - y1)).astype(int)
    c = np.floor(x1 + frac * (x2 - x1)).astype(int)
    valid = ((r >= 0) & (r < h))[:, :, None] & ((c >= 0) & (c < w))[:, None, :]
    rows = np.arange(len(masks))[:, None, None]
    grid = masks[rows, np.clip(r, 0, h - 1)[:, :, None], np.clip(c, 0, w - 1)[:, None, :]]
    return (grid & valid).astype(np.int64)


def _plan_image(anchors: np.ndarray, scores: Tensor, offsets: Tensor, sample: Sample, rng: np.random.Generator,
                cfg: TrainConfig, mask_size: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Every choice of one image's loss that no gradient flows through, from
    rpn_forward's rows: the anchor sample, then the region sample, each
    drawn from rng in that order with its positives first.

    Returns ((anchor indices, labels, the positives' encoded targets),
    (region rows, classes with 0 = background, the positives' encoded
    targets and (P, mask_size, mask_size) mask targets)). Regions are drawn
    from the proposals plus the scene's clipped rows.
    """
    height, width = sample.image.shape[1:]
    gt = sample.boxes
    sampled, anchor_labels, anchor_matched = assign_anchor_labels(
        anchors, gt, rng, batch=cfg.rpn_batch, pos_fraction=cfg.rpn_pos_fraction
    )
    pos = anchor_labels > 0
    anchor_targets = encode(anchors[sampled[pos]], gt[anchor_matched[pos]])

    proposals = propose(
        anchors, scores, offsets, (height, width), pre_nms=cfg.train_pre_nms, post_nms=cfg.train_post_nms
    )
    gt_clipped, inside = clip_boxes(gt, float(width), float(height))
    proposals = np.concatenate([proposals, gt_clipped[inside]])
    labels = np.zeros(proposals.shape[0], dtype=np.int64)
    matched = np.full(proposals.shape[0], -1, dtype=np.int64)
    if gt.shape[0]:
        mat = pairwise_iou(proposals, gt)
        arg = mat.argmax(axis=1)
        fg = mat.max(axis=1) >= cfg.roi_pos_iou
        labels[fg] = sample.class_ids[arg[fg]]
        matched[fg] = arg[fg]
    max_pos = max(1, int(cfg.roi_batch * cfg.roi_pos_fraction))
    keep = np.concatenate(sample_minibatch(
        np.flatnonzero(labels > 0), np.flatnonzero(labels == 0), max_pos, cfg.roi_batch, rng
    ))
    rois, classes, matched = proposals[keep], labels[keep], matched[keep]
    pos = classes > 0
    roi_targets = encode(rois[pos], gt[matched[pos]])
    mask_targets = mask_target_grid(sample.masks[matched[pos]], rois[pos], mask_size)
    return (sampled, anchor_labels, anchor_targets), (rois, classes, roi_targets, mask_targets)


def _detector_loss(model: Model, pyramid: dict[int, Tensor], scores: Tensor, offsets: Tensor,
                   plan: tuple, cfg: TrainConfig) -> tuple[Tensor, np.ndarray]:
    """Differentiable total loss of one image from its pyramid and RPN
    scores and offsets under a `_plan_image` plan, plus the (cls, reg, mask)
    parts. It draws and chooses nothing, so a plan fixes what it computes."""
    (sampled, anchor_labels, anchor_targets), (rois, classes, roi_targets, mask_targets) = plan
    rpn_cls = cls_loss(gather_rows(scores, sampled), anchor_labels)
    rpn_reg = None
    if anchor_targets.shape[0]:
        rpn_reg = reg_loss(gather_rows(offsets, sampled[anchor_labels > 0]), anchor_targets)
    # position-count normalization leaves the offset term orders of magnitude
    # below the objectness term; the weight restores a comparable scale
    n_positions = scores.shape[0] // model.cfg.num_anchor_shapes
    rpn_total, rpn_parts = total_loss(
        rpn_cls, rpn_reg, None, sampled.size, n_positions, cfg.rpn_reg_weight
    )

    roi_cls = roi_reg = l_mask = None
    if rois.shape[0]:
        feats = extract_roi_features(pyramid, rois, model.cfg.box_resolution)
        logits, deltas = box_head_forward(model, feats)
        roi_cls = softmax_ce(logits, classes)
        pos_rows = np.flatnonzero(classes > 0)
        if pos_rows.size:
            roi_reg = reg_loss(gather_rows(deltas, pos_rows), roi_targets)
            mfeats = extract_roi_features(pyramid, rois[pos_rows], model.cfg.mask_resolution)
            grids = mask_head_forward(model, mfeats, np.arange(pos_rows.size), classes[pos_rows])
            l_mask = mask_loss(grids, mask_targets)
    roi_total, roi_parts = total_loss(roi_cls, roi_reg, l_mask, rois.shape[0], rois.shape[0])

    return rpn_total + roi_total, rpn_parts + roi_parts


def _image_loss(model: Model, sample: Sample, rng: np.random.Generator, cfg: TrainConfig) -> tuple[Tensor, np.ndarray]:
    """Differentiable total loss for one image plus its (cls, reg, mask)
    parts: the forward pass, its plan, then the loss under that plan."""
    pyramid = pyramid_forward(model, Tensor(sample.image[None]))
    anchors, scores, offsets = rpn_forward(model, pyramid)
    plan = _plan_image(anchors, scores, offsets, sample, rng, cfg, model.cfg.mask_out)
    return _detector_loss(model, pyramid, scores, offsets, plan, cfg)


def _sgd_step(params, velocities, lr: float, cfg: TrainConfig) -> None:
    for name, p in params:
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
        v = velocities[name]
        v *= cfg.momentum
        v += g + cfg.weight_decay * p.data
        p.data = p.data - lr * v
        p.grad = None


def train(model: Model, dataset: list[Sample], cfg: TrainConfig) -> TrainResult:
    """Run the full schedule over the dataset, recording one row per step."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    params = model.named_params()
    velocities = {name: np.zeros_like(p.data) for name, p in params}
    result = TrainResult()
    n = len(dataset)
    batches_per_epoch = cfg.steps_per_epoch or math.ceil(n / cfg.batch_size)
    step = 0
    # a diverging run overflows before Tensor's finite check stops it, and
    # that check's FloatingPointError alone reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = lr_at(cfg, epoch)
            order = rng.permutation(n)
            for b in range(batches_per_epoch):
                parts = np.zeros(3)
                for j in range(b * cfg.batch_size, (b + 1) * cfg.batch_size):
                    loss, p3 = _image_loss(model, dataset[order[j % n]], rng, cfg)
                    (loss * (1.0 / cfg.batch_size)).backward()
                    del loss  # free this image's graph before the next image builds its own
                    parts += p3 / cfg.batch_size
                _sgd_step(params, velocities, lr, cfg)
                result.records.append(
                    StepRecord(
                        step=step, epoch=epoch,
                        l_cls=float(parts[0]), l_reg=float(parts[1]), l_mask=float(parts[2]),
                        l_total=float(parts.sum()), lr=lr,
                    )
                )
                step += 1
    return result


def write_trace_csv(records: list[StepRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "epoch", "l_cls", "l_reg", "l_mask", "l_total", "lr"])
        for r in records:
            writer.writerow([r.step, r.epoch, repr(r.l_cls), repr(r.l_reg), repr(r.l_mask),
                             repr(r.l_total), repr(r.lr)])
