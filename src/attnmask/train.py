"""Deterministic SGD training for the toy detector.

The optimizer is SGD with momentum 0.9 and weight decay 0.0001 at base
learning rate 0.002, dropped by 0.1 at the start of epochs 16 and 22 of
a 26-epoch run. The schedule is evaluated in decimal arithmetic so the
recorded rates are exactly the literals 0.002, 0.0002, and 0.00002.

Each step accumulates gradients over a small image batch. Per image the
loss is the sum of two `losses.total_loss` compositions: the anchor-level
objectness and offset terms (normalized by the sampled anchor count and
by the total anchor-position count), and the region head's class and
offset terms (normalized by the sampled region count) with the mean mask
cross entropy over positive regions, from one mask-head call per image.
Region proposals are treated as constants: no gradient flows through
their coordinates, and the scene's box rows are appended to the proposal
set so the region heads always see positives once the dataset has them.
Anchors, proposals and scene boxes are all (N, 4) corner rows; regions
are labelled by one `pairwise_iou` of them, and `encode` alone reads
their centers for the offset targets.

Every consumed random draw comes from one seeded generator in a fixed
order, so a rerun with the same (model seed, data, config) reproduces
the loss trace bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from .boxes import clip_boxes, encode, pairwise_iou
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
from .synth import Sample, hflip
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
    hflip_prob: float = 0.5
    rpn_batch: int = 256
    rpn_pos_fraction: float = 0.5
    rpn_reg_weight: float = 10.0
    roi_batch: int = 32
    roi_pos_fraction: float = 0.25
    roi_pos_iou: float = 0.5
    train_pre_nms: int = 300
    train_post_nms: int = 20

    def __post_init__(self):
        for name in ("lr", "step_factor", "weight_decay", "rpn_reg_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lr", "step_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("epochs", "batch_size", "rpn_batch", "roi_batch", "train_pre_nms", "train_post_nms"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.steps_per_epoch is not None and self.steps_per_epoch < 1:
            raise ValueError(f"steps_per_epoch must be null or at least 1, got {self.steps_per_epoch}")
        for name in ("hflip_prob", "rpn_pos_fraction", "roi_pos_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {getattr(self, name)}")
        if not 0.0 < self.roi_pos_iou <= 1.0:
            raise ValueError(f"roi_pos_iou must be in (0,1], got {self.roi_pos_iou}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        for name in ("weight_decay", "rpn_reg_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        if not all(0 <= e < self.epochs for e in self.step_epochs):
            raise ValueError(f"step_epochs must be in [0,{self.epochs}), got {list(self.step_epochs)}")

    @classmethod
    def toy(cls, seed: int = 0) -> "TrainConfig":
        """Smoke-scale recipe: a tiny memorizable set converges fastest with
        no flip augmentation, a rich positive fraction, and late lr drops."""
        return cls(
            seed=seed,
            rpn_batch=64,
            roi_batch=24,
            roi_pos_fraction=0.5,
            train_post_nms=12,
            step_epochs=(18, 23),
            hflip_prob=0.0,
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


def _sample_rois(
    proposals: np.ndarray,
    gt_boxes: np.ndarray,
    gt_classes: np.ndarray,
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label proposal rows against ground-truth rows and pick the training
    subset.

    Returns (kept indices, class labels with 0 = background, matched
    ground-truth index or -1) all aligned with the kept subset.
    """
    n = proposals.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    matched = np.full(n, -1, dtype=np.int64)
    if gt_boxes.shape[0]:
        mat = pairwise_iou(proposals, gt_boxes)
        best = mat.max(axis=1)
        arg = mat.argmax(axis=1)
        fg = best >= cfg.roi_pos_iou
        labels[fg] = gt_classes[arg[fg]]
        matched[fg] = arg[fg]
    max_pos = max(1, int(cfg.roi_batch * cfg.roi_pos_fraction))
    keep = np.concatenate(sample_minibatch(
        np.flatnonzero(labels > 0), np.flatnonzero(labels == 0), max_pos, cfg.roi_batch, rng
    ))
    return keep, labels[keep], matched[keep]


def _image_loss(
    model: Model,
    sample: Sample,
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> tuple[Tensor, np.ndarray]:
    """Differentiable total loss for one image plus its (cls, reg, mask) parts."""
    height, width = sample.image.shape[1:]
    pyramid = pyramid_forward(model, Tensor(sample.image[None]))
    anchors, scores, offsets = rpn_forward(model, pyramid)
    gt = sample.boxes

    asg = assign_anchor_labels(
        anchors, gt, rng,
        batch=cfg.rpn_batch, pos_fraction=cfg.rpn_pos_fraction,
    )
    sampled = asg.sampled
    rpn_cls = cls_loss(gather_rows(scores, sampled), asg.labels[sampled])
    rpn_reg = None
    pos = asg.sampled_pos
    if pos.size:
        pred = gather_rows(offsets, pos)
        rpn_reg = reg_loss(pred, encode(anchors[pos], gt[asg.matched_gt[pos]]))
    # position-count normalization leaves the offset term orders of magnitude
    # below the objectness term; the weight restores a comparable scale
    n_positions = anchors.shape[0] // model.cfg.num_anchor_shapes
    rpn_total, rpn_parts = total_loss(
        rpn_cls, rpn_reg, None, sampled.size, n_positions, cfg.rpn_reg_weight
    )

    proposals = propose(
        anchors, scores, offsets, (height, width), pre_nms=cfg.train_pre_nms, post_nms=cfg.train_post_nms
    )
    gt_clipped, inside = clip_boxes(gt, float(width), float(height))
    proposals = np.concatenate([proposals, gt_clipped[inside]])
    roi_cls = roi_reg = l_mask = None
    n_rois = 0
    if proposals.shape[0]:
        keep, labels, matched = _sample_rois(proposals, gt, sample.class_ids, rng, cfg)
        rois = proposals[keep]
        n_rois = len(rois)
        feats = extract_roi_features(pyramid, rois, model.cfg.box_resolution)
        logits, deltas = box_head_forward(model, feats)
        roi_cls = softmax_ce(logits, labels)
        pos_rows = np.flatnonzero(labels > 0)
        if pos_rows.size:
            pred = gather_rows(deltas, pos_rows)
            roi_reg = reg_loss(pred, encode(rois[pos_rows], gt[matched[pos_rows]]))

            mfeats = extract_roi_features(pyramid, rois[pos_rows], model.cfg.mask_resolution)
            grids = mask_head_forward(model, mfeats, np.arange(pos_rows.size), labels[pos_rows])
            targets = mask_target_grid(sample.masks[matched[pos_rows]], rois[pos_rows], model.cfg.mask_out)
            l_mask = mask_loss(grids, targets)
    roi_total, roi_parts = total_loss(roi_cls, roi_reg, l_mask, n_rois, n_rois)

    parts = np.array([[r.l_cls, r.l_reg, r.l_mask] for r in (rpn_parts, roi_parts)]).sum(axis=0)
    return rpn_total + roi_total, parts


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
    default_batches = math.ceil(n / cfg.batch_size)
    batches_per_epoch = cfg.steps_per_epoch or default_batches
    step = 0
    # a diverging run overflows before Tensor's finite check stops it, and
    # that check's FloatingPointError alone reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = lr_at(cfg, epoch)
            order = rng.permutation(n)
            if batches_per_epoch * cfg.batch_size > n:
                reps = math.ceil(batches_per_epoch * cfg.batch_size / n)
                order = np.tile(order, reps)
            for b in range(batches_per_epoch):
                idxs = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                parts = np.zeros(3)
                for i in idxs:
                    s = dataset[int(i)]
                    if rng.random() < cfg.hflip_prob:
                        s = hflip(s)
                    loss, p3 = _image_loss(model, s, rng, cfg)
                    (loss * (1.0 / idxs.size)).backward()
                    del loss  # free this image's graph before the next image builds its own
                    parts += p3 / idxs.size
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
