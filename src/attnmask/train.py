"""Deterministic SGD training for the toy detector.

The optimizer is SGD with momentum 0.9 and weight decay 0.0001 at base
learning rate 0.002, dropped by 0.1 at the start of epochs 16 and 22 of
a 26-epoch run. The schedule is evaluated in decimal arithmetic so the
recorded rates are exactly the literals 0.002, 0.0002, and 0.00002.

Each step accumulates gradients over a small image batch. Per image the
loss combines the anchor-level objectness and offset terms (normalized
by the sampled anchor count and by the total anchor-position count),
the region head's class and offset terms (normalized by the sampled
region count), and the mean mask cross entropy over positive regions.
Region proposals are treated as constants: no gradient flows through
their coordinates, and ground-truth boxes are appended to the proposal
set so the region heads always see positives once the dataset has them.

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

from .boxes import Box, box_array, clip_boxes, encode_boxes, generate_anchors, pairwise_iou
from .losses import (
    MaskTarget,
    assign_anchor_labels,
    cls_loss,
    mask_loss,
    reg_loss,
    softmax_ce,
)
from .model import (
    Model,
    box_head_forward,
    extract_roi_features,
    mask_head_forward,
    objectness,
    propose,
    pyramid_forward,
    rpn_forward,
)
from .synth import Sample, augment
from .tensor import Tensor, concat, gather_rows, split_rows

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
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if any(e >= self.epochs for e in self.step_epochs):
            raise ValueError("schedule boundaries must fall inside the run")

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

    @property
    def lr_trace(self) -> list[float]:
        return [r.lr for r in self.records]

    @property
    def loss_trace(self) -> np.ndarray:
        return np.array([r.l_total for r in self.records])


def mask_target_grid(mask: np.ndarray, box: Box, m: int) -> np.ndarray:
    """Binary m x m target: the mask value at each grid cell center
    (nearest pixel; cells outside the image read 0)."""
    h, w = mask.shape
    ys = box.y1 + (np.arange(m) + 0.5) / m * box.h
    xs = box.x1 + (np.arange(m) + 0.5) / m * box.w
    r = np.floor(ys).astype(int)
    c = np.floor(xs).astype(int)
    valid = ((r >= 0) & (r < h))[:, None] & ((c >= 0) & (c < w))[None, :]
    grid = mask[np.clip(r, 0, h - 1)[:, None], np.clip(c, 0, w - 1)[None, :]]
    return (grid & valid).astype(np.int64)


def _sample_rois(
    proposals: np.ndarray,
    gt_boxes: np.ndarray,
    gt_classes: list[int],
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
        labels[fg] = np.array(gt_classes)[arg[fg]]
        matched[fg] = arg[fg]
    pos_idx = np.flatnonzero(labels > 0)
    neg_idx = np.flatnonzero(labels == 0)
    max_pos = max(1, int(cfg.roi_batch * cfg.roi_pos_fraction))
    if pos_idx.size > max_pos:
        pos_idx = np.sort(rng.permutation(pos_idx)[:max_pos])
    n_neg = cfg.roi_batch - pos_idx.size
    if neg_idx.size > n_neg:
        neg_idx = np.sort(rng.permutation(neg_idx)[:n_neg])
    keep = np.concatenate([pos_idx, neg_idx])
    return keep, labels[keep], matched[keep]


def _image_loss(
    model: Model,
    sample: Sample,
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> tuple[Tensor, np.ndarray]:
    """Differentiable total loss for one image plus its (cls, reg, mask) parts."""
    x = Tensor(sample.image)
    height, width = x.shape[1], x.shape[2]
    pyramid = pyramid_forward(model, x)
    level_shapes = {lvl: (f.shape[1], f.shape[2]) for lvl, f in pyramid.items()}
    anchors = generate_anchors(level_shapes, model.cfg.anchors)
    rpn_out = rpn_forward(model, pyramid)
    gt = box_array(sample.boxes)

    asg = assign_anchor_labels(
        anchors, gt, rng,
        batch=cfg.rpn_batch, pos_fraction=cfg.rpn_pos_fraction,
    )
    probs = concat([objectness(rpn_out[lvl][0]) for lvl in sorted(rpn_out)], axis=0)
    sampled = asg.sampled
    rpn_cls = cls_loss(gather_rows(probs, sampled), asg.labels[sampled])
    n_cls = sampled.size
    n_reg = sum(h * w for h, w in level_shapes.values())

    zero = Tensor(np.zeros(()))
    rpn_reg = zero
    pos = asg.sampled_pos
    if pos.size:
        all_reg = concat([rpn_out[lvl][1] for lvl in sorted(rpn_out)], axis=0)
        pred = gather_rows(all_reg, pos)
        targets = encode_boxes(anchors[pos], gt[asg.matched_gt[pos]])
        rpn_reg = reg_loss(pred, targets).sum()

    # position-count normalization leaves the offset term orders of magnitude
    # below the objectness term; the weight restores a comparable scale
    l_cls = rpn_cls.sum() * (1.0 / n_cls)
    l_reg = rpn_reg * (cfg.rpn_reg_weight / n_reg)
    l_mask = zero

    proposals = propose(
        model, pyramid, anchors, rpn_out, (height, width),
        pre_nms=cfg.train_pre_nms, post_nms=cfg.train_post_nms,
    )
    gt_clipped, inside = clip_boxes(gt, float(width), float(height))
    proposals = np.concatenate([proposals, gt_clipped[inside]])
    if proposals.shape[0]:
        keep, labels, matched = _sample_rois(proposals, gt, sample.class_ids, rng, cfg)
        rois = proposals[keep]
        feats = extract_roi_features(pyramid, rois, model.cfg.box_resolution)
        logits, deltas = box_head_forward(model, feats)
        l_cls = l_cls + softmax_ce(logits, labels).sum() * (1.0 / len(rois))
        pos_rows = np.flatnonzero(labels > 0)
        if pos_rows.size:
            pred = gather_rows(deltas, pos_rows)
            targets = encode_boxes(rois[pos_rows], gt[matched[pos_rows]])
            l_reg = l_reg + reg_loss(pred, targets).sum() * (1.0 / len(rois))

            m = model.cfg.mask_out
            mfeats = extract_roi_features(pyramid, rois[pos_rows], model.cfg.mask_resolution)
            terms = []
            for r, feat in zip(pos_rows, split_rows(mfeats)):
                grids = mask_head_forward(model, feat)
                k = int(labels[r]) - 1
                channel = gather_rows(grids.reshape(grids.shape[0], m * m), np.array([k]))
                target = mask_target_grid(sample.masks[matched[r]], Box(*rois[r].tolist()), m)
                terms.append(mask_loss(MaskTarget(y=channel.reshape(m, m), y_star=target)))
            l_mask = concat([t.reshape(1) for t in terms], axis=0).sum() * (1.0 / len(terms))

    total = l_cls + l_reg + l_mask
    return total, np.array([l_cls.item(), l_reg.item(), l_mask.item()])


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
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        order = rng.permutation(n)
        if batches_per_epoch * cfg.batch_size > n:
            reps = math.ceil(batches_per_epoch * cfg.batch_size / n)
            order = np.tile(order, reps)
        for b in range(batches_per_epoch):
            idxs = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            if idxs.size == 0:
                break
            parts = np.zeros(3)
            for i in idxs:
                s = dataset[int(i)]
                if rng.random() < cfg.hflip_prob:
                    s = augment(s, "hflip")
                loss, p3 = _image_loss(model, s, rng, cfg)
                (loss * (1.0 / idxs.size)).backward()
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
