"""The three-part detection loss and anchor label assignment.

Classification uses the binary form -log[p*p_star + (1-p_star)(1-p)] on
foreground probabilities (with a softmax cross-entropy extension for the
multi-class region head), regression is a per-component smooth L1 over
the four box offsets of positive samples, given as (N, 4) arrays, and the
mask term is the mean of the same binary terms (`cls_loss`) over the
p x p grids of each positive region's matched class channel. Anchor
labelling reads one `boxes.pairwise_iou` matrix of anchor and ground-truth
corner rows. It and region sampling draw their minibatches through one
sampler, `sample_minibatch`.

The total is (1/N_cls) * sum(cls) + (lambda/N_reg) * sum(reg) + mask,
and `total_loss` is the only place it is composed. Training calls it once
for the RPN terms, with N_cls the sampled anchors, N_reg the anchor
positions and lambda the configured offset weight, and once for the
region heads, with both counts the sampled regions and lambda 1.

Probabilities are clamped to [1e-7, 1 - 1e-7] before any log, so perfect
and catastrophic predictions both stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# iou is not called here but stays bound: the benchmark's tracer
# (bench/layers.py) wraps boxes.iou in every module that imports it
from .boxes import iou, pairwise_iou  # noqa: F401
from .tensor import Tensor, clamp, gather_rows, log, log_softmax, smooth_l1

__all__ = [
    "EPS",
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "AnchorAssignment",
    "LossReport",
    "assign_anchor_labels",
    "sample_minibatch",
    "cls_loss",
    "softmax_ce",
    "reg_loss",
    "mask_loss",
    "total_loss",
]

EPS = 1e-7

POSITIVE = 1
NEGATIVE = 0
IGNORE = -1
# best-IoU bounds of positive and negative anchors
POS_IOU = 0.7
NEG_IOU = 0.3


@dataclass
class AnchorAssignment:
    """Per-anchor labels plus the sampled training minibatch.

    labels: 1 positive, 0 negative, -1 ignore (ignored anchors never enter
    a loss sum). matched_gt holds the ground-truth index for positives and
    -1 elsewhere. sampled_pos/sampled_neg are the minibatch indices.
    """

    labels: np.ndarray
    matched_gt: np.ndarray
    sampled_pos: np.ndarray
    sampled_neg: np.ndarray

    @property
    def sampled(self) -> np.ndarray:
        return np.concatenate([self.sampled_pos, self.sampled_neg])


def assign_anchor_labels(
    anchors: np.ndarray,
    gt_boxes: np.ndarray,
    rng: np.random.Generator,
    batch: int = 256,
    pos_fraction: float = 0.5,
) -> AnchorAssignment:
    """Label anchors against ground truth and sample a training minibatch.

    An anchor is positive when its best IoU reaches POS_IOU or it is the
    best anchor for some ground-truth box; negative when its best IoU is
    at most NEG_IOU; ignored in between. At most batch*pos_fraction
    positives are sampled, negatives fill the rest of the batch. anchors
    and gt_boxes are (N, 4) corner rows.
    """
    n = anchors.shape[0]
    labels = np.full(n, IGNORE, dtype=np.int8)
    matched = np.full(n, -1, dtype=np.int64)
    if gt_boxes.shape[0]:
        mat = pairwise_iou(anchors, gt_boxes)
        best, top = mat.max(axis=1), mat.max(axis=0)
        labels[best <= NEG_IOU] = NEGATIVE
        # rescue: every ground-truth box keeps its best-overlap anchor(s)
        pos = (best >= POS_IOU) | ((mat == top) & (top > 0)).any(axis=1)
        labels[pos] = POSITIVE
        matched[pos] = mat.argmax(axis=1)[pos]
    else:
        labels[:] = NEGATIVE

    pos_idx, neg_idx = sample_minibatch(
        np.flatnonzero(labels == POSITIVE), np.flatnonzero(labels == NEGATIVE),
        int(batch * pos_fraction), batch, rng,
    )
    return AnchorAssignment(labels=labels, matched_gt=matched, sampled_pos=pos_idx, sampled_neg=neg_idx)


def sample_minibatch(
    pos_idx: np.ndarray, neg_idx: np.ndarray, max_pos: int, batch: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """At most max_pos positives, then negatives filling the batch. A set
    larger than its share is cut to a random subset in ascending order;
    the positives draw from rng first, then the negatives."""
    if pos_idx.size > max_pos:
        pos_idx = np.sort(rng.permutation(pos_idx)[:max_pos])
    n_neg = batch - pos_idx.size
    if neg_idx.size > n_neg:
        neg_idx = np.sort(rng.permutation(neg_idx)[:n_neg])
    return pos_idx, neg_idx


def cls_loss(p: Tensor, p_star) -> Tensor:
    """Binary classification loss -log[p*y + (1-y)(1-p)], elementwise.

    p holds foreground probabilities, p_star the {0,1} labels of the same
    shape. Probabilities are clamped before the log.
    """
    y = np.asarray(p_star, dtype=np.float64)
    if y.shape != p.shape:
        raise ValueError(f"target shape {y.shape} != prediction shape {p.shape}")
    pc = clamp(p, EPS, 1.0 - EPS)
    inner = pc * (2.0 * y - 1.0) + (1.0 - y)
    return -log(inner)


def softmax_ce(logits: Tensor, labels) -> Tensor:
    """Multi-class extension of cls_loss: -log softmax(logits)[label] per row
    of (N, K) logits, read as entry i * K + label of the flattened rows.
    Anything but N labels in [0, K) raises ValueError."""
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,) or np.any((labels < 0) | (labels >= k)):
        raise ValueError(f"labels must be {n} values in [0, {k}), got {labels}")
    return -gather_rows(log_softmax(logits).reshape(n * k), np.arange(n) * k + labels)


def reg_loss(t: Tensor, t_star) -> Tensor:
    """Smooth L1 summed over the four offset components.

    t holds predicted offsets, (N, 4) rows or one (4,) row, and t_star the
    targets of the same shape. Returns (N,) per-row terms, or a scalar for
    one row.
    """
    target = np.asarray(t_star, dtype=np.float64)
    if target.shape != t.shape:
        raise ValueError(f"target shape {target.shape} != prediction shape {t.shape}")
    return smooth_l1(t + Tensor(-target)).sum(axis=-1)


def mask_loss(y: Tensor, y_star: np.ndarray) -> Tensor:
    """Average binary cross entropy, the mean of cls_loss's per-cell terms,
    of predicted grids y against binary targets y_star of the same shape:
    one p x p grid or a (P, p, p) stack.

    The 1/p^2 normalization makes the value invariant under grid
    refinement with identical per-cell terms. All grids of a stack have p^2
    cells, so its mean is the mean of the per-region means.
    """
    if not np.isin(y_star, (0, 1)).all():
        raise ValueError("mask targets must be binary")
    return cls_loss(y, y_star).mean()


@dataclass
class LossReport:
    """Normalized components and their sum; all finite and non-negative."""

    l_cls: float
    l_reg: float
    l_mask: float
    l_total: float


def total_loss(
    cls_terms: Tensor | None,
    reg_terms: Tensor | None,
    mask_term: Tensor | None,
    n_cls: int,
    n_reg: int,
    reg_weight: float = 1.0,
) -> tuple[Tensor, LossReport]:
    """Compose (1/N_cls)*sum(cls) + (reg_weight/N_reg)*sum(reg) + mask.

    Returns the differentiable total plus a report of the three normalized
    components. Missing parts contribute exactly zero.
    """
    zero = Tensor(np.zeros(()))
    cls_part = cls_terms.sum() * (1.0 / n_cls) if cls_terms is not None and cls_terms.size else zero
    reg_part = (
        reg_terms.sum() * (reg_weight / n_reg) if reg_terms is not None and reg_terms.size else zero
    )
    mask_part = mask_term if mask_term is not None else zero
    total = cls_part + reg_part + mask_part
    return total, LossReport(cls_part.item(), reg_part.item(), mask_part.item(), total.item())
