"""The three-part detection loss and anchor label assignment.

Classification uses the binary form -log[p*p_star + (1-p_star)(1-p)] on
foreground probabilities (with a softmax cross-entropy extension for the
multi-class region head), regression is a per-component smooth L1 over
the four box offsets of positive samples, and the mask term is average
binary cross entropy over a p x p grid of the matched class's channel.

The total is (1/N_cls) * sum(cls) + (1/N_reg) * sum(reg) + mask with no
extra balance weight by default; ``reg_weight`` exists as a stability
knob for small-scale training.

Probabilities are clamped to [1e-7, 1 - 1e-7] before any log, so perfect
and catastrophic predictions both stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# iou is not called here but stays bound: the benchmark's tracer
# (bench/layers.py) wraps boxes.iou in every module that imports it
from .boxes import BoxDelta, iou, pairwise_iou  # noqa: F401
from .tensor import Tensor, clamp, log, log_softmax, smooth_l1

__all__ = [
    "EPS",
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "AnchorAssignment",
    "MaskTarget",
    "LossReport",
    "assign_anchor_labels",
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
    pos_iou: float = 0.7,
    neg_iou: float = 0.3,
    batch: int = 256,
    pos_fraction: float = 0.5,
) -> AnchorAssignment:
    """Label anchors against ground truth and sample a training minibatch.

    An anchor is positive when its best IoU reaches pos_iou or it is the
    best anchor for some ground-truth box; negative when its best IoU is
    at most neg_iou; ignored in between. At most batch*pos_fraction
    positives are sampled, negatives fill the rest of the batch. anchors
    and gt_boxes are (N, 4) center-form rows.
    """
    n = anchors.shape[0]
    labels = np.full(n, IGNORE, dtype=np.int8)
    matched = np.full(n, -1, dtype=np.int64)
    if gt_boxes.shape[0]:
        mat = pairwise_iou(anchors, gt_boxes)
        best = mat.max(axis=1)
        arg = mat.argmax(axis=1)
        labels[best <= neg_iou] = NEGATIVE
        pos = best >= pos_iou
        # rescue: every ground-truth box keeps its best-overlap anchor(s)
        for gi in range(len(gt_boxes)):
            col = mat[:, gi]
            top = col.max()
            if top > 0:
                rescued = col == top
                pos |= rescued
                arg[rescued & (mat[np.arange(n), arg] < top)] = gi
        labels[pos] = POSITIVE
        matched[pos] = arg[pos]
    else:
        labels[:] = NEGATIVE

    pos_idx = np.flatnonzero(labels == POSITIVE)
    neg_idx = np.flatnonzero(labels == NEGATIVE)
    max_pos = int(batch * pos_fraction)
    if pos_idx.size > max_pos:
        pos_idx = np.sort(rng.permutation(pos_idx)[:max_pos])
    n_neg = batch - pos_idx.size
    if neg_idx.size > n_neg:
        neg_idx = np.sort(rng.permutation(neg_idx)[:n_neg])
    return AnchorAssignment(labels=labels, matched_gt=matched, sampled_pos=pos_idx, sampled_neg=neg_idx)


def cls_loss(p: Tensor | float, p_star) -> Tensor:
    """Binary classification loss -log[p*y + (1-y)(1-p)], elementwise.

    p holds foreground probabilities, p_star the {0,1} labels; both may be
    scalars or equal-shape arrays. Probabilities are clamped before the log.
    """
    if not isinstance(p, Tensor):
        p = Tensor(np.asarray(p, dtype=np.float64))
    y = np.asarray(p_star, dtype=np.float64)
    if y.shape != p.shape:
        raise ValueError(f"label shape {y.shape} != probability shape {p.shape}")
    pc = clamp(p, EPS, 1.0 - EPS)
    inner = pc * (2.0 * y - 1.0) + (1.0 - y)
    return -log(inner)


def softmax_ce(logits: Tensor, labels) -> Tensor:
    """Multi-class extension of cls_loss: -log softmax(logits)[label] per row."""
    labels = np.asarray(labels, dtype=np.intp)
    lsm = log_softmax(logits)
    onehot = np.zeros(logits.shape)
    onehot[np.arange(labels.size), labels] = 1.0
    return -((lsm * onehot).sum(axis=1))


def _delta_array(d) -> np.ndarray:
    if isinstance(d, BoxDelta):
        return np.array([d.tx, d.ty, d.tw, d.th])
    return np.asarray(d, dtype=np.float64)


def reg_loss(t, t_star) -> Tensor:
    """Smooth L1 summed over the four offset components.

    t may be a Tensor of shape (4,) or (N,4) (predictions) or a BoxDelta;
    t_star is the matching target. Returns a scalar for a single delta,
    (N,) for a batch.
    """
    if not isinstance(t, Tensor):
        t = Tensor(_delta_array(t))
    target = _delta_array(t_star)
    if target.shape != t.shape:
        raise ValueError(f"target shape {target.shape} != prediction shape {t.shape}")
    diff = t + Tensor(-target)
    per_component = smooth_l1(diff)
    return per_component.sum(axis=-1 if t.ndim > 1 else None)


@dataclass
class MaskTarget:
    """A p x p binary target grid with the predictions for one class channel."""

    y: Tensor | np.ndarray
    y_star: np.ndarray
    class_id: int = 0

    def __post_init__(self):
        ys = np.asarray(self.y_star)
        if not np.isin(ys, (0, 1)).all():
            raise ValueError("mask targets must be binary")


def mask_loss(target: MaskTarget, log_complement: bool = True) -> Tensor:
    """Average binary cross entropy over the mask grid.

    The 1/p^2 normalization makes the value invariant under grid
    refinement with identical per-cell terms. log_complement=False swaps
    the -log(1-y) background term for the raw product (1-y*)(1-y); it is
    kept only for comparison and is not a training loss.
    """
    y = target.y if isinstance(target.y, Tensor) else Tensor(np.asarray(target.y, dtype=np.float64))
    ys = np.asarray(target.y_star, dtype=np.float64)
    if ys.shape != y.shape:
        raise ValueError(f"target shape {ys.shape} != prediction shape {y.shape}")
    yc = clamp(y, EPS, 1.0 - EPS)
    fg = log(yc) * ys
    if log_complement:
        bg = log(1.0 - yc) * (1.0 - ys)
    else:
        bg = (1.0 - yc) * (1.0 - ys)
    return -((fg + bg).mean())


@dataclass
class LossReport:
    """Normalized components and their sum; all finite and non-negative."""

    l_cls: float
    l_reg: float
    l_mask: float
    l_total: float
    n_cls: int
    n_reg: int


def total_loss(
    cls_terms: Tensor | None,
    reg_terms: Tensor | None,
    mask_term: Tensor | None,
    n_cls: int,
    n_reg: int,
    reg_weight: float = 1.0,
) -> tuple[Tensor, LossReport]:
    """Compose (1/N_cls)*sum(cls) + (1/N_reg)*sum(reg) + mask.

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
    report = LossReport(
        l_cls=cls_part.item(),
        l_reg=reg_part.item(),
        l_mask=mask_part.item(),
        l_total=total.item(),
        n_cls=n_cls,
        n_reg=n_reg,
    )
    return total, report
