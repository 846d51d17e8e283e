"""COCO-style detection evaluation: matching, P-R curves, AP and mAP.

Matching is greedy per (image, class): detections are taken in descending
score order (ties keep insertion order) and each grabs the unmatched
ground-truth box of highest IoU if that IoU reaches the threshold.
Crowd-flagged ground truth acts as an ignore region: a detection whose
only qualifying overlap is a crowd box is dropped from scoring.

AP is the 101-point interpolation of the precision envelope. mAP averages
AP over the classes that have at least one non-crowd ground-truth box; the
sweep aggregate averages the 10 thresholds 0.50, 0.55, ..., 0.95.
Detections are capped at 100 per (image, class) by score before matching.
Area-range breakdowns and mask overlap are not computed; only box mAP is
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box, iou

__all__ = [
    "COCO_SWEEP",
    "RECALL_POINTS",
    "Detection",
    "GTRecord",
    "MatchResult",
    "PRCurve",
    "EvalReport",
    "match",
    "pr_curve",
    "average_precision",
    "map_report",
    "format_table",
]

COCO_SWEEP = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)

TP = 1
FP = 0
CROWD_IGNORED = -1


@dataclass(frozen=True)
class Detection:
    image_id: int
    class_id: int
    box: Box
    score: float

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0,1], got {self.score}")


@dataclass(frozen=True)
class GTRecord:
    image_id: int
    class_id: int
    box: Box
    iscrowd: bool = False


@dataclass
class MatchResult:
    """Per-detection flags and scores, both in score-descending order."""

    flags: np.ndarray
    scores: np.ndarray
    n_gt: int


def match(dets: list[Detection], gts: list[GTRecord], iou_thr: float) -> MatchResult:
    """Greedily match one (image, class) group of detections to ground truth."""
    keys = {(d.image_id, d.class_id) for d in dets} | {(g.image_id, g.class_id) for g in gts}
    if len(keys) > 1:
        raise ValueError(f"match expects a single (image, class) group, got {sorted(keys)}")
    scores = np.array([d.score for d in dets], dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    real = [g for g in gts if not g.iscrowd]
    crowd = [g for g in gts if g.iscrowd]
    taken = np.zeros(len(real), dtype=bool)
    flags = np.empty(len(dets), dtype=np.int8)
    for rank, di in enumerate(order):
        box = dets[di].box
        best, best_gi = 0.0, -1
        for gi, g in enumerate(real):
            if taken[gi]:
                continue
            ov = iou(box, g.box)
            if ov > best:
                best, best_gi = ov, gi
        if best >= iou_thr and best_gi >= 0:
            taken[best_gi] = True
            flags[rank] = TP
        elif any(iou(box, c.box) >= iou_thr for c in crowd):
            flags[rank] = CROWD_IGNORED
        else:
            flags[rank] = FP
    return MatchResult(flags=flags, scores=scores[order], n_gt=len(real))


@dataclass
class PRCurve:
    """Cumulative precision/recall over score-ranked detections."""

    precision: np.ndarray
    recall: np.ndarray
    tp: int
    fp: int
    n_gt: int


def pr_curve(flags: np.ndarray, n_gt: int) -> PRCurve:
    """Build the cumulative P-R curve from score-sorted TP/FP flags.

    Crowd-ignored entries (-1) are dropped first. With n_gt = 0 the recall
    is identically zero and AP is meaningless; callers exclude such classes.
    """
    if n_gt < 0:
        raise ValueError("n_gt must be non-negative")
    kept = np.asarray(flags)
    kept = kept[kept != CROWD_IGNORED]
    tp_cum = np.cumsum(kept == TP)
    fp_cum = np.cumsum(kept == FP)
    denom = tp_cum + fp_cum
    precision = np.where(denom > 0, tp_cum / np.maximum(denom, 1), 0.0)
    recall = tp_cum / n_gt if n_gt > 0 else np.zeros_like(precision)
    tp_total = int(tp_cum[-1]) if tp_cum.size else 0
    fp_total = int(fp_cum[-1]) if fp_cum.size else 0
    return PRCurve(precision=precision, recall=recall, tp=tp_total, fp=fp_total, n_gt=n_gt)


def _envelope(precision: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(precision[::-1])[::-1]


def average_precision(curve: PRCurve) -> float:
    """Area under the P-R curve after taking the precision envelope: the
    envelope sampled at recalls {0, 0.01, ..., 1.00} and averaged."""
    if curve.recall.size == 0:
        return 0.0
    env = _envelope(curve.precision)
    # precision at the first curve point whose recall reaches each sample
    idx = np.searchsorted(curve.recall, RECALL_POINTS, side="left")
    sampled = np.where(idx < env.size, env[np.minimum(idx, env.size - 1)], 0.0)
    return float(sampled.mean())


@dataclass
class EvalReport:
    """Per-class/per-threshold APs plus the three headline aggregates."""

    thresholds: tuple[float, ...]
    class_ids: tuple[int, ...]
    ap: dict[float, dict[int, float]]
    map_by_thr: dict[float, float]
    counts: dict[float, tuple[int, int, int]]
    map50: float | None = None
    map75: float | None = None
    map_coco: float | None = None

    def to_json(self) -> dict:
        return {
            "thresholds": list(self.thresholds),
            "class_ids": list(self.class_ids),
            "ap": {f"{t:.2f}": {str(c): v for c, v in per.items()} for t, per in self.ap.items()},
            "map_by_thr": {f"{t:.2f}": v for t, v in self.map_by_thr.items()},
            "counts": {f"{t:.2f}": {"tp": c[0], "fp": c[1], "fn": c[2]} for t, c in self.counts.items()},
            "map50": self.map50,
            "map75": self.map75,
            "map_coco": self.map_coco,
        }


def map_report(
    dets: list[Detection],
    gts: list[GTRecord],
    thresholds=None,
    max_dets: int = 100,
) -> EvalReport:
    """Evaluate detections against ground truth at one or more IoU thresholds.

    thresholds defaults (None) to COCO_SWEEP; an empty sequence, or a value
    that does not round to two places inside (0, 1), raises ValueError.
    Classes with zero non-crowd ground truth are excluded from every mAP
    mean. The sweep aggregate is filled only when all 10 sweep thresholds
    were evaluated; 0.5/0.75 aggregates only when those thresholds were.
    """
    thresholds = tuple(round(float(t), 2) for t in (COCO_SWEEP if thresholds is None else thresholds))
    if not thresholds or not all(0.0 < t < 1.0 for t in thresholds):
        raise ValueError(f"IoU thresholds must be a non-empty sequence in (0, 1), got {thresholds}")
    class_gt_counts: dict[int, int] = {}
    for g in gts:
        if not g.iscrowd:
            class_gt_counts[g.class_id] = class_gt_counts.get(g.class_id, 0) + 1
    class_ids = tuple(sorted(c for c, n in class_gt_counts.items() if n > 0))

    by_group_d: dict[tuple[int, int], list[Detection]] = {}
    for d in dets:
        by_group_d.setdefault((d.image_id, d.class_id), []).append(d)
    # the max_dets best of each group; the stable sort keeps score ties in input order
    for grp in by_group_d.values():
        grp.sort(key=lambda d: -d.score)
        del grp[max_dets:]
    by_group_g: dict[tuple[int, int], list[GTRecord]] = {}
    for g in gts:
        by_group_g.setdefault((g.image_id, g.class_id), []).append(g)

    ap: dict[float, dict[int, float]] = {t: {} for t in thresholds}
    map_by_thr: dict[float, float] = {}
    counts: dict[float, tuple[int, int, int]] = {}
    images = sorted({k[0] for k in by_group_d} | {k[0] for k in by_group_g})
    for thr in thresholds:
        tp_all = fp_all = 0
        for cid in class_ids:
            flag_parts, score_parts = [], []
            for img in images:
                d_grp = by_group_d.get((img, cid), [])
                g_grp = by_group_g.get((img, cid), [])
                if not d_grp and not g_grp:
                    continue
                res = match(d_grp, g_grp, thr)
                keepm = res.flags != CROWD_IGNORED
                flag_parts.append(res.flags[keepm])
                score_parts.append(res.scores[keepm])
            if flag_parts:
                flags = np.concatenate(flag_parts)
                scores = np.concatenate(score_parts)
                rank = np.argsort(-scores, kind="stable")
                flags = flags[rank]
            else:
                flags = np.zeros(0, dtype=np.int8)
            curve = pr_curve(flags, class_gt_counts[cid])
            ap[thr][cid] = average_precision(curve)
            tp_all += curve.tp
            fp_all += curve.fp
        n_gt_all = sum(class_gt_counts[c] for c in class_ids)
        counts[thr] = (tp_all, fp_all, n_gt_all - tp_all)
        map_by_thr[thr] = float(np.mean([ap[thr][c] for c in class_ids])) if class_ids else 0.0

    sweep = all(t in map_by_thr for t in COCO_SWEEP)
    return EvalReport(
        thresholds=thresholds, class_ids=class_ids, ap=ap, map_by_thr=map_by_thr, counts=counts,
        map50=map_by_thr.get(0.5), map75=map_by_thr.get(0.75),
        map_coco=float(np.mean([map_by_thr[t] for t in COCO_SWEEP])) if sweep else None,
    )


def format_table(rows: list[tuple[str, EvalReport]]) -> str:
    """Render model-comparison rows with the three headline mAP columns."""
    header = ["Model", "mAP@0.5", "mAP@0.75", "mAP@[0.5:0.95]"]
    cells = [header]
    for name, rep in rows:
        fmt = lambda v: f"{v:.4f}" if v is not None else "n/a"
        cells.append([name, fmt(rep.map50), fmt(rep.map75), fmt(rep.map_coco)])
    widths = [max(len(r[i]) for r in cells) for i in range(4)]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
