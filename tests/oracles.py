"""Independent brute-force references the tests compare against.

Everything here is written with plain Python loops and explicit formulas,
on purpose: no code is shared with the package beyond the Box container,
so an indexing or vectorization bug in the package cannot cancel out here.
"""

import numpy as np


def iou_xyxy(a, b):
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def nms_bruteforce(boxes_xyxy, scores, iou_threshold, score_threshold=0.5):
    """Quadratic NMS over corner-form boxes; kept indices, score-descending."""
    candidates = [i for i, s in enumerate(scores) if s >= score_threshold]
    candidates.sort(key=lambda i: (-scores[i], i))
    kept = []
    for i in candidates:
        if all(iou_xyxy(boxes_xyxy[i], boxes_xyxy[j]) <= iou_threshold for j in kept):
            kept.append(i)
    return kept


def nms_per_label_bruteforce(boxes_xyxy, scores, iou_threshold, labels):
    """nms_bruteforce within each label, merged by descending score, then index."""
    kept = []
    for label in sorted(set(labels)):
        rows = [i for i, lab in enumerate(labels) if lab == label]
        picked = nms_bruteforce([boxes_xyxy[i] for i in rows], [scores[i] for i in rows],
                                iou_threshold, score_threshold=0.0)
        kept += [rows[j] for j in picked]
    return sorted(kept, key=lambda i: (-scores[i], i))


def anchor_labels_reference(anchors_xyxy, gts_xyxy, pos_iou=0.7, neg_iou=0.3):
    """Anchor labels (1 positive, 0 negative, -1 ignore) and matched
    ground-truth indices (-1 unless positive), one anchor at a time.

    An anchor is positive when its best IoU reaches pos_iou, or when some
    ground-truth box overlaps no anchor more than it (ties included, zero
    overlap never); it is then matched to the first box of its best IoU.
    Otherwise it is negative at a best IoU of at most neg_iou, else ignored.
    With no ground truth every anchor is negative.
    """
    if not gts_xyxy:
        return [0] * len(anchors_xyxy), [-1] * len(anchors_xyxy)
    ious = [[iou_xyxy(a, g) for g in gts_xyxy] for a in anchors_xyxy]
    tops = [max(row[j] for row in ious) for j in range(len(gts_xyxy))]
    labels, matched = [], []
    for row in ious:
        best = max(row)
        rescued = any(top > 0 and row[j] == top for j, top in enumerate(tops))
        if best >= pos_iou or rescued:
            labels.append(1)
            matched.append(row.index(best))
        else:
            labels.append(0 if best <= neg_iou else -1)
            matched.append(-1)
    return labels, matched


def detections_per_class(probs, boxes_xyxy, conf_threshold, iou_threshold):
    """Per-class detection NMS: for each foreground class k (column k > 0 of
    the (R, K+1) probs), the rows scoring at least conf_threshold go through
    nms_bruteforce; the survivors of all classes are then stably sorted by
    descending score. Uncapped (class, row, score) triples."""
    final = []
    for k in range(1, len(probs[0])):
        fire = [i for i in range(len(probs)) if probs[i][k] >= conf_threshold]
        picked = nms_bruteforce([boxes_xyxy[i] for i in fire], [probs[i][k] for i in fire],
                                iou_threshold, score_threshold=0.0)
        final += [(k, fire[j], probs[fire[j]][k]) for j in picked]
    final.sort(key=lambda t: -t[2])
    return final


def bilinear_hat(feature, sy, sx):
    """Interpolate one point as the full hat-weighted sum over all cells."""
    c, h, w = feature.shape
    out = np.zeros(c)
    for i in range(h):
        wy = max(0.0, 1.0 - abs(sy - (i + 0.5)))
        if wy == 0.0:
            continue
        for j in range(w):
            wx = max(0.0, 1.0 - abs(sx - (j + 0.5)))
            if wx > 0.0:
                out += feature[:, i, j] * wy * wx
    return out


def roi_align_dense(feature, stride, box_xyxy, resolution):
    """Dense-sum ROI Align: the per-channel max of 4 quarter-point samples per bin."""
    x1, y1, x2, y2 = (v / stride for v in box_xyxy)
    bw = (x2 - x1) / resolution
    bh = (y2 - y1) / resolution
    c = feature.shape[0]
    out = np.zeros((c, resolution, resolution))
    for by in range(resolution):
        for bx in range(resolution):
            samples = []
            for dy, dx in ((0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)):
                sy = y1 + (by + dy) * bh
                sx = x1 + (bx + dx) * bw
                samples.append(bilinear_hat(feature, sy, sx))
            out[:, by, bx] = np.stack(samples).max(axis=0)
    return out


def paste_mask_reference(probs, box_xyxy, height, width):
    """Paste one m x m grid into a height x width canvas, pixel by pixel.

    Grid cell (i, j) is centered at box fraction ((i+0.5)/m, (j+0.5)/m).
    A pixel is on when its center lies inside the box clipped to the canvas
    and the grid, bilinearly interpolated there with its coordinates
    clamped to the outermost cell centers, reaches 0.5.
    """
    x1, y1, x2, y2 = box_xyxy
    w, h = x2 - x1, y2 - y1
    left, top = max(x1, 0.0), max(y1, 0.0)
    right, bottom = min(x2, float(width)), min(y2, float(height))
    m = probs.shape[0]
    out = np.zeros((height, width), dtype=bool)
    if right <= left or bottom <= top:
        return out
    for r in range(height):
        py = r + 0.5
        if not top <= py <= bottom:
            continue
        v = min(max((py - y1) / h * m - 0.5, 0.0), m - 1.0)
        i0 = int(np.floor(v))
        i1 = min(i0 + 1, m - 1)
        fv = v - i0
        for c in range(width):
            px = c + 0.5
            if not left <= px <= right:
                continue
            u = min(max((px - x1) / w * m - 0.5, 0.0), m - 1.0)
            j0 = int(np.floor(u))
            j1 = min(j0 + 1, m - 1)
            fu = u - j0
            value = (
                probs[i0, j0] * (1 - fv) * (1 - fu)
                + probs[i0, j1] * (1 - fv) * fu
                + probs[i1, j0] * fv * (1 - fu)
                + probs[i1, j1] * fv * fu
            )
            out[r, c] = value >= 0.5
    return out


def match_reference(dets, gts, thr):
    """Greedy matcher for one (image, class) group.

    dets: list of (score, box_xyxy); gts: list of (box_xyxy, iscrowd).
    Returns per-detection flags in score-descending order: 1 TP, 0 FP,
    -1 ignored by a crowd region.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][0], i))
    real = [g for g in gts if not g[1]]
    crowd = [g for g in gts if g[1]]
    used = [False] * len(real)
    flags = []
    for di in order:
        box = dets[di][1]
        best, pick = 0.0, -1
        for gi, (gbox, _) in enumerate(real):
            if used[gi]:
                continue
            ov = iou_xyxy(box, gbox)
            if ov > best:
                best, pick = ov, gi
        if pick >= 0 and best >= thr:
            used[pick] = True
            flags.append(1)
        elif any(iou_xyxy(box, cbox) >= thr for cbox, _ in crowd):
            flags.append(-1)
        else:
            flags.append(0)
    return flags, len(real)


def ap_reference(flags, n_gt):
    """101-point interpolated AP from score-sorted flags, loops only."""
    kept = [f for f in flags if f != -1]
    if n_gt <= 0:
        return 0.0
    precision, recall = [], []
    tp = fp = 0
    for f in kept:
        if f == 1:
            tp += 1
        else:
            fp += 1
        precision.append(tp / (tp + fp))
        recall.append(tp / n_gt)
    # envelope: best precision at any recall >= r
    ap_sum = 0.0
    for k in range(101):
        r = k / 100.0
        best = 0.0
        for p, rc in zip(precision, recall):
            if rc >= r and p > best:
                best = p
        ap_sum += best
    return ap_sum / 101.0


def map_reference(dets, gts, thr):
    """mAP at one threshold over classes with >= 1 non-crowd ground truth.

    dets: list of (image_id, class_id, score, box_xyxy);
    gts: list of (image_id, class_id, box_xyxy, iscrowd).
    """
    class_gt = {}
    for img, cid, box, iscrowd in gts:
        if not iscrowd:
            class_gt[cid] = class_gt.get(cid, 0) + 1
    classes = sorted(c for c, n in class_gt.items() if n > 0)
    if not classes:
        return 0.0
    aps = []
    for cid in classes:
        entries = []  # (score, insertion_rank, flag) across all images
        rank = 0
        images = sorted({d[0] for d in dets} | {g[0] for g in gts})
        for img in images:
            d_grp = [(s, b) for i, c, s, b in dets if i == img and c == cid]
            g_grp = [(b, cr) for i, c, b, cr in gts if i == img and c == cid]
            flags, _ = match_reference(d_grp, g_grp, thr)
            scores = sorted((d[0] for d in d_grp), reverse=True)
            for s, f in zip(scores, flags):
                entries.append((s, rank, f))
                rank += 1
        entries.sort(key=lambda e: (-e[0], e[1]))
        aps.append(ap_reference([e[2] for e in entries], class_gt[cid]))
    return sum(aps) / len(aps)


def conv2d_reference(x, w, b, stride, padding):
    """conv2d of a (C,H,W) map or an (N,C,H,W) batch, one output at a time:
    every output sums the input cells its window covers, skipping the cells
    of the zero border, so no padded array is built."""
    xs = x[None] if x.ndim == 3 else x
    n, c, h, wd = xs.shape
    o, _, k, _ = w.shape
    ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for s in range(n):
        for co in range(o):
            for i in range(ho):
                for j in range(wo):
                    acc = b[co]
                    for ci in range(c):
                        for di in range(k):
                            for dj in range(k):
                                r, col = i * stride + di - padding, j * stride + dj - padding
                                if 0 <= r < h and 0 <= col < wd:
                                    acc += xs[s, ci, r, col] * w[co, ci, di, dj]
                    out[s, co, i, j] = acc
    return out[0] if x.ndim == 3 else out


def conv2d_grads_reference(x, w, g, stride, padding):
    """(dx, dw, db) of sum(conv2d(x, w, b) * g): each output's gradient is
    scattered into the input cells and the weights its window covers; cells
    of the zero border are skipped. x is (C,H,W) or an (N,C,H,W) batch."""
    xs, gs = (x[None], g[None]) if x.ndim == 3 else (x, g)
    _, _, h, wd = xs.shape
    _, _, k, _ = w.shape
    dx, dw, db = np.zeros_like(xs), np.zeros_like(w), np.zeros(w.shape[0])
    for s, co, i, j in np.ndindex(*gs.shape):
        gv = gs[s, co, i, j]
        db[co] += gv
        for di in range(k):
            for dj in range(k):
                r, col = i * stride + di - padding, j * stride + dj - padding
                if 0 <= r < h and 0 <= col < wd:
                    dx[s, :, r, col] += gv * w[co, :, di, dj]
                    dw[co, :, di, dj] += gv * xs[s, :, r, col]
    return dx.reshape(x.shape), dw, db


def max_pool2d_reference(x, kernel, stride, padding, g):
    """Values of max_pool2d on a (C,H,W) map and the input gradient of
    sum(out * g), window by window over the in-map cells: the first maximal
    cell in scan order wins, and a cell that wins several windows receives
    the sum of their gradients."""
    c, h, w = x.shape
    ho, wo = (h + 2 * padding - kernel) // stride + 1, (w + 2 * padding - kernel) // stride + 1
    out, dx = np.zeros((c, ho, wo)), np.zeros_like(x)
    for ch, i, j in np.ndindex(c, ho, wo):
        best, at = -np.inf, None
        for di in range(kernel):
            for dj in range(kernel):
                r, col = i * stride + di - padding, j * stride + dj - padding
                if 0 <= r < h and 0 <= col < w and x[ch, r, col] > best:
                    best, at = x[ch, r, col], (r, col)
        out[ch, i, j] = best
        dx[ch][at] += g[ch, i, j]
    return out, dx


def _logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


def _shared_mlp(v, p):
    return p.w2.data @ np.maximum(p.w1.data @ v + p.b1.data, 0.0) + p.b2.data


def attention_reference(x, variant, params):
    """A gated (C,H,W) map from the gate equations, with s the logistic
    function, avg/max pooling over positions and avg_c/max_c over channels:
    SE   F * s(MLP(avg F));
    ECA  F * s(w * avg F), a zero-padded 1-D correlation across channels;
    CBAM F' = F * s(MLP(avg F) + MLP(max F)), then
         F' * s(conv7x7([avg_c F'; max_c F'])).
    params is the block's parameter container; only its arrays are read."""
    c = x.shape[0]
    if variant == "se":
        return x * _logistic(_shared_mlp(x.mean(axis=(1, 2)), params))[:, None, None]
    if variant == "eca":
        w = params.w.data
        k = len(w)
        v = np.concatenate([np.zeros(k // 2), x.mean(axis=(1, 2)), np.zeros(k // 2)])
        z = np.array([sum(w[j] * v[i + j] for j in range(k)) for i in range(c)])
        return x * _logistic(z)[:, None, None]
    if variant == "cbam":
        cam = params.cam
        z = _shared_mlp(x.mean(axis=(1, 2)), cam) + _shared_mlp(x.max(axis=(1, 2)), cam)
        x = x * _logistic(z)[:, None, None]
        maps = np.stack([x.mean(axis=0), x.max(axis=0)])
        return x * _logistic(conv2d_reference(maps, params.sam.w.data, params.sam.b.data, 1, 3))
    raise ValueError(f"no reference for variant {variant!r}")
