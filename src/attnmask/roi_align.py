"""Quantization-free region feature extraction via bilinear sampling.

Regions are (R, 4) corner rows (x1, y1, x2, y2). A region's box is mapped
into feature coordinates by dividing by the feature stride -- never
rounded -- and split into a p x p grid of bins. Each bin is read at its
four quarter points, every sample bilinearly interpolated from the four
surrounding cells (cell centers sit at integer + 0.5, reads outside the
map return 0), and the bin keeps the max of its four samples, the one
pooling rule of the detector. The max is taken in one order with or
without a gradient: first across the x halves of each y half, then across
the y halves, each a `np.maximum` pass over contiguous blocks (a per-cell
select on a random mask cost 8-12x such a pass on a 2-core x86 host). The
backward follows the first-winner tie rule used by the rest of the tensor
core: a bin's winner is its right sample only if that is strictly larger
than the left, and its bottom row's winner only if that row's max is
strictly larger than the top's, which is the first maximal sample in the
scan order (0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75). The
winners and the interpolation matrices are kept only when the map needs a
gradient, so inside `no_grad` the forward computes the maxima alone.

Bilinear sampling is separable. Along each axis a region's 2p quarter
points read the map through a (2p, L) interpolation matrix over all L
cells of that axis, so its 2p x 2p sample grid of a (C, H, W) map F is
Ay F Ax^T and its gradient is Ay^T G Ax. A call builds Ay and Ax once
for all its regions and reads the map channel-major, as (H, C*W). Per
chunk of CHUNK regions the forward is one product of the stacked Ay with
the whole map, whose rows reshape to each region's (2p*C, W) block without
a copy, then one product per x half with a contiguous stack of Ax^T. The
backward sums GRAD_CHUNK regions per product of the stacked Ay^T with
their gradients. Every region reads the map the same way, so its pooled
values do not depend on the other regions of its chunk.

`bilinear_weights` is the detector's one bilinear rule: `model.paste_mask`
resamples mask grids over the image with the same weights.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _accum, _map_shape

__all__ = ["assign_level", "bilinear_weights", "roi_align"]

# (row, col) offsets of the four samples of a bin, as halves of the bin:
# (0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75). The order fixes
# the max tie rule.
_SAMPLES = ((0, 0), (0, 1), (1, 0), (1, 1))

# regions per forward chunk; bounds the per-chunk arrays, the (n, 2p*C, W)
# row product and the sample grids. On the 16 x 16 P2 map 4 was the fastest
# at p = 7 and p = 14; at 16 the row product no longer fits in L2.
CHUNK = 4
# regions per backward product Ay^T dpart. The map's gradient sums a group's
# samples in one product, so the group sets the order of the float sums: 16
# gives the gradients the digests in tests/test_roi_align.py pin, and groups
# of 4, 8 or 40 moved them by up to 5e-15.
GRAD_CHUNK = 16


def assign_level(boxes: np.ndarray) -> np.ndarray:
    """Route (R, 4) corner rows to pyramid levels by their scale.

    level = clamp(floor(4 + log2(sqrt(area)/224)), 2, 5): a 224-pixel
    square lands on level 4, halving the extent drops one level.
    """
    w, h = (boxes[:, 2:] - boxes[:, :2]).T
    level = np.floor(4 + np.log2(np.sqrt(w * h) / 224.0))
    return np.clip(level, 2, 5).astype(np.intp)


def bilinear_weights(coords: np.ndarray, n: int) -> np.ndarray:
    """(R, S, n) bilinear weights of (R, S) sample coordinates over n cells
    whose centers sit at integer + 0.5; cells off the map get no weight.

    Row s of a region's (S, n) matrix A reads a length-n axis at its s-th
    coordinate, so A F B^T samples a map F at every coordinate pair.
    A coordinate v + 0.5 with v = i + f (i = floor(v)) gives cell i the
    weight 1 - f and cell i + 1 the weight f, written by index into rows
    of zeros with two pad cells on each side, where reads off the map land.
    """
    v = coords - 0.5
    i0 = np.floor(v)
    f = v - i0
    m = n + 4
    # flat index of cell i0 in its row, with i0 clipped into the pads (fmax
    # sends a NaN coordinate there too: it reads nothing)
    cell = np.fmin(np.fmax(i0, -2.0), n)
    idx = (cell + np.arange(2.0, coords.size * m, m).reshape(coords.shape)).astype(np.intp)
    rows = np.zeros((*coords.shape, m))
    flat = rows.reshape(-1)
    flat[idx] = 1.0 - f
    flat[idx + 1] = f
    return np.ascontiguousarray(rows[..., 2 : n + 2])


def roi_align(feature: Tensor, stride: float, boxes: np.ndarray, resolution: int) -> Tensor:
    """Pool p x p grids (p = resolution) from a (1, C, H, W) feature map.

    boxes are (R, 4) corner rows in image coordinates; stride converts
    them to feature coordinates. The result is (R, C, p, p) in row order.
    Rows carry no image index, so a map of N > 1 images is a ValueError.
    """
    n, c, h, w = _map_shape("roi_align", feature)
    if n != 1:
        raise ValueError(f"roi_align reads a (1,C,H,W) map, got shape {feature.shape}")
    p = resolution
    x1, y1, x2, y2 = boxes.T
    bw = (x2 - x1) / stride / p
    bh = (y2 - y1) / stride / p
    if not ((bw > 0) & (bh > 0)).all():
        raise ValueError("zero-area region")

    # quarter points along one axis, first half of every bin then second:
    # 0.25, 1.25, ..., p - 0.75, 0.75, 1.75, ..., p - 0.25
    frac = np.tile(np.arange(p), 2) + np.repeat([0.25, 0.75], p)
    ys = y1[:, None] / stride + frac * bh[:, None]
    xs = x1[:, None] / stride + frac * bw[:, None]
    n_roi = boxes.shape[0]
    # (R, 2p, L) per axis, for all regions of the call
    ay = bilinear_weights(ys, h)
    ax = bilinear_weights(xs, w).reshape(n_roi, 2, p, w)
    # Ax^T per half, (2, R, W, p): one contiguous operand per column product
    axt = ax.transpose(1, 0, 3, 2).copy()
    # channel-major, (H, C*W): one product reads every channel of a row
    fmap = feature.data[0].transpose(1, 0, 2).reshape(h, c * w)

    out = np.empty((n_roi, p * c, p))
    # which sample won each bin: only a backward reads it
    arg = np.zeros((n_roi, p * c, p), dtype=np.int8) if feature.requires_grad else None
    for lo in range(0, n_roi, CHUNK):
        hi = min(lo + CHUNK, n_roi)
        n = hi - lo
        # rows (half, bin row, channel) of each region x cols x: (n, 2p*C, W)
        part = (ay[lo:hi].reshape(n * 2 * p, h) @ fmap).reshape(n, 2 * p * c, w)
        # per x half, (n, 2, p*C, p): (y half, (bin row, channel), bin col)
        left, right = ((part @ axt[dx, lo:hi]).reshape(n, 2, p * c, p) for dx in (0, 1))
        rows = np.maximum(left, right)
        np.maximum(rows[:, 0], rows[:, 1], out=out[lo:hi])
        if arg is not None:
            # the first winner: the right half only if strictly larger, then
            # the bottom row's winner only if its max is strictly larger
            dx = (right > left).view(np.int8)
            dy = (rows[:, 1] > rows[:, 0]).view(np.int8)
            arg[lo:hi] = dx[:, 0] + dy * (2 + dx[:, 1] - dx[:, 0])

    result = out.reshape(n_roi, p, c, p).transpose(0, 2, 1, 3)
    if arg is None:
        return Tensor(result)

    def bwd(g, feat=feature, ay=ay, ax=ax, arg=arg):
        g = g.transpose(0, 2, 1, 3).reshape(n_roi, p * c, p)
        dmap = np.zeros((h, c * w))
        for lo in range(0, n_roi, GRAD_CHUNK):
            hi = min(lo + GRAD_CHUNK, n_roi)
            n = hi - lo
            dpart = np.zeros((2, n, p * c, w))
            for s, (dy, dx) in enumerate(_SAMPLES):
                dpart[dy] += (g[lo:hi] * (arg[lo:hi] == s)) @ ax[lo:hi, dx]
            # rows (region, half, bin row) x cols (channel, x), as ay's rows
            dpart = dpart.transpose(1, 0, 2, 3).reshape(n * 2 * p, c * w)
            dmap += ay[lo:hi].reshape(n * 2 * p, h).T @ dpart
        _accum(feat, dmap.reshape(h, c, w).transpose(1, 0, 2)[None])

    return Tensor(result, _parents=(feature,), _backward=bwd)
