"""Quantization-free region feature extraction via bilinear sampling.

Regions are (R, 4) center-form rows. A region's box is mapped into feature coordinates by dividing by the
feature stride -- never rounded -- and split into a p x p grid of bins.
Each bin is read at its four quarter points, every sample bilinearly
interpolated from the four surrounding cells (cell centers sit at
integer + 0.5, reads outside the map return 0), and the bin keeps the max
of its four samples, the one pooling rule of the detector. The backward
follows the first-winner tie rule used by the rest of the tensor core.

Bilinear sampling is separable. Along each axis a region's 2p quarter
points read the map through a (2p, L) interpolation matrix over the L
cells they touch, so the 2p x 2p sample grid of the region's (C, Ly, Lx)
window F is Ay F Ax^T and its gradient is Ay^T G Ax: batched matrix
products per chunk of regions, forward and backward alike. The window
spans only the region's own cells (the widest region of its chunk sets L),
so the cost follows the region's extent on the map, not the map's size.
"""

from __future__ import annotations

import numpy as np

from .boxes import corners
from .tensor import Tensor, _accum

__all__ = ["assign_level", "roi_align"]

# (row, col) offsets of the four samples of a bin, as halves of the bin:
# (0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75). The order fixes
# the max tie rule.
_SAMPLES = ((0, 0), (0, 1), (1, 0), (1, 1))

# regions per batched product; bounds the four (R, p*C, p) sample grids
CHUNK = 16


def assign_level(boxes: np.ndarray) -> np.ndarray:
    """Route (R, 4) center-form rows to pyramid levels by their scale.

    level = clamp(floor(4 + log2(sqrt(area)/224)), 2, 5): a 224-pixel
    square lands on level 4, halving the extent drops one level.
    """
    level = np.floor(4 + np.log2(np.sqrt(boxes[:, 2] * boxes[:, 3]) / 224.0))
    return np.clip(level, 2, 5).astype(np.intp)


def _axis_weights(coords: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear weights of (R, S) sample coordinates over n cells whose
    centers sit at integer + 0.5; cells off the map get no weight.

    Returns each region's window start and the (R, S, L) weights over its
    window of L cells, L being the widest region's span of touched cells.
    A window over more than half the axis grows to the whole axis, where
    reading the map in place costs less than copying the windows out.
    """
    v = coords - 0.5
    i0 = np.floor(v)
    f = (v - i0)[..., None]
    lo = np.clip(i0.min(axis=1), 0, n - 1).astype(np.intp)
    hi = np.clip(i0.max(axis=1) + 1, 0, n - 1).astype(np.intp)
    span = int((hi - lo).max()) + 1
    span = n if 2 * span > n else span
    first = np.minimum(lo, n - span)
    cells = (first[:, None] + np.arange(span))[:, None, :]
    return first, (cells == i0[..., None]) * (1.0 - f) + (cells == i0[..., None] + 1.0) * f


def roi_align(feature: Tensor, stride: float, boxes: np.ndarray, resolution: int) -> Tensor:
    """Pool p x p grids (p = resolution) from a (C, H, W) feature map.

    boxes are (R, 4) center-form rows in image coordinates; stride converts
    them to feature coordinates. The result is (R, C, p, p) in row order.
    """
    c, h, w = feature.shape
    p = resolution
    x1, y1, _, _ = corners(boxes)
    bw = boxes[:, 2] / stride / p
    bh = boxes[:, 3] / stride / p
    if not ((bw > 0) & (bh > 0)).all():
        raise ValueError("zero-area region")

    # quarter points along one axis, first half of every bin then second:
    # 0.25, 1.25, ..., p - 0.75, 0.75, 1.75, ..., p - 0.25
    frac = np.tile(np.arange(p), 2) + np.repeat([0.25, 0.75], p)
    ys = y1[:, None] / stride + frac * bh[:, None]
    xs = x1[:, None] / stride + frac * bw[:, None]
    # channels last, (H, W*C): each row of a window is one contiguous run
    fmap = feature.data.transpose(1, 2, 0).reshape(h, w * c)

    n_roi = boxes.shape[0]
    out = np.empty((n_roi, p * c, p))
    arg = np.zeros((n_roi, p * c, p), dtype=np.int8)
    chunks = []
    for lo in range(0, n_roi, CHUNK):
        n = min(CHUNK, n_roi - lo)
        y0, ay = _axis_weights(ys[lo : lo + n], h)
        x0, ax = _axis_weights(xs[lo : lo + n], w)
        ly, lx = ay.shape[2], ax.shape[2]
        if (ly, lx) == (h, w):
            # every window is the whole map: one product for the chunk
            part = ay.reshape(n * 2 * p, h) @ fmap
        else:
            win = np.stack([fmap[y : y + ly, x * c : (x + lx) * c] for y, x in zip(y0, x0)])
            part = ay @ win
        # rows (half, region, bin row) x cols (channel, x): (2, n, p*C, Lx)
        part = part.reshape(n, 2, p, lx, c).transpose(1, 0, 2, 4, 3).reshape(2, n, p * c, lx)
        ax = ax.reshape(n, 2, p, lx)
        chunks.append((y0, x0, ay, ax))
        # one (n, p*C, p) grid per sample: (bin row, channel, bin col)
        cols = [part @ ax[:, dx].transpose(0, 2, 1) for dx in (0, 1)]
        samples = [cols[dx][dy] for dy, dx in _SAMPLES]
        # first winner on ties; arithmetic instead of masked writes, which
        # are several times slower on a random mask
        best, pick = samples[0], arg[lo : lo + n]
        for s in range(1, 4):
            pick += (samples[s] > best) * (s - pick)
            best = np.maximum(best, samples[s])
        out[lo : lo + n] = best

    def bwd(g, feat=feature, chunks=chunks, arg=arg):
        if not feat.requires_grad:
            return
        g = g.transpose(0, 2, 1, 3).reshape(n_roi, p * c, p)
        dmap = np.zeros((h, w * c))
        for lo, (y0, x0, ay, ax) in zip(range(0, n_roi, CHUNK), chunks):
            n, ly, lx = ay.shape[0], ay.shape[2], ax.shape[3]
            gc = g[lo : lo + n]
            dpart = np.zeros((2, n, p * c, lx))
            for s, (dy, dx) in enumerate(_SAMPLES):
                dpart[dy] += (gc * (arg[lo : lo + n] == s)) @ ax[:, dx]
            dpart = dpart.reshape(2, n, p, c, lx).transpose(1, 0, 2, 4, 3).reshape(n, 2 * p, lx * c)
            if (ly, lx) == (h, w):
                dmap += ay.transpose(2, 0, 1).reshape(h, n * 2 * p) @ dpart.reshape(n * 2 * p, w * c)
                continue
            dwin = ay.transpose(0, 2, 1) @ dpart
            # windows of one chunk may overlap, so add them one at a time
            for r, (y, x) in enumerate(zip(y0, x0)):
                dmap[y : y + ly, x * c : (x + lx) * c] += dwin[r]
        _accum(feat, dmap.reshape(h, w, c).transpose(2, 0, 1))

    result = out.reshape(n_roi, p, c, p).transpose(0, 2, 1, 3)
    return Tensor(result, _parents=(feature,), _backward=bwd)
