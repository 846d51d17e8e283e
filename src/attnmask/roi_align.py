"""Quantization-free region feature extraction via bilinear sampling.

Regions are (R, 4) corner rows (x1, y1, x2, y2). A region's box is mapped
into feature coordinates by dividing by the feature stride -- never
rounded -- and split into a p x p grid of bins. Each bin is read at its
four quarter points, every sample bilinearly interpolated from the four
surrounding cells (cell centers sit at integer + 0.5, reads outside the
map return 0), and the bin keeps the max of its four samples, the one
pooling rule of the detector. The backward follows the first-winner tie
rule used by the rest of the tensor core; the winner of each bin and the
interpolation matrices are kept only when the map needs a gradient, so
inside `no_grad` the forward computes the maxima alone.

Bilinear sampling is separable. Along each axis a region's 2p quarter
points read the map through a (2p, L) interpolation matrix over all L
cells of that axis, so its 2p x 2p sample grid of a (C, H, W) map F is
Ay F Ax^T and its gradient is Ay^T G Ax. Per chunk of regions the forward
is one product of the stacked Ay with the whole map, and the backward one
product of their transpose with the stacked gradients. Every region reads
the map the same way, so its pooled values do not depend on the other
regions of its chunk.

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

# regions per batched product; bounds the four (R, p*C, p) sample grids
CHUNK = 16


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
    """
    v = coords - 0.5
    i0 = np.floor(v)[..., None]
    f = v[..., None] - i0
    cells = np.arange(n)
    return (cells == i0) * (1.0 - f) + (cells == i0 + 1.0) * f


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
    # channels last, (H, W*C): one product reads every channel of a row
    fmap = feature.data[0].transpose(1, 2, 0).reshape(h, w * c)

    n_roi = boxes.shape[0]
    out = np.empty((n_roi, p * c, p))
    # which sample won each bin: only a backward reads it
    arg = np.zeros((n_roi, p * c, p), dtype=np.int8) if feature.requires_grad else None
    chunks = []
    for lo in range(0, n_roi, CHUNK):
        n = min(CHUNK, n_roi - lo)
        ay = bilinear_weights(ys[lo : lo + n], h)
        ax = bilinear_weights(xs[lo : lo + n], w).reshape(n, 2, p, w)
        if arg is not None:
            chunks.append((ay, ax))
        # rows (half, region, bin row) x cols (channel, x): (2, n, p*C, W)
        part = ay.reshape(n * 2 * p, h) @ fmap
        part = part.reshape(n, 2, p, w, c).transpose(1, 0, 2, 4, 3).reshape(2, n, p * c, w)
        # one (n, p*C, p) grid per sample: (bin row, channel, bin col)
        cols = [part @ ax[:, dx].transpose(0, 2, 1) for dx in (0, 1)]
        samples = [cols[dx][dy] for dy, dx in _SAMPLES]
        best = samples[0]
        for s in range(1, 4):
            if arg is not None:
                # first winner on ties; arithmetic instead of masked writes,
                # which are several times slower on a random mask
                arg[lo : lo + n] += (samples[s] > best) * (s - arg[lo : lo + n])
            best = np.maximum(best, samples[s])
        out[lo : lo + n] = best

    result = out.reshape(n_roi, p, c, p).transpose(0, 2, 1, 3)
    if arg is None:
        return Tensor(result)

    def bwd(g, feat=feature, chunks=chunks, arg=arg):
        g = g.transpose(0, 2, 1, 3).reshape(n_roi, p * c, p)
        dmap = np.zeros((h, w * c))
        for lo, (ay, ax) in zip(range(0, n_roi, CHUNK), chunks):
            n = ay.shape[0]
            gc = g[lo : lo + n]
            dpart = np.zeros((2, n, p * c, w))
            for s, (dy, dx) in enumerate(_SAMPLES):
                dpart[dy] += (gc * (arg[lo : lo + n] == s)) @ ax[:, dx]
            dpart = dpart.reshape(2, n, p, c, w).transpose(1, 0, 2, 4, 3).reshape(n * 2 * p, w * c)
            dmap += ay.transpose(2, 0, 1).reshape(h, n * 2 * p) @ dpart
        _accum(feat, dmap.reshape(h, w, c).transpose(2, 0, 1)[None])

    return Tensor(result, _parents=(feature,), _backward=bwd)
