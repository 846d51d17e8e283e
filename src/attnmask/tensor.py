"""Dense float64 tensors with a taped reverse-mode gradient pass.

Shapes follow channel-first conventions: feature maps are (C, H, W) and
flattened predictions are (N,) or (N, K). The op set is intentionally
small -- exactly what the attention blocks, pyramid fusion and detector
heads need. Reductions go through numpy, whose pairwise summation keeps
repeat runs bit-identical on one platform.

Every op that produces a Tensor records its inputs and a backward
closure; calling ``backward()`` on a scalar output walks the tape once
in reverse topological order and accumulates gradients on every tensor
created with ``requires_grad=True``. Max-style reductions send the
gradient to the first maximal element in scan order.

Elementwise multiplication broadcasts only the two gating patterns the
attention blocks need, (C,1,1)x(C,H,W) and (1,H,W)x(C,H,W); anything
else must be shape-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GradCheckReport",
    "sigmoid",
    "relu",
    "log",
    "clamp",
    "smooth_l1",
    "conv2d",
    "conv1d",
    "linear",
    "pool",
    "max_pool2d",
    "upsample_nearest",
    "concat",
    "gather_rows",
    "split_rows",
    "log_softmax",
    "grad_check",
]


class Tensor:
    """A dense float64 array plus the tape hooks for reverse-mode autodiff.

    The wrapped array is adopted, not copied; treat a Tensor as immutable
    once constructed. Independent graphs may be evaluated concurrently,
    but a single graph's build/forward/backward belongs to one thread.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor holds non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = tuple(_parents)
        self._backward = _backward

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff -------------------------------------------------------------

    def backward(self) -> None:
        """Propagate gradients from this scalar through the recorded tape."""
        if self.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            other = Tensor(other)
        if isinstance(other, Tensor):
            if self.shape != other.shape:
                raise ValueError(f"add shape mismatch: {self.shape} vs {other.shape}")

            def bwd(g, a=self, b=other):
                _accum(a, g)
                _accum(b, g)

            return Tensor(self.data + other.data, _parents=(self, other), _backward=bwd)
        other = float(other)

        def bwd(g, a=self):
            _accum(a, g)

        return Tensor(self.data + other, _parents=(self,), _backward=bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(g, a=self):
            _accum(a, -g)

        return Tensor(-self.data, _parents=(self,), _backward=bwd)

    def __sub__(self, other):
        if isinstance(other, (Tensor, np.ndarray)):
            other = other if isinstance(other, Tensor) else Tensor(other)
            return self + (-other)
        return self + (-float(other))

    def __rsub__(self, other):
        if isinstance(other, np.ndarray):
            return (-self) + Tensor(other)
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _check_mul_shapes(self.shape, other.shape)

            def bwd(g, a=self, b=other):
                _accum(a, _reduce_to(g * b.data, a.shape))
                _accum(b, _reduce_to(g * a.data, b.shape))

            return Tensor(self.data * other.data, _parents=(self, other), _backward=bwd)
        if isinstance(other, np.ndarray):
            return self * Tensor(other)
        other = float(other)

        def bwd(g, a=self, c=other):
            _accum(a, g * c)

        return Tensor(self.data * other, _parents=(self,), _backward=bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1.0 / float(other))

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def bwd(g, a=self):
            _accum(a, g.reshape(a.shape))

        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=bwd)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))

        def bwd(g, a=self, inv=inv):
            _accum(a, g.transpose(inv))

        return Tensor(self.data.transpose(axes), _parents=(self,), _backward=bwd)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        if axis is None:
            def bwd(g, a=self):
                _accum(a, np.broadcast_to(g, a.shape).copy())

            return Tensor(self.data.sum(), _parents=(self,), _backward=bwd)

        def bwd(g, a=self, axis=axis):
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

        return Tensor(self.data.sum(axis=axis), _parents=(self,), _backward=bwd)

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.size)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise AssertionError(f"gradient shape {g.shape} != value shape {t.data.shape}")
    t.grad = g if t.grad is None else t.grad + g


def _check_mul_shapes(a: tuple[int, ...], b: tuple[int, ...]) -> None:
    if a == b:
        return
    if len(a) == 3 and len(b) == 3:
        for small, big in ((a, b), (b, a)):
            if small == (big[0], 1, 1):  # channel gate
                return
            if small == (1, big[1], big[2]):  # spatial gate
                return
    raise ValueError(f"unsupported multiply broadcast: {a} vs {b}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


# -- elementwise ops ---------------------------------------------------------


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function, exp(x)/(exp(x)+1)."""
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)

    def bwd(g, a=x, s=out):
        _accum(a, g * s * (1.0 - s))

    return Tensor(out, _parents=(x,), _backward=bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g, a=x, m=mask):
        _accum(a, g * m)

    return Tensor(np.where(mask, x.data, 0.0), _parents=(x,), _backward=bwd)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise ValueError("log requires strictly positive input")

    def bwd(g, a=x):
        _accum(a, g / a.data)

    return Tensor(np.log(x.data), _parents=(x,), _backward=bwd)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient passes only where unclipped."""
    inside = (x.data >= lo) & (x.data <= hi)

    def bwd(g, a=x, m=inside):
        _accum(a, g * m)

    return Tensor(np.clip(x.data, lo, hi), _parents=(x,), _backward=bwd)


def smooth_l1(x: Tensor) -> Tensor:
    """Elementwise 0.5*x^2 inside |x| < 1, |x| - 0.5 outside."""
    d = x.data
    quad = np.abs(d) < 1.0
    out = np.where(quad, 0.5 * d * d, np.abs(d) - 0.5)

    def bwd(g, a=x, q=quad):
        _accum(a, g * np.where(q, a.data, np.sign(a.data)))

    return Tensor(out, _parents=(x,), _backward=bwd)


# -- convolution / pooling ---------------------------------------------------


def _conv_out_extent(n: int, k: int, stride: int, padding: int) -> int:
    out = (n + 2 * padding - k) // stride + 1
    if out < 1:
        raise ValueError(f"conv output extent < 1 (n={n}, k={k}, stride={stride}, pad={padding})")
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation on a (C,H,W) map with an (O,C,k,k) kernel.

    Zero padding; output extent floor((n + 2*pad - k)/stride) + 1 per axis.
    Kernel sizes are restricted to the 1/3/7 the model actually uses.
    """
    cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if kh != kw or kh not in (1, 3, 7):
        raise ValueError(f"unsupported kernel size {kh}x{kw}")
    if cin_w != cin:
        raise ValueError(f"channel mismatch: input has {cin}, kernel expects {cin_w}")
    k = kh
    ho = _conv_out_extent(h, k, stride, padding)
    wo = _conv_out_extent(wd, k, stride, padding)

    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((cin, k, k, ho, wo))
    for di in range(k):
        for dj in range(k):
            cols[:, di, dj] = xp[:, di : di + stride * ho : stride, dj : dj + stride * wo : stride]
    cols2 = cols.reshape(cin * k * k, ho * wo)
    wmat = w.data.reshape(cout, cin * k * k)
    out = wmat @ cols2
    if b is not None:
        if b.shape != (cout,):
            raise ValueError(f"bias shape {b.shape} != ({cout},)")
        out = out + b.data[:, None]
    out = out.reshape(cout, ho, wo)

    parents = (x, w) if b is None else (x, w, b)

    def bwd(g, x=x, w=w, b=b, cols2=cols2, wmat=wmat, shape=(cin, h, wd)):
        gm = g.reshape(cout, -1)
        _accum(w, (gm @ cols2.T).reshape(w.shape))
        if b is not None:
            _accum(b, gm.sum(axis=1))
        if x.requires_grad:
            dcols = (wmat.T @ gm).reshape(cin, k, k, ho, wo)
            dxp = np.zeros((cin, h + 2 * padding, wd + 2 * padding))
            for di in range(k):
                for dj in range(k):
                    dxp[:, di : di + stride * ho : stride, dj : dj + stride * wo : stride] += dcols[:, di, dj]
            if padding:
                dxp = dxp[:, padding : padding + h, padding : padding + wd]
            _accum(x, dxp)

    return Tensor(out, _parents=parents, _backward=bwd)


def conv1d(x: Tensor, w: Tensor, padding: int) -> Tensor:
    """1-D cross-correlation along a (C,) vector with zero padding."""
    (c,) = x.shape
    (k,) = w.shape
    if k % 2 == 0:
        raise ValueError("conv1d kernel must be odd")
    xp = np.zeros(c + 2 * padding)
    xp[padding : padding + c] = x.data
    out = np.correlate(xp, w.data, mode="valid")
    if out.shape != (c,):
        raise ValueError(f"conv1d padding {padding} does not preserve length {c}")

    def bwd(g, x=x, w=w, xp=xp):
        _accum(w, np.correlate(xp, g, mode="valid"))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for j in range(k):
                dxp[j : j + c] += g * w.data[j]
            _accum(x, dxp[padding : padding + c])

    return Tensor(out, _parents=(x, w), _backward=bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T + b for x of shape (in,) or (N, in) and w of shape (out, in)."""
    if x.ndim not in (1, 2) or w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ValueError(f"linear shape mismatch: x {x.shape}, w {w.shape}")
    out = x.data @ w.data.T
    if b is not None:
        out = out + b.data
    parents = (x, w) if b is None else (x, w, b)

    def bwd(g, x=x, w=w, b=b):
        if x.ndim == 1:
            _accum(w, np.outer(g, x.data))
            if b is not None:
                _accum(b, g)
            _accum(x, g @ w.data)
        else:
            _accum(w, g.T @ x.data)
            if b is not None:
                _accum(b, g.sum(axis=0))
            _accum(x, g @ w.data)

    return Tensor(out, _parents=parents, _backward=bwd)


def pool(x: Tensor, axis: str, mode: str) -> Tensor:
    """Global pooling on a (C,H,W) map.

    axis="spatial" collapses H,W to give (C,1,1); axis="channel" collapses C
    to give (1,H,W). mode is "avg" or "max"; the max backward sends the
    gradient to the first maximal element in scan order.
    """
    if x.ndim != 3:
        raise ValueError("pool expects a (C,H,W) tensor")
    c, h, w = x.shape
    if axis == "spatial":
        flat = x.data.reshape(c, h * w)
        if mode == "avg":
            out = flat.mean(axis=1).reshape(c, 1, 1)

            def bwd(g, a=x):
                _accum(a, np.broadcast_to(g / (h * w), a.shape).copy())

        elif mode == "max":
            arg = flat.argmax(axis=1)
            out = flat[np.arange(c), arg].reshape(c, 1, 1)

            def bwd(g, a=x, arg=arg):
                d = np.zeros((c, h * w))
                d[np.arange(c), arg] = g.reshape(c)
                _accum(a, d.reshape(a.shape))

        else:
            raise ValueError(f"unknown mode {mode!r}")
    elif axis == "channel":
        if mode == "avg":
            out = x.data.mean(axis=0, keepdims=True)

            def bwd(g, a=x):
                _accum(a, np.broadcast_to(g / c, a.shape).copy())

        elif mode == "max":
            arg = x.data.argmax(axis=0)
            out = np.take_along_axis(x.data, arg[None], axis=0)

            def bwd(g, a=x, arg=arg):
                d = np.zeros_like(a.data)
                np.put_along_axis(d, arg[None], g, axis=0)
                _accum(a, d)

        else:
            raise ValueError(f"unknown mode {mode!r}")
    else:
        raise ValueError(f"unknown axis {axis!r}")
    return Tensor(out, _parents=(x,), _backward=bwd)


def max_pool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Windowed max pooling on (C,H,W); ties go to the first cell in scan order."""
    c, h, w = x.shape
    ho = _conv_out_extent(h, kernel, stride, padding)
    wo = _conv_out_extent(w, kernel, stride, padding)
    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)), constant_values=-np.inf)
    wins = np.empty((c, kernel * kernel, ho, wo))
    for di in range(kernel):
        for dj in range(kernel):
            wins[:, di * kernel + dj] = xp[:, di : di + stride * ho : stride, dj : dj + stride * wo : stride]
    arg = wins.argmax(axis=1)
    out = np.take_along_axis(wins, arg[:, None], axis=1)[:, 0]

    def bwd(g, a=x, arg=arg):
        dxp = np.zeros((c, h + 2 * padding, w + 2 * padding))
        ii, jj = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
        for ch in range(c):
            rows = ii * stride + arg[ch] // kernel
            cols = jj * stride + arg[ch] % kernel
            np.add.at(dxp[ch], (rows, cols), g[ch])
        if padding:
            dxp = dxp[:, padding : padding + h, padding : padding + w]
        _accum(a, dxp)

    return Tensor(out, _parents=(x,), _backward=bwd)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each pixel of a (C,H,W) map into a factor x factor block."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        out = x.data

        def bwd(g, a=x):
            _accum(a, g)

        return Tensor(out, _parents=(x,), _backward=bwd)
    c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, factor, axis=1), factor, axis=2)

    def bwd(g, a=x, f=factor):
        _accum(a, g.reshape(c, h, f, w, f).sum(axis=(2, 4)))

    return Tensor(out, _parents=(x,), _backward=bwd)


# -- structural ops ----------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat of no tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g, parts=tuple(tensors), offsets=offsets, axis=axis):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return Tensor(out, _parents=tuple(tensors), _backward=bwd)


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a (N, ...) tensor; duplicate indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    out = x.data[idx]

    def bwd(g, a=x, idx=idx):
        d = np.zeros_like(a.data)
        np.add.at(d, idx, g)
        _accum(a, d)

    return Tensor(out, _parents=(x,), _backward=bwd)


def split_rows(x: Tensor) -> list[Tensor]:
    """The N rows of a (N, ...) tensor as N tensors.

    The rows' gradients are written into one shared (N, ...) buffer that
    reaches x once, so the backward costs O(x.size) in all, where a
    gather_rows per row would fill a zero array of x's size for each row.
    """
    hub = Tensor(x.data, _parents=(x,), _backward=lambda g, a=x: _accum(a, g))

    def bwd(g, i):
        if hub.grad is None:
            hub.grad = np.zeros_like(hub.data)
        hub.grad[i] += g

    return [
        Tensor(row, _parents=(hub,), _backward=lambda g, i=i: bwd(g, i)) for i, row in enumerate(x.data)
    ]


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax along the last axis of a (K,) or (N,K) tensor."""
    d = x.data
    m = d.max(axis=-1, keepdims=True)
    z = d - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    soft = np.exp(out)

    def bwd(g, a=x, soft=soft):
        _accum(a, g - soft * g.sum(axis=-1, keepdims=True))

    return Tensor(out, _parents=(x,), _backward=bwd)


# -- gradient checking ---------------------------------------------------------


@dataclass
class GradCheckReport:
    """Worst-case disagreement between taped and finite-difference gradients.

    Relative error per element is |a - n| / max(|a|, |n|, 1e-8).
    """

    max_rel_err: float
    worst_index: tuple[int, ...]
    analytic: float
    numeric: float

    def ok(self, tol: float) -> bool:
        return self.max_rel_err < tol


def grad_check(fn: Callable[[Tensor], Tensor], x0, eps: float = 1e-4) -> GradCheckReport:
    """Compare fn's reverse-mode gradient at x0 against central differences.

    fn must map a Tensor to a scalar Tensor and may close over other fixed
    tensors; only the gradient with respect to x0 is checked.
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-6, 1e-3]")
    base = np.array(x0.data if isinstance(x0, Tensor) else x0, dtype=np.float64)
    leaf = Tensor(base.copy(), requires_grad=True)
    out = fn(leaf)
    if out.size != 1:
        raise ValueError("fn must produce a scalar")
    out.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(base)

    numeric = np.zeros_like(base)
    flat = base.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(Tensor(base)).item()
        flat[i] = orig - eps
        lo = fn(Tensor(base)).item()
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * eps)

    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    flat_idx = int(rel.argmax())
    idx = np.unravel_index(flat_idx, base.shape) if base.ndim else ()
    return GradCheckReport(
        max_rel_err=float(rel.max()),
        worst_index=tuple(int(i) for i in idx),
        analytic=float(analytic.reshape(-1)[flat_idx]),
        numeric=float(numeric.reshape(-1)[flat_idx]),
    )
