"""Dense float64 tensors with a taped reverse-mode gradient pass.

Shapes follow channel-first conventions: every feature map is an
(N, C, H, W) batch, checked by the map ops in one place (each sample gets a
single map's arithmetic), and flattened predictions are (N,) or (N, K). The
op set is what the attention blocks, pyramid fusion and detector heads need;
the gates pool with `Tensor.mean`/`Tensor.max`, and ECA's 1-D correlation
is a `gather_rows` of zero-padded windows into `linear`.
`conv2d` and `max_pool2d` read their windows through one strided gather, and
`conv2d`'s input gradient is a correlation with the flipped kernel, so no op
scatters window by window. Reductions go through numpy, whose pairwise
summation keeps repeat runs bit-identical on one platform.

The activations pass over a map without selecting per cell: on a 2-core x86
host with NumPy 2.4, a select on a random mask (`np.where`, boolean
gathers) cost 8-12x a branch-free pass. `relu` is max(x, 0) plus 0.0,
which turns a kept -0.0 into +0.0, so it equals np.where(x > 0, x, 0.0)
bit for bit; only its backward builds the x > 0 mask. `sigmoid` takes
e = exp(-|x|) once and is 1/(1+e) where x >= 0 (-0.0 included) and
e/(1+e) where x < 0, the two stable formulas.

Every op that produces a Tensor records its inputs and a backward
closure; calling ``backward()`` on a scalar output walks the tape once
in reverse topological order and accumulates gradients on every tensor
created with ``requires_grad=True``; inside ``no_grad()`` ops record
nothing. `Tensor.max` and `max_pool2d` send the gradient to the first
maximal element in scan order.

`+` takes a Tensor or an array of the same shape, and there is no `-`
(negate, then add). Elementwise multiplication takes a float, or an array or
Tensor that broadcasts only in the two gating patterns the attention blocks
need, (N,C,1,1)x(N,C,H,W) and (N,1,H,W)x(N,C,H,W); anything else must be
shape-identical. An array operand is a constant, not a graph node. `reshape`
takes the new extents as separate arguments.

Every Tensor holds finite values. A Tensor built from an array, and the
output of every op that can overflow or take a non-finite constant (`+`,
`*`, `sum`, `mean`, `conv2d`, `linear`, `log`, `clamp`, `smooth_l1`,
`log_softmax`, and `roi_align` outside this module), is scanned and raises
FloatingPointError. The other ops hold it by construction and skip the scan:
`reshape`, `transpose`, `-x`, `Tensor.max`, `concat`, `gather_rows`,
`upsample_nearest` and `max_pool2d` (whose padding stays below its kernel,
so every window holds a map cell) select or negate finite inputs, `relu`
is max(x, 0), and `sigmoid` lies in [0, 1].
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "sigmoid",
    "relu",
    "log",
    "clamp",
    "smooth_l1",
    "conv2d",
    "linear",
    "max_pool2d",
    "upsample_nearest",
    "concat",
    "gather_rows",
    "log_softmax",
    "grad_check",
]


_recording = ContextVar("attnmask_recording", default=True)


@contextmanager
def no_grad():
    """A scope in which ops record no graph: outputs need no gradient, and what
    a backward would read is freed at once. Leaves made with requires_grad=True
    keep it. The flag is per thread; scopes nest and restore it on any exit."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """A dense float64 array plus the tape hooks for reverse-mode autodiff.

    The wrapped array is adopted, not copied; treat a Tensor as immutable
    once constructed. Independent graphs may be evaluated concurrently,
    but a single graph's build/forward/backward belongs to one thread.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None, _finite: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # _finite: the op's output is finite by construction (module docstring)
        if not (_finite or np.isfinite(arr).all()):
            raise FloatingPointError("tensor holds non-finite values")
        if not (_parents and _recording.get()):
            _parents, _backward = (), None
        for p in _parents:
            requires_grad = requires_grad or p.requires_grad
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
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

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        is_node = isinstance(other, Tensor)
        b = other.data if is_node else np.asarray(other, dtype=np.float64)
        if self.shape != b.shape:
            raise ValueError(f"add shape mismatch: {self.shape} vs {b.shape}")
        parents = (self, other) if is_node else (self,)

        def bwd(g, parents=parents):
            for p in parents:
                _accum(p, g)

        return Tensor(self.data + b, _parents=parents, _backward=bwd)

    def __neg__(self):
        def bwd(g, a=self):
            _accum(a, -g)

        return Tensor(-self.data, _parents=(self,), _backward=bwd, _finite=True)

    def __mul__(self, other):
        is_node = isinstance(other, Tensor)
        if is_node or isinstance(other, np.ndarray):
            b = other.data if is_node else np.asarray(other, dtype=np.float64)
            _check_mul_shapes(self.shape, b.shape)
        else:
            b = float(other)
        parents = (self, other) if is_node else (self,)

        def bwd(g, a=self, b=b):
            _accum(a, _reduce_to(g * b, a.shape))
            if is_node:
                _accum(other, _reduce_to(g * a.data, other.shape))

        return Tensor(self.data * b, _parents=parents, _backward=bwd)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        def bwd(g, a=self):
            _accum(a, g.reshape(a.shape))

        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=bwd, _finite=True)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))

        def bwd(g, a=self, inv=inv):
            _accum(a, g.transpose(inv))

        return Tensor(self.data.transpose(axes), _parents=(self,), _backward=bwd, _finite=True)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        def bwd(g, a=self, axis=axis):
            _accum(a, _spread(g, axis, a.shape))

        return Tensor(self.data.sum(axis=axis), _parents=(self,), _backward=bwd)

    def mean(self, axis: int | None = None) -> "Tensor":
        """sum(axis) * (1/n) as one node, with the same bits as those two ops."""
        c = 1.0 / (self.size if axis is None else self.shape[axis])

        def bwd(g, a=self, axis=axis, c=c):
            _accum(a, _spread(g * c, axis, a.shape))

        return Tensor(self.data.sum(axis=axis) * c, _parents=(self,), _backward=bwd)

    def max(self, axis: int) -> "Tensor":
        """Maximum along axis; the gradient goes to the first maximal element."""

        def bwd(g, a=self, axis=axis):
            d = np.zeros_like(a.data)
            arg = np.expand_dims(a.data.argmax(axis=axis), axis)
            np.put_along_axis(d, arg, np.expand_dims(g, axis), axis=axis)
            _accum(a, d)

        return Tensor(self.data.max(axis=axis), _parents=(self,), _backward=bwd, _finite=True)


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
    if len(a) == 4 and len(b) == 4:
        for small, big in ((a, b), (b, a)):
            if small == (*big[:2], 1, 1):  # channel gate
                return
            if small == (big[0], 1, *big[2:]):  # spatial gate
                return
    raise ValueError(f"unsupported multiply broadcast: {a} vs {b}")


def _spread(g: np.ndarray, axis: int | None, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of a sum over axis (None: all): g copied back across it."""
    return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy()


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


# -- elementwise ops ---------------------------------------------------------


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function: with e = exp(-|x|), 1/(1+e)
    where x >= 0 and e/(1+e) where x < 0. The numerator is max(e, x >= 0),
    1 where x >= 0 (there e <= 1) and e elsewhere, so no cell branches."""
    e = np.exp(-np.abs(x.data))
    out = np.maximum(e, x.data >= 0)
    out /= 1.0 + e

    def bwd(g, a=x, s=out):
        _accum(a, g * s * (1.0 - s))

    return Tensor(out, _parents=(x,), _backward=bwd, _finite=True)


def relu(x: Tensor) -> Tensor:
    """max(x, 0) with +0.0 for every zero: adding 0.0 turns a kept -0.0
    into +0.0. The backward passes the gradient where x > 0."""
    out = np.maximum(x.data, 0.0)
    out += 0.0

    def bwd(g, a=x):
        _accum(a, g * (a.data > 0))

    return Tensor(out, _parents=(x,), _backward=bwd, _finite=True)


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


def _map_shape(op: str, x: Tensor) -> tuple[int, int, int, int]:
    if x.ndim != 4:
        raise ValueError(f"{op} takes an (N,C,H,W) map, got shape {x.shape}")
    return x.shape


def _conv_out_extent(n: int, k: int, stride: int, padding: int) -> int:
    out = (n + 2 * padding - k) // stride + 1
    if out < 1:
        raise ValueError(f"conv output extent < 1 (n={n}, k={k}, stride={stride}, pad={padding})")
    return out


def _windows(xp: np.ndarray, k: int, stride: int, ho: int, wo: int, start: int = 0) -> np.ndarray:
    """The (M, k, k, ho, wo) windows of a contiguous (M, Hp, Wp) map, cornered at
    (start + i*stride, start + j*stride): a strided view made by the ndarray
    constructor (cheaper than as_strided), copied once unless already contiguous."""
    sm, sh, sw = xp.strides
    strides = (sm, sh, sw, sh * stride, sw * stride)
    return np.ascontiguousarray(np.ndarray((len(xp), k, k, ho, wo), xp.dtype, xp, start * (sh + sw), strides))


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of an (N,C,H,W) batch with an (O,C,k,k) kernel
    plus an (O,) bias; the weight and bias gradients sum over the batch.

    Zero padding; output extent floor((n + 2*pad - k)/stride) + 1 per axis.
    Kernel sizes are restricted to the 1/3/7 the model actually uses. The
    forward gathers the windows once and takes one product per sample; so
    does the input gradient, a stride-1 correlation of the dilated output
    gradient with the flipped, transposed kernel. A 1x1 stride-1 unpadded
    kernel skips both gathers: the map and the output gradient are their
    own columns.
    """
    n, cin, h, wd = _map_shape("conv2d", x)
    cout, cin_w, k, kw = w.shape
    if k != kw or k not in (1, 3, 7):
        raise ValueError(f"unsupported kernel size {k}x{kw}")
    if cin_w != cin:
        raise ValueError(f"channel mismatch: input has {cin}, kernel expects {cin_w}")
    if b.shape != (cout,):
        raise ValueError(f"bias shape {b.shape} != ({cout},)")
    ho = _conv_out_extent(h, k, stride, padding)
    wo = _conv_out_extent(wd, k, stride, padding)

    # a 1x1 stride-1 unpadded kernel reads the map itself as its columns
    pointwise = k == 1 and stride == 1 and padding == 0
    if pointwise:
        cols = np.ascontiguousarray(x.data).reshape(n, cin, h * wd)
    else:
        # the batch folds into the channel axis for the window gathers; the zero
        # border is written by hand: np.pad adds 30-60 us per call at these sizes
        xp = np.zeros((n * cin, h + 2 * padding, wd + 2 * padding))
        xp[:, padding : padding + h, padding : padding + wd] = x.data.reshape(n * cin, h, wd)
        cols = _windows(xp, k, stride, ho, wo).reshape(n, cin * k * k, ho * wo)
    out = w.data.reshape(cout, cin * k * k) @ cols
    out += b.data[:, None]

    def bwd(g, x=x, w=w, b=b, cols=cols):
        gm = g.reshape(n, cout, ho * wo)
        # one product per sample, summed over the batch in sample order
        _accum(w, (gm @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape))
        _accum(b, gm.sum(axis=-1).sum(axis=0))
        if not x.requires_grad:
            return
        if pointwise:
            gcols = np.ascontiguousarray(gm)
        else:
            # padded cell r gets the sum of g[i] * w[r - i*stride]: g dilated by the stride
            # at offset k-1, correlated with the flipped kernel from offset padding
            gz = np.zeros((n * cout, h + 2 * padding + k - 1, wd + 2 * padding + k - 1))
            gz[:, k - 1 :: stride, k - 1 :: stride][:, :ho, :wo] = g.reshape(n * cout, ho, wo)
            gcols = _windows(gz, k, 1, h, wd, start=padding).reshape(n, cout * k * k, h * wd)
        wflip = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * k * k)
        _accum(x, (wflip @ gcols).reshape(x.shape))

    return Tensor(out.reshape(n, cout, ho, wo), _parents=(x, w, b), _backward=bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for x of shape (N, in) and w of shape (out, in)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ValueError(f"linear shape mismatch: x {x.shape}, w {w.shape}")
    out = x.data @ w.data.T + b.data

    def bwd(g, x=x, w=w, b=b):
        _accum(w, g.T @ x.data)
        _accum(b, g.sum(axis=0))
        _accum(x, g @ w.data)

    return Tensor(out, _parents=(x, w, b), _backward=bwd)


def max_pool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Windowed max pooling of an (N,C,H,W) batch over a -inf border, through
    conv2d's window gather; ties go to the first cell in scan order, and a
    cell that wins several windows gets the sum of their gradients. Padding
    below the kernel size puts a map cell in every window."""
    n, c, h, w = _map_shape("max_pool2d", x)
    if padding >= kernel:
        raise ValueError(f"max_pool2d padding {padding} must be below the kernel size {kernel}")
    ho = _conv_out_extent(h, kernel, stride, padding)
    wo = _conv_out_extent(w, kernel, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    xp = np.full((n * c, hp, wp), -np.inf)
    xp[:, padding : padding + h, padding : padding + w] = x.data.reshape(n * c, h, w)
    wins = _windows(xp, kernel, stride, ho, wo).reshape(n * c, kernel * kernel, ho, wo)
    arg = wins.argmax(axis=1)
    out = np.take_along_axis(wins, arg[:, None], axis=1).reshape(n, c, ho, wo)

    def bwd(g, a=x, arg=arg):
        # one sum over the flat padded index of each window's winning cell
        rows = np.arange(ho)[:, None] * stride + arg // kernel
        flat = (np.arange(n * c)[:, None, None] * hp + rows) * wp + np.arange(wo) * stride + arg % kernel
        dxp = np.bincount(flat.ravel(), weights=g.ravel(), minlength=n * c * hp * wp).reshape(n, c, hp, wp)
        _accum(a, dxp[:, :, padding : padding + h, padding : padding + w])

    return Tensor(out, _parents=(x,), _backward=bwd, _finite=True)


def upsample_nearest(x: Tensor) -> Tensor:
    """Replicate each pixel of an (N,C,H,W) batch into a 2x2 block."""
    n, c, h, w = _map_shape("upsample_nearest", x)
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def bwd(g, a=x):
        _accum(a, g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    return Tensor(out, _parents=(x,), _backward=bwd, _finite=True)


# -- structural ops ----------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat of no tensors")
    parts = tuple(tensors)
    out = np.concatenate([t.data for t in parts], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in parts])

    def bwd(g, parts=parts, offsets=offsets, axis=axis):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return Tensor(out, _parents=parts, _backward=bwd, _finite=True)


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a (N, ...) tensor; duplicate indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    out = x.data[idx]

    def bwd(g, a=x, idx=idx):
        d = np.zeros_like(a.data)
        np.add.at(d, idx, g)
        _accum(a, d)

    return Tensor(out, _parents=(x,), _backward=bwd, _finite=True)


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


def grad_check(fn: Callable[[Tensor], Tensor], x0, eps: float = 1e-4) -> float:
    """Worst-case disagreement between fn's reverse-mode gradient at x0 and
    central differences: the largest per-element relative error
    |a - n| / max(|a|, |n|, 1e-8).

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
    return float(rel.max())
