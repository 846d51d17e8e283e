"""In-memory spans and counters recorded around calls into attnmask.

The benchmark measures the package from outside: it never edits `src/`.
A `Probe` names a function (``"attnmask.model:propose"``) or a method
(``"attnmask.tensor:Tensor.backward"``); `install` swaps a timing wrapper
in for it in every loaded attnmask module that holds a reference to it,
because callers bind names at import (``from .model import propose`` in
`train`) and a wrapper only at the definition site would miss their calls.

A span is ``[name, start, end, parent, attr]`` with times from
``perf_counter`` in seconds and ``parent`` the index of the enclosing span
(-1 at top level). A count-only probe records no span; it bumps a counter
keyed by the name of the innermost open span, so that ratios such as
"decoded anchors per proposal call" are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, ATTR = range(5)
TOP = "<top>"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attr=None) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]!r} closed out of order")
        self._stack.pop()
        span = self.spans[idx]
        span[END] = self.clock()
        span[ATTR] = attr

    def cut(self, name: str) -> None:
        """Close the innermost span (which must be `name`) and open a new
        one of the same name: splits a loop body into per-iteration spans."""
        if self._stack and self.spans[self._stack[-1]][NAME] == name:
            self.close(self._stack[-1])
        self.open(name)

    def close_open(self, name: str, rename: str | None = None) -> None:
        """Close the innermost span if it is `name`, optionally renaming it
        (the tail of a cut loop after its last iteration)."""
        if self._stack and self.spans[self._stack[-1]][NAME] == name:
            if rename is not None:
                self.spans[self._stack[-1]][NAME] = rename
            self.close(self._stack[-1])

    def count(self, name: str) -> None:
        where = self.spans[self._stack[-1]][NAME] if self._stack else TOP
        self.counts[(name, where)] += 1

    def to_json(self) -> dict:
        names = sorted({s[NAME] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "names": names,
            "spans": [
                [ids[s[NAME]], round((s[START] - t0) * 1e6, 3), round((s[END] - t0) * 1e6, 3),
                 s[PARENT], s[ATTR]]
                for s in self.spans
            ],
            "counts": [[name, where, n] for (name, where), n in sorted(self.counts.items())],
        }


# -- span arithmetic -------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span never overlap (calls nest on one thread), so the
    covered part is the sum of the children's durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


@dataclass
class SpanTable:
    """Per-name totals of one traced pass."""

    calls: Counter
    inclusive: Counter
    self_time: Counter

    @classmethod
    def of(cls, spans: list[list]) -> "SpanTable":
        calls, inclusive, self_time = Counter(), Counter(), Counter()
        for s, st in zip(spans, self_times(spans)):
            calls[s[NAME]] += 1
            inclusive[s[NAME]] += s[END] - s[START]
            self_time[s[NAME]] += st
        return cls(calls=calls, inclusive=inclusive, self_time=self_time)


# -- probes ----------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One function or method to wrap.

    target: ``"package.module:attr"`` or ``"package.module:Class.method"``.
    span:   span name, or None for a count-only probe (counter `count`).
    attr:   optional ``(args, kwargs, result) -> value`` stored on the span.
    wrap_args: optional ``(tracer, args, kwargs) -> (args, kwargs)`` applied
               before the call, e.g. to count calls of a callback argument.
    """

    target: str
    span: str | None = None
    count: str | None = None
    attr: Callable | None = None
    wrap_args: Callable | None = None


def _resolve(target: str):
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrapper(probe: Probe, fn, tracer: Tracer):
    if probe.span is None:
        name = probe.count

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    span, attr, wrap_args = probe.span, probe.attr, probe.wrap_args

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if wrap_args is not None:
            args, kwargs = wrap_args(tracer, args, kwargs)
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx)
            raise
        tracer.close(idx, attr(args, kwargs, result) if attr is not None else None)
        return result

    return timed


class Installed:
    """Undo record of `install`; use as a context manager or call `remove`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


PACKAGE = "attnmask"


def install(probes, tracer: Tracer) -> Installed:
    """Wrap every probe target wherever a loaded attnmask module binds it."""
    done = Installed()
    try:
        for probe in probes:
            owner, name = _resolve(probe.target)
            original = getattr(owner, name)
            wrapped = _wrapper(probe, original, tracer)
            if isinstance(owner, type):
                done.patch(owner, name, wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr_name, value in list(vars(module).items()):
                    if value is original:
                        done.patch(module, attr_name, wrapped)
    except BaseException:
        done.remove()
        raise
    return done
