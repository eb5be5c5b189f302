"""In-memory span recording around the library's public functions.

Wrappers are installed on every module attribute that holds a traced
function, because callers resolve names in their own module: `pipeline`
imports `snn_cell_step` by name, so both `snn.snn_cell_step` and
`pipeline.snn_cell_step` must be replaced. Spans stay in memory (compact
arrays) until `write` saves them at the end of a run.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction


class Tracer:
    """Records spans: name, start, end, parent span and operation id.

    `op_id` is set by the benchmark before each timed operation, so every
    span inside one operation (a fit epoch, one sequence) shares it.
    """

    def __init__(self):
        self.names: list = []
        self._name_index: dict = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.items = array("l")
        self.op_id = 0
        self._stack: list = []
        self._patches: list = []

    def _open(self, name: str, items: int) -> int:
        code = self._name_index.get(name)
        if code is None:
            code = self._name_index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.items.append(items)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, items: int = 1):
        idx = self._open(name, items)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, items=None):
        """Wrap fn; `name` is a span name or a callable (args, kwargs) -> name,
        `items` an optional callable (args, kwargs) -> work items."""

        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name,
                             items(args, kwargs) if items else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self, targets, package: str = "spikelstm") -> None:
        """Replace each target on every loaded module of `package` that
        holds it. targets: (owner, attribute, name, items) tuples, where
        owner is a module or a class."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for owner, attr, name, items in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, items)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def spans(self) -> dict:
        """Columns of every closed span, durations and self times in ns."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        return {
            "names": list(self.names),
            "name": list(self.name),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "items": list(self.items),
            "duration_ns": duration,
            "self_ns": self_times(self.start, self.end, self.parent),
        }

    def write(self, path: str) -> None:
        import numpy as np  # not at module level: run.py imports this module before pinning BLAS

        cols = self.spans()
        np.savez_compressed(
            path, names=np.array(cols.pop("names")),
            **{k: np.asarray(v, dtype=np.int64) for k, v in cols.items()})


def self_times(start, end, parent) -> list:
    """Span duration minus the part of its interval its children cover."""
    children: dict = {}
    for idx, par in enumerate(parent):
        if par >= 0:
            children.setdefault(par, []).append(idx)
    out = []
    for idx in range(len(start)):
        lo, hi = start[idx], end[idx]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(idx, ()), key=lambda c: start[c]):
            c_lo, c_hi = max(start[c], lo), min(end[c], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, p: float) -> int:
    """Nearest rank of percentile p among n samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int, candidates=TAIL_CANDIDATES):
    """Highest candidate percentile with at least ten samples beyond it
    (nearest-rank), or None when even the median has fewer."""
    for p in candidates:
        if n - _rank(n, p) >= 10:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]
