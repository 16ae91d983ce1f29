"""Span recorder for the traced run, installed from outside the package.

Each public function is wrapped at every module attribute that binds it:
``bergman`` and ``bargmann`` import ``eval_pfq`` by name, so a wrapper on
``hypergeo.eval_pfq`` alone would miss every kernel call.  A span carries
name, start, end, parent span and op id; spans are kept in memory and
written out when the pass ends.  A call made while a span of the same name is
innermost opens no new span, so ``kernel_closed -> kernel_closed_from_inner
-> kernel_closed_detail`` and the recursion of ``enumerate_indices`` each
give one span.  The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from holospaces import (
    asymptotics, bargmann, bergman, errors, hypergeo, multiindex, quadrature, taylor,
)

# (module, attribute, span name) for module-level functions.
_FUNCTIONS = [
    (hypergeo, "eval_pfq", "hypergeo.eval_pfq"),
    (hypergeo, "gamma_ratio", "hypergeo.gamma_ratio"),
    (asymptotics, "convergence_sweep", "asymptotics.convergence_sweep"),
    (quadrature, "evaluate_series", "quadrature.evaluate_series"),
    (quadrature, "integrate_ball", "quadrature.integrate"),
    (quadrature, "integrate_gaussian", "quadrature.integrate"),
    (quadrature, "integrate_sphere", "quadrature.integrate"),
    (quadrature, "sobolev_inner_quadrature", "quadrature.sobolev_inner"),
    (multiindex, "enumerate_indices", "multiindex.enumerate_indices"),
]
for _module in (bergman, bargmann):
    _family = _module.__name__.rsplit(".", 1)[1]
    _FUNCTIONS.append((_module, "monomial_norm_sq", f"{_family}.monomial_norm_sq"))
    for _link in ("kernel_closed", "kernel_closed_from_inner", "kernel_closed_detail"):
        _FUNCTIONS.append((_module, _link, f"{_family}.kernel_closed"))
    for _link in ("kernel_series", "kernel_series_from_inner", "kernel_series_with_tail"):
        _FUNCTIONS.append((_module, _link, f"{_family}.kernel_series"))


# Wrapped at the class: the two grid constructors and TaylorSeries.derivative.
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in _FUNCTIONS]
                                 + ["quadrature.grid_build", "taylor.derivative"]))


def _grid_arg(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, quadrature.QuadratureGrid):
            return value
    raise TypeError("integration call without a QuadratureGrid argument")


def _grid_bytes(grid) -> int:
    """Bytes held by the grid's arrays, computed from their sizes."""
    return sum(v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray))


class Recorder:
    """In-memory spans plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []  # (name, span index) of the open spans
        self.counts = defaultdict(int)
        self.op_id = 0

    def wrap(self, name, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            index = len(recorder.spans)
            span = [name, 0.0, 0.0, stack[-1][1] if stack else -1, recorder.op_id]
            recorder.spans.append(span)
            stack.append((name, index))
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors.NonconvergenceError as exc:
                if name == "hypergeo.eval_pfq":
                    recorder.counts["hypergeo.eval_pfq.terms"] += exc.partial.terms_used
                    recorder.counts["hypergeo.eval_pfq.nonconvergence"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            recorder._count(name, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, args, kwargs, result):
        if name == "hypergeo.eval_pfq":
            self.counts["hypergeo.eval_pfq.terms"] += result.terms_used
        elif name == "quadrature.grid_build":
            self.counts["quadrature.grid_build.points"] += result.points.shape[0]
            self.counts["quadrature.grid_build.bytes"] += _grid_bytes(result)
        elif name == "quadrature.integrate":
            self.counts["quadrature.integrate.points"] += _grid_arg(args, kwargs).points.shape[0]

    def install(self):
        """Wrap every binding of each traced function in the loaded package."""
        modules = [m for n, m in sys.modules.items() if n == "holospaces" or n.startswith("holospaces.")]
        for module, attr, name in _FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        grid = quadrature.QuadratureGrid
        for attr in ("for_ball", "for_gaussian"):
            setattr(grid, attr, classmethod(self.wrap("quadrature.grid_build", vars(grid)[attr].__func__)))
        taylor.TaylorSeries.derivative = self.wrap("taylor.derivative", taylor.TaylorSeries.derivative)

    def metrics(self) -> dict:
        """calls and self_s per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - children
        for key in ("hypergeo.eval_pfq.terms", "hypergeo.eval_pfq.nonconvergence",
                    "quadrature.grid_build.points", "quadrature.grid_build.bytes",
                    "quadrature.integrate.points"):
            out[key] = self.counts[key]
        return out

    def write(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
