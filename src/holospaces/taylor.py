"""Polynomial Taylor series in several complex variables.

A series is a sparse map from exponent tuples to complex coefficients; all
operations here are exact on that finite data.  Zero coefficients are pruned
on construction, and NaN or infinite ones rejected, so equality of series is
plain map equality.  The terms are stored in the canonical order (ascending
degree, then lexicographically descending parts), sorted once on
construction, so every sum over ``coefficients.items()`` runs in that order
and results are bit-reproducible.
"""

from __future__ import annotations

import cmath
import math
from types import MappingProxyType

from . import multiindex as mi
from ._record import Record, set_field


def as_point(z, dimension: int | None = None) -> tuple[complex, ...]:
    """Coerce to a tuple of finite complex components."""
    pt = tuple(complex(c) for c in z)
    if len(pt) < 1:
        raise ValueError("point must have at least one component")
    if dimension is not None and len(pt) != dimension:
        raise ValueError(f"dimension mismatch: expected {dimension}, got {len(pt)}")
    if any(not cmath.isfinite(c) for c in pt):
        raise ValueError(f"point has non-finite components: {pt}")
    return pt


def inner(z, w) -> complex:
    """Hermitian inner product sum_j z_j * conj(w_j)."""
    zt = as_point(z)
    return point_inner(zt, as_point(w, len(zt)))


def point_inner(zt: tuple, wt: tuple) -> complex:
    """``inner`` of two points already through ``as_point``, of one length."""
    return sum((zj * wj.conjugate() for zj, wj in zip(zt, wt)), 0j)


def vector_norm(z) -> float:
    """Euclidean norm |z| = sqrt(<z, z>); inf only when |z| exceeds the float range."""
    pt = as_point(z)
    try:
        sq = sum(abs(c) ** 2 for c in pt)
    except OverflowError:
        sq = math.inf
    if sq < math.inf:
        return math.sqrt(sq)
    # |c|^2 leaves the float range (components beyond about 1e154): hypot
    # scales instead of squaring
    return math.hypot(*(x for c in pt for x in (c.real, c.imag)))


def canonical_order(keys):
    """Sort exponent tuples by degree, then lexicographically descending."""
    return sorted(keys, key=lambda p: (sum(p), tuple(-x for x in p)))


class TaylorSeries(Record):
    """Sparse polynomial sum_p a_p z^p in ``dimension`` complex variables.

    Unhashable, as its coefficient dict is.
    """

    _fields = ("dimension", "coefficients")

    def __init__(self, dimension: int, coefficients: dict = MappingProxyType({})):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        clean = {}
        for p, a in coefficients.items():
            q = mi.as_multiindex(p)
            if len(q) != dimension:
                raise ValueError(
                    f"index {q} has length {len(q)}, series dimension is {dimension}"
                )
            a = complex(a)
            if not cmath.isfinite(a):
                raise ValueError(f"coefficient of index {q} is not finite: {a}")
            if a != 0:
                clean[q] = a
        set_field(self, "dimension", dimension)
        set_field(self, "coefficients", {q: clean[q] for q in canonical_order(clean)})

    @property
    def max_degree(self) -> int:
        """Largest total degree with a nonzero coefficient; -1 for the zero series."""
        if not self.coefficients:
            return -1
        return max(sum(p) for p in self.coefficients)

    def evaluate(self, z) -> complex:
        """Value sum_p a_p z^p, accumulated in canonical index order."""
        pt = as_point(z, self.dimension)
        total = 0j
        for p, term in self.coefficients.items():
            for zj, pj in zip(pt, p):
                term *= zj**pj
            total += term
        return total

    def split(self, m: int) -> tuple[TaylorSeries, TaylorSeries]:
        """Degree split: terms with |p| < m and terms with |p| >= m."""
        if m < 0:
            raise ValueError(f"split order must be >= 0, got {m}")
        low = {p: a for p, a in self.coefficients.items() if sum(p) < m}
        high = {p: a for p, a in self.coefficients.items() if sum(p) >= m}
        return TaylorSeries(self.dimension, low), TaylorSeries(self.dimension, high)

    def derivative(self, q) -> TaylorSeries:
        """Mixed partial of multi-order q; term a_p z^p maps to a_p p!/(p-q)! z^(p-q).

        Terms with any exponent below q vanish.  A coefficient beyond the
        float range is a ValueError, as in the constructor.
        """
        qt = mi.as_multiindex(q)
        if len(qt) != self.dimension:
            raise ValueError(
                f"derivative order {qt} has length {len(qt)}, series dimension is {self.dimension}"
            )
        out = {}
        for p, a in self.coefficients.items():
            if any(pj < qj for pj, qj in zip(p, qt)):
                continue
            factor = 1
            for pj, qj in zip(p, qt):
                factor *= math.perm(pj, qj)
            key = tuple(pj - qj for pj, qj in zip(p, qt))
            try:
                out[key] = a * factor
            except OverflowError:  # the integer factor is beyond the float range
                raise ValueError(
                    f"coefficient of index {key} is not finite: {a} * p!/(p-q)! overflows"
                ) from None
        return TaylorSeries(self.dimension, out)


def monomial(p) -> TaylorSeries:
    """The series z^p with unit coefficient."""
    q = mi.as_multiindex(p)
    # one validated key with coefficient 1 meets every invariant of __init__
    series = object.__new__(TaylorSeries)
    set_field(series, "dimension", len(q))
    set_field(series, "coefficients", {q: 1.0 + 0j})
    return series


def zero(dimension: int) -> TaylorSeries:
    return TaylorSeries(dimension, {})
