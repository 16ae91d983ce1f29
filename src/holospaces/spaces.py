"""The algorithms both space families share, written once.

In both families monomials are orthogonal, so norms and inner products are
weighted coefficient sums, and the reproducing kernel collapses to

    K(z, w) = prefactor * [ sum_{k<m} c_k x^k
                            + t^m/(m!)^2 * pFq(1, 1, *extra; m+1, m+1; x) ]

in t = <z, w>, with x = t/R^2 and extra = (alpha+n+1,) on the ball (3F2) and
x = nu t and no extra parameter on the plane (2F2).  The flat limit
alpha = nu R^2, R -> infinity, turns the first into the second.

A space supplies what differs (see ``Space``); everything here is generic.
``bergman`` and ``bargmann`` bind these functions under their own names.
"""

from __future__ import annotations

import cmath
import math
from typing import Protocol

from . import multiindex as mi
from .errors import DomainError
from .hypergeo import (
    ComplexCompensatedSum,
    CompensatedSum,
    HypergeometricSpec,
    SeriesResult,
    eval_pfq,
)
from .taylor import TaylorSeries, as_point, canonical_order, inner, vector_norm

DEFAULT_SERIES_DEGREE = 200


class Space(Protocol):
    """What a space family supplies to the shared algorithms."""

    n: int
    m: int
    radius: float  # domain radius; infinite on the plane
    pfq_extra: tuple  # pFq numerator parameters beyond (1, 1)
    series_tail_factor: float  # series tail estimate = |last term| * this

    def monomial_norm_sq(self, p) -> float: ...

    def kernel_prefactor(self) -> float: ...

    def series_argument(self, t: complex) -> complex:
        """The pFq argument x for a finite t = <z, w>; DomainError outside the domain."""


def _argument(space: Space, t) -> tuple[complex, complex]:
    t = complex(t)
    if not cmath.isfinite(t):
        raise DomainError(f"kernel argument t = {t} must be finite")
    return t, space.series_argument(t)


def _step(extra: tuple, x: complex):
    """Term recurrence c -> c * prod(a + j) * num / den * x of the kernel series.

    Each family keeps the multiply order it was first written in, so that
    its values stay the same to the last bit.
    """
    if extra:
        (a,) = extra
        return lambda term, j, num, den: term * ((a + j) * num / den) * x
    return lambda term, j, num, den: term * x * num / den


def function_norm_sq(space: Space, f: TaylorSeries) -> float:
    """Squared norm sum_p ||z^p||^2 |a_p|^2; zero iff f is the zero series."""
    if f.dimension != space.n:
        raise ValueError(f"series dimension {f.dimension} != space dimension {space.n}")
    acc = CompensatedSum()
    for p in canonical_order(f.coefficients):
        acc.add(space.monomial_norm_sq(p) * abs(f.coefficients[p]) ** 2)
    return acc.value


def inner_product(space: Space, f: TaylorSeries, g: TaylorSeries) -> complex:
    """Sesquilinear product sum_p ||z^p||^2 a_p conj(b_p) (linear in f)."""
    if f.dimension != space.n or g.dimension != space.n:
        raise ValueError("series dimensions must match the space dimension")
    acc = ComplexCompensatedSum()
    for p in canonical_order(f.coefficients):
        b = g.coefficients.get(p)
        if b is not None:
            acc.add(space.monomial_norm_sq(p) * f.coefficients[p] * b.conjugate())
    return acc.value


def kernel_closed_detail(
    space: Space,
    t: complex,
    tol: float = 1e-14,
    max_terms: int = 10000,
) -> tuple[complex, SeriesResult]:
    """Closed-form kernel at t = <z, w>, plus the pFq evaluation record."""
    t, x = _argument(space, t)
    extra = space.pfq_extra
    step = _step(extra, x)
    low = ComplexCompensatedSum()
    term = 1 + 0j
    for k in range(space.m):
        low.add(term)
        term = step(term, k, 1, k + 1)
    spec = HypergeometricSpec((1.0, 1.0, *extra), (space.m + 1.0, space.m + 1.0))
    f = eval_pfq(spec, x, tol, max_terms)
    mfact = math.factorial(space.m)
    value = space.kernel_prefactor() * (low.value + t**space.m / (mfact * mfact) * f.value)
    return value, f


def kernel_closed_from_inner(
    space: Space,
    t: complex,
    tol: float = 1e-14,
    max_terms: int = 10000,
) -> complex:
    """Reproducing kernel as a function of the Hermitian product t = <z, w>."""
    value, _ = kernel_closed_detail(space, t, tol, max_terms)
    return value


def kernel_closed(
    space: Space,
    z,
    w,
    tol: float = 1e-14,
    max_terms: int = 10000,
) -> complex:
    """Reproducing kernel K(z, w); on the ball requires |<z, w>| < R^2."""
    zt = as_point(z, space.n)
    wt = as_point(w, space.n)
    return kernel_closed_from_inner(space, inner(zt, wt), tol, max_terms)


def kernel_series_with_tail(
    space: Space,
    t: complex,
    max_degree: int = DEFAULT_SERIES_DEGREE,
) -> tuple[complex, int, float]:
    """Degree-collapsed kernel series truncated at ``max_degree``.

    Returns (value, degrees summed, tail estimate).  Terms are generated by
    recurrence so that large alpha never overflows, and accumulated in
    ascending degree with compensation.  The tail estimate is the last term
    times the family's factor: 5 = 1/(1 - 0.8) on the ball, matching the
    geometric decay on |t|/R^2 <= 0.8, and 2 on the plane, conservative for
    the factorial decay there.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    t, x = _argument(space, t)
    step = _step(space.pfq_extra, x)
    m = space.m
    acc = ComplexCompensatedSum()
    term = 1 + 0j
    last = 1.0
    for k in range(min(m, max_degree + 1)):
        acc.add(term)
        last = abs(term)
        term = step(term, k, 1, k + 1)
    if max_degree >= m:
        mfact = math.factorial(m)
        high = t**m / (mfact * mfact)
        acc.add(high)
        for k in range(m, max_degree):
            high = step(high, k - m, k - m + 1, (k + 1) * (k + 1))
            acc.add(high)
        last = abs(high)
    return space.kernel_prefactor() * acc.value, max_degree + 1, last * space.series_tail_factor


def kernel_series_from_inner(
    space: Space,
    t: complex,
    max_degree: int = DEFAULT_SERIES_DEGREE,
) -> complex:
    value, _, _ = kernel_series_with_tail(space, t, max_degree)
    return value


def kernel_series(
    space: Space,
    z,
    w,
    max_degree: int = DEFAULT_SERIES_DEGREE,
) -> complex:
    """Series-oracle kernel: truncated basis sum with the degree collapse."""
    zt = as_point(z, space.n)
    wt = as_point(w, space.n)
    return kernel_series_from_inner(space, inner(zt, wt), max_degree)


def kernel_series_enumerated(
    space: Space,
    z,
    w,
    max_degree: int,
) -> complex:
    """Second oracle: explicit sum over multi-indices, no degree collapse."""
    zt = as_point(z, space.n)
    wt = as_point(w, space.n)
    acc = ComplexCompensatedSum()
    for k in range(max_degree + 1):
        for p in mi.enumerate_indices(space.n, k):
            term = 1 + 0j
            for zj, wj, pj in zip(zt, wt, p):
                term *= zj**pj * wj.conjugate() ** pj
            acc.add(term / space.monomial_norm_sq(p))
    return acc.value


def reproduce(
    space: Space,
    f: TaylorSeries,
    w,
    tol: float = 1e-14,
    max_terms: int = 10000,
) -> complex:
    """Pair f with the kernel section K(., w); equals f(w) for members.

    The kernel section is truncated at deg(f), which is exact for
    polynomials because higher basis terms are orthogonal to f.
    """
    if f.dimension != space.n:
        raise ValueError(f"series dimension {f.dimension} != space dimension {space.n}")
    wt = as_point(w, space.n)
    # the plane (R = inf) needs no check, and vector_norm overflows beyond |w| ~ 1e154
    if space.radius < math.inf and vector_norm(wt) >= space.radius:
        raise DomainError(
            f"evaluation point |w| = {vector_norm(wt):.6g} must be < R = {space.radius:.6g}"
        )
    if f.max_degree < 0:
        return 0j
    coeffs = {}
    for k in range(f.max_degree + 1):
        for p in mi.enumerate_indices(space.n, k):
            wp = 1 + 0j
            for wj, pj in zip(wt, p):
                wp *= wj**pj
            coeffs[p] = wp.conjugate() / space.monomial_norm_sq(p)
    section = TaylorSeries(space.n, coeffs)
    return inner_product(space, f, section)
