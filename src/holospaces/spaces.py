"""The algorithms both space families share, written once.

In both families monomials are orthogonal, so norms and inner products are
weighted coefficient sums, and the reproducing kernel collapses to

    K(z, w) = prefactor * [ sum_{k<m} c_k x^k
                            + t^m/(m!)^2 * pFq(1, 1, *extra; m+1, m+1; x) ]

in t = <z, w>, with x = t/R^2 and extra = (alpha+n+1,) on the ball (3F2) and
x = nu t and no extra parameter on the plane (2F2).  The flat limit
alpha = nu R^2, R -> infinity, turns the first into the second.

Near |x| = 1 the ball's 3F2 series needs about 32/(1 - |x|) terms.  From
|x| = 0.85 on, for m <= 4 and wherever the series would run past the 150
terms that cost as much as the integral, the closed kernel takes the 3F2
from a fixed 225-node integral (``_ball_integral``), and sums the series
only where that integral does not meet its tolerance.

A space supplies what differs (see ``Space``); everything here is generic,
down to the evaluation bound sqrt(K(z, z)) that holds in either RKHS.
``bergman`` and ``bargmann`` bind these functions under their own names.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import Protocol

from . import multiindex as mi
from .errors import DomainError
from .hypergeo import (
    ComplexCompensatedSum,
    CompensatedSum,
    HypergeometricSpec,
    SeriesResult,
    check_budget,
    eval_pfq,
)
from .taylor import TaylorSeries, as_point, point_inner, vector_norm

DEFAULT_SERIES_DEGREE = 200

_EPS = sys.float_info.epsilon
_NORMAL_MIN = sys.float_info.min
_ORDER_ZERO_ROUNDING = 4.0  # eps multiple of the m = 0 closed-form bound


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


def require_finite(**params) -> None:
    """DomainError naming the first space parameter that is NaN or infinite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def monomial_norm(formula):
    """Make formula(space, q, |q|, ...) a family's norm_sq(space, p, ...): p is
    checked against the dimension, and a value beyond the float range (an
    overflowing power or float(int), or an underflow to 0) is a DomainError."""

    @functools.wraps(formula)
    def norm_sq(space, p, *args):
        q = mi.as_multiindex(p)
        if len(q) != space.n:
            raise ValueError(f"index {q} has length {len(q)}, space dimension is {space.n}")
        try:
            value = formula(space, q, mi.degree(q), *args)
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            what = "underflows to 0" if value == 0.0 else "overflows the float range"
            raise DomainError(f"||z^{q}||^2 {what}")
        return value

    return norm_sq


def normalized_norm_sq(space: Space, p) -> float:
    """||z^p||^2/||1||^2, the squared norm under the weight scaled to mass 1:
    p! [|p|!/(|p|-m)!] R^(2j)/(alpha+n+1)_j on the ball, p! [...]/nu^j on the
    plane (j = |p| below order m, |p| - m from m on; the bracket from m on)."""
    return space.monomial_norm_sq(p) / space.monomial_norm_sq((0,) * space.n)


def _argument(space: Space, t) -> tuple[complex, complex]:
    t = complex(t)
    if not cmath.isfinite(t):
        raise DomainError(f"kernel argument t = {t} must be finite")
    return t, space.series_argument(t)


def _degree_sum(
    space: Space, t: complex, x: complex, max_degree: int, *, low_moduli: bool
) -> tuple[complex, float]:
    """Kernel series without the prefactor over degrees 0..max_degree, and |last term|.

    Degree k < m steps from the one below by c -> c * (a + k - 1) * x / k,
    degree m is t^m/(m!)^2, and degree k > m steps by
    c -> c * (a + j) * (j + 1) / k^2 * x with j = k - 1 - m; the factor
    (a + ...) is absent on the plane.  Each family keeps the multiply order
    it was first written in, so that its values stay the same to the last
    bit.  The terms are summed in ascending degree with the Neumaier
    compensation of ``hypergeo.CompensatedSum``, inlined per component.
    ``low_moduli`` takes |c_k| of every degree below m, as the series
    oracle always has, so that a term with finite parts but an overflowing
    modulus raises DomainError there; the closed kernel never took them.
    """
    extra = space.pfq_extra
    if extra:
        (a,) = extra
    m = space.m
    re_s = re_c = im_s = im_c = 0.0
    term = 1 + 0j
    last = 1.0
    try:
        for k in range(max_degree + 1):
            if k == m:
                mfact = math.factorial(m)
                term = t**m / (mfact * mfact)
            elif k:
                if k < m:
                    j, num, den = k - 1, 1, k
                else:
                    j = k - 1 - m
                    num, den = j + 1, k * k
                if extra:
                    term = term * ((a + j) * num / den) * x
                else:
                    term = term * x * num / den
            v = term.real
            s = re_s + v
            if abs(re_s) >= abs(v):
                re_c += (re_s - s) + v
            else:
                re_c += (v - s) + re_s
            re_s = s
            v = term.imag
            s = im_s + v
            if abs(im_s) >= abs(v):
                im_c += (im_s - s) + v
            else:
                im_c += (v - s) + im_s
            im_s = s
            if low_moduli and k < m:
                last = abs(term)
        if max_degree >= m:
            last = abs(term)
    except OverflowError as exc:  # t^m, or abs() of a term whose parts are finite
        raise DomainError(f"kernel series term {k} has a modulus beyond the float range") from exc
    return complex(re_s + re_c, im_s + im_c), last


def function_norm_sq(space: Space, f: TaylorSeries) -> float:
    """Squared norm sum_p ||z^p||^2 |a_p|^2; zero iff f is the zero series."""
    if f.dimension != space.n:
        raise ValueError(f"series dimension {f.dimension} != space dimension {space.n}")
    acc = CompensatedSum()
    for p, a in f.coefficients.items():
        acc.add(space.monomial_norm_sq(p) * abs(a) ** 2)
    return acc.value


def inner_product(space: Space, f: TaylorSeries, g: TaylorSeries) -> complex:
    """Sesquilinear product sum_p ||z^p||^2 a_p conj(b_p) (linear in f)."""
    if f.dimension != space.n or g.dimension != space.n:
        raise ValueError("series dimensions must match the space dimension")
    acc = ComplexCompensatedSum()
    for p, a in f.coefficients.items():
        b = g.coefficients.get(p)
        if b is not None:
            acc.add(space.monomial_norm_sq(p) * a * b.conjugate())
    return acc.value


@functools.lru_cache(maxsize=256)
def _kernel_spec(extra: tuple, m: int) -> HypergeometricSpec:
    """The kernel's pFq parameters (1, 1, *extra; m+1, m+1), built and
    validated once per shape rather than on every kernel call; the
    multipliers ``eval_pfq`` reads are cached by value in ``hypergeo``."""
    return HypergeometricSpec((1.0, 1.0, *extra), (m + 1.0, m + 1.0))


# The ball's 3F2 goes to ``_ball_integral`` for m up to _INTEGRAL_MAX_ORDER,
# |x| >= _INTEGRAL_MIN_ARGUMENT, and a series longer than _INTEGRAL_MIN_TERMS
# terms: warm, the 225 nodes cost 65-160 us and a series term 0.5-0.9 us, and
# of 588 timed cells (m = 1..4, a = 1.2..23, |x| = 0.85..0.99, three phases)
# the series was the faster in 93 of 104 below 150 terms and 5 of 53 from
# 150 to 200
_INTEGRAL_MIN_ARGUMENT = 0.85
_INTEGRAL_MAX_ORDER = 4
_INTEGRAL_MIN_TERMS = 150


def _series_outlasts(a: float, m: int, size: float, tol: float) -> bool:
    """Whether 3F2(1, 1, a; m+1, m+1; x) at |x| = size is still above tol at
    term _INTEGRAL_MIN_TERMS, so that ``eval_pfq`` would run past it.

    The term is (a)_N N!/((m+1)_N)^2 |x|^N, which falls like
    N^(a-1-2m) |x|^N once past its peak; a term still rising is above tol
    too, as the series starts at 1.  The stop rule compares terms with the
    partial sum, not with 1, so the length is over-estimated where the sum
    is large (large a near x = 1), which only sends long series to the
    integral sooner.  An a whose log-gamma overflows makes terms that rise
    beyond the float range: the series is long, and the integral overflows
    and declines.
    """
    n = _INTEGRAL_MIN_TERMS
    try:
        log_term = math.lgamma(a + n) - math.lgamma(a)
    except OverflowError:
        return True
    log_term += (math.lgamma(n + 1.0) + 2.0 * (math.lgamma(m + 1.0) - math.lgamma(m + 1.0 + n))
                 + n * math.log(size))
    return log_term > math.log(tol)


def _log1m(x: complex) -> complex:
    """log(1 - x) for |x| < 1, to full relative accuracy.

    Near 0 the modulus goes through log1p(|1 - x|^2 - 1), which cancels as
    x -> 1; from |x| = 1/2 on, log(hypot) is the accurate form, as 1 - Re x
    is exact (Re x >= 1/2) or |1 - x| is bounded away from 0.
    """
    xr, xi = x.real, x.imag
    if abs(x) < 0.5:
        modulus = 0.5 * math.log1p(xr * (xr - 2.0) + xi * xi)
    else:
        modulus = math.log(math.hypot(1.0 - xr, xi))
    return complex(modulus, math.atan2(-xi, 1.0 - xr))


def _kernel_order_zero(space: Space, x: complex) -> tuple[complex, SeriesResult]:
    """The m = 0 kernel prefactor * pFq(1, 1, *extra; 1, 1; x) in closed form.

    The pFq is 1F0(a;; x) = (1 - x)^(-a) on the ball (extra = (a,)) and
    0F0(;; x) = e^x on the plane, so the kernel is exp(E) with
    E = log(prefactor) - a log(1 - x), or log(prefactor) + x.  With the
    prefactor folded into E, the value is the only result of exp, and it is
    returned only when it lies in the normal float range (DomainError
    otherwise).  The record holds the kernel value itself, one evaluation,
    and a rounding bound on its error: exp turns an absolute error dE in E
    into a relative error dE, and E is formed with dE of a few eps times
    n + |log prefactor| + |E - log prefactor| + kappa.  Here n counts the
    factors of the prefactor, and kappa = |a x/(1 - x)| on the ball and |x|
    on the plane is the sensitivity of E to the rounding of x.
    """
    prefactor = space.kernel_prefactor()
    if not _NORMAL_MIN <= prefactor < math.inf:
        raise DomainError(f"kernel prefactor {prefactor:.6g} is outside the normal float range")
    log_prefactor = math.log(prefactor)
    if space.pfq_extra:
        (a,) = space.pfq_extra
        core = -a * _log1m(x)
    else:
        core = x
    try:
        value = cmath.exp(log_prefactor + core)
        size = abs(value)
    except (OverflowError, ValueError):  # Re E beyond the float range, or E not finite
        size = math.inf
    if not _NORMAL_MIN <= size < math.inf:
        raise DomainError(f"the kernel at pFq argument x = {x} is outside the normal float range")
    if space.pfq_extra:
        kappa = a * abs(x) / abs(1.0 - x)
    else:
        kappa = abs(x)  # finite: Re x is moderate once exp(E) is in range
    spread = space.n + abs(log_prefactor) + abs(core) + kappa
    return value, SeriesResult(value, 1, _ORDER_ZERO_ROUNDING * _EPS * spread * size)


def _with_prefactor(space: Space, bracket: complex, x: complex) -> complex:
    """prefactor * bracket; DomainError when overflowing parts make it inf or NaN."""
    value = space.kernel_prefactor() * bracket
    if not cmath.isfinite(value):
        raise DomainError(f"the kernel at pFq argument x = {x} is not a finite float ({value})")
    return value


def kernel_closed_detail(
    space: Space,
    t: complex,
    tol: float = 1e-14,
    max_terms: int = 10000,
) -> tuple[complex, SeriesResult]:
    """Closed-form kernel at t = <z, w>, plus its evaluation record.

    For m >= 1 the record is that of the pFq factor, and ``tol`` must be
    positive and ``max_terms`` >= 1 (ValueError).  On the ball with
    m <= 4, |x| >= 0.85 and a series predicted to run past 150 terms
    (``_series_outlasts``) the factor is first taken from a fixed 225-node
    integral (``_ball_integral.high_part``), whose record holds 225 and its
    error estimate; ``max_terms`` does not bound it.  Where that integral
    does not meet ``tol``, and everywhere else, the record is ``eval_pfq``'s.
    m = 0 is elementary and evaluated in closed form (see
    ``_kernel_order_zero``), where ``tol`` and ``max_terms`` play no part.
    """
    t, x = _argument(space, t)
    if space.m == 0:
        return _kernel_order_zero(space, x)
    check_budget(tol, max_terms)
    low, _ = _degree_sum(space, t, x, space.m - 1, low_moduli=False)
    f = None
    if (space.pfq_extra and space.m <= _INTEGRAL_MAX_ORDER
            and abs(x) >= _INTEGRAL_MIN_ARGUMENT
            and _series_outlasts(space.pfq_extra[0], space.m, abs(x), tol)):
        from . import _ball_integral  # compiled only by a process that needs it

        f = _ball_integral.high_part(space.pfq_extra[0], space.m, x, tol)
    if f is None:
        f = eval_pfq(_kernel_spec(space.pfq_extra, space.m), x, tol, max_terms)
    mfact = math.factorial(space.m)
    return _with_prefactor(space, low + t**space.m / (mfact * mfact) * f.value, x), f


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
    return kernel_closed_from_inner(space, point_inner(zt, wt), tol, max_terms)


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
    value, last = _degree_sum(space, t, x, max_degree, low_moduli=True)
    return _with_prefactor(space, value, x), max_degree + 1, last * space.series_tail_factor


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
    return kernel_series_from_inner(space, point_inner(zt, wt), max_degree)


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


def _require_inside(space: Space, point: tuple, label: str) -> None:
    """DomainError unless |point| < R; ``label`` names the point in the message."""
    # the plane (R = inf) has no boundary; there vector_norm may be inf (|z| > 1.8e308)
    if space.radius < math.inf and vector_norm(point) >= space.radius:
        raise DomainError(f"{label} = {vector_norm(point):.6g} must be < R = {space.radius:.6g}")


def pointwise_bound(space: Space, z) -> float:
    """Sharp evaluation bound sqrt(K(z, z)): |f(z)| <= bound * ||f|| for all f."""
    zt = as_point(z, space.n)
    _require_inside(space, zt, "point |z|")
    value = kernel_closed_from_inner(space, point_inner(zt, zt))
    return math.sqrt(value.real)


def reproduce(space: Space, f: TaylorSeries, w) -> complex:
    """Pair f with the kernel section K(., w); equals f(w) for members.

    The kernel section is truncated at deg(f), which is exact for
    polynomials because higher basis terms are orthogonal to f.
    """
    if f.dimension != space.n:
        raise ValueError(f"series dimension {f.dimension} != space dimension {space.n}")
    wt = as_point(w, space.n)
    _require_inside(space, wt, "evaluation point |w|")
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
