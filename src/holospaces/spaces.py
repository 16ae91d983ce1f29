"""The algorithms both space families share, written once.

In both families monomials are orthogonal, so norms and inner products are
weighted coefficient sums, and the reproducing kernel collapses to

    K(z, w) = prefactor * [ sum_{k<m} c_k x^k
                            + t^m/(m!)^2 * pFq(1, 1, *extra; m+1, m+1; x) ]

in t = <z, w>, with x = t/R^2 and extra = (alpha+n+1,) on the ball (3F2) and
x = nu t and no extra parameter on the plane (2F2).  The flat limit
alpha = nu R^2, R -> infinity, turns the first into the second.

Long series, about 32/(1 - |x|) terms on the ball near |x| = 1 and |x|
on the plane, give way to a tanh-sinh integral of either bracket
(``_integral``) where, for m <= 4, they would run past 150 terms
(``_integral_radius``).  The integral stops at 113 nodes where their own
error estimate meets the tolerance, and takes all 225 otherwise; the series
is summed only where it does not meet its tolerance at all.  On the ball,
where a > 2m - 1 puts the integrand's mass near r = 1 - s = |1 - x|/|x|,
the rule's nodes are shifted onto that scale; on the plane, where a shift
measured worse, and elsewhere on the ball, they are not.  Past its 29
coarsest nodes the rule sums only the nodes that a closed-form bound on
the bracket does not show to be negligible, and adds that bound to its
estimate; its node count names the level that stood, 113 or 225.

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
    HypergeometricSpec,
    SeriesResult,
    check_budget,
    compensated_sum,
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


def _degree_terms(space: Space, t: complex, x: complex, max_degree: int) -> list:
    """Kernel series terms without the prefactor, degrees 0..max_degree in order.

    Degree k < m steps from the one below by c -> c * (a + k - 1) * x / k,
    degree m is t^m/(m!)^2, and degree k > m steps by
    c -> c * (a + j) * (j + 1) / k^2 * x with j = k - 1 - m; the factor
    (a + ...) is absent on the plane.  Each family keeps the multiply order
    it was first written in, so that its values stay the same to the last
    bit.  Where t^m or (m!)^2 (from m = 99 on) leaves the float range, the
    degree-m term is the product of t/j^2 over j = 1..m instead; if that
    is not finite either, it is a DomainError.
    """
    extra = space.pfq_extra
    if extra:
        (a,) = extra
    m = space.m
    term = 1 + 0j
    terms = []
    for k in range(max_degree + 1):
        if k == m:
            mfact = math.factorial(m)
            try:
                term = t**m / (mfact * mfact)
            except OverflowError:  # t^m, or (m!)^2 from m = 99 on, as a float
                term = 1 + 0j
                for j in range(1, m + 1):
                    term = term * t / (j * j)
                if not cmath.isfinite(term):
                    raise DomainError(
                        f"kernel series term {k} has a modulus beyond the float range"
                    ) from None
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
        terms.append(term)
    return terms


def function_norm_sq(space: Space, f: TaylorSeries) -> float:
    """Squared norm sum_p ||z^p||^2 |a_p|^2; zero iff f is the zero series."""
    if f.dimension != space.n:
        raise ValueError(f"series dimension {f.dimension} != space dimension {space.n}")
    return compensated_sum([space.monomial_norm_sq(p) * abs(a) ** 2
                            for p, a in f.coefficients.items()]).real


def inner_product(space: Space, f: TaylorSeries, g: TaylorSeries) -> complex:
    """Sesquilinear product sum_p ||z^p||^2 a_p conj(b_p) (linear in f)."""
    if f.dimension != space.n or g.dimension != space.n:
        raise ValueError("series dimensions must match the space dimension")
    gc = g.coefficients
    return compensated_sum([space.monomial_norm_sq(p) * a * gc[p].conjugate()
                            for p, a in f.coefficients.items() if p in gc])


@functools.lru_cache(maxsize=256)
def _kernel_spec(extra: tuple, m: int) -> HypergeometricSpec:
    """The kernel's pFq parameters (1, 1, *extra; m+1, m+1), built and
    validated once per shape rather than on every kernel call; the
    multipliers ``eval_pfq`` reads are cached by value in ``hypergeo``."""
    return HypergeometricSpec((1.0, 1.0, *extra), (m + 1.0, m + 1.0))


@functools.lru_cache(maxsize=256)
def _integral_radius(extra: tuple, m: int, tol: float) -> float:
    """The |x| beyond which the closed kernel first tries the integral.

    That is where term 150 of pFq(1, 1, *extra; m+1, m+1; x),
    (a)_N N!/((m+1)_N)^2 |x|^N with (a)_N absent on the plane, reaches tol,
    so that ``eval_pfq`` would run past it.  Warm, a series term costs
    0.23-0.24 us, and the integral 28-42 us at 225 nodes, or 15-18 us where
    it stops at 113 (min of 7 timeit runs, 2-CPU x86_64, Python 3.11), so
    150 terms cost about what 225 nodes do; whether it stops is known only
    once those 113 are summed, so the radius is priced at 225.  Those are
    the costs of the full rule: a plane call now sums 62-99 nodes and costs
    about half as much where it takes the 225 level, and a ball call about
    6 % less (``BENCH_26.json``); the radius is not re-priced.  Past its
    peak the term falls like N^(a-1-2m) |x|^N, and the stop rule compares
    terms with the partial sum, not with 1, so the length is over-estimated
    where the sum is large, which only sends long series to the integral
    sooner.  The
    radius is never below the float just under 0.85, so |x| = 0.85 counts,
    and is that float where log-gamma of a overflows (terms that rise
    beyond the float range).  For m > 4, past the orders at which the rule's
    P_m is tested, it is infinite.  At tol = 1e-14 the plane's is 48.7,
    51.6, 54.4 and 57.1 for m = 1..4.
    """
    if m > 4:
        return math.inf
    floor = math.nextafter(0.85, 0.0)
    n = 150
    log_size = math.log(tol) - math.lgamma(n + 1.0) - 2.0 * (
        math.lgamma(m + 1.0) - math.lgamma(m + 1.0 + n))
    if extra:
        try:
            log_size -= math.lgamma(extra[0] + n) - math.lgamma(extra[0])
        except OverflowError:
            return floor
    return max(floor, math.exp(log_size / n))


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


def _prefactor(space: Space) -> float:
    """The space's kernel prefactor; DomainError unless it is a normal float."""
    try:
        prefactor = space.kernel_prefactor()
    except (OverflowError, ZeroDivisionError) as exc:  # R^(2n) or (nu/pi)^n beyond the float range
        raise DomainError(f"kernel prefactor of {space} is outside the normal float range") from exc
    if not _NORMAL_MIN <= prefactor < math.inf:
        raise DomainError(f"kernel prefactor {prefactor:.6g} is outside the normal float range")
    return prefactor


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
    log_prefactor = math.log(_prefactor(space))
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
    """prefactor * bracket; DomainError when the prefactor is not a normal
    float (``_prefactor``) or overflowing parts make the product inf or NaN."""
    value = _prefactor(space) * bracket
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
    positive and ``max_terms`` >= 1 (ValueError).  The one choice of form:
    where |x| exceeds ``_integral_radius`` (m <= 4, a series predicted to
    run past 150 terms) the factor is first taken from a tanh-sinh integral
    of the space's bracket (``_integral.high_part``, with its nodes shifted
    onto r = |1 - x|/|x| on the ball where a > 2m - 1), whose record holds
    its node count, 113 where it stops at step 2h or 225, and its error
    estimate; ``max_terms`` does not bound it.  The count names the level
    that stood, not the nodes summed, which the rule cuts where a
    closed-form bound shows them negligible (its estimate holds that bound).
    Where that integral declines, and everywhere else, the record is
    ``eval_pfq``'s.  m = 0 is elementary and evaluated in closed form (see
    ``_kernel_order_zero``), where ``tol`` and ``max_terms`` play no part.
    """
    t, x = _argument(space, t)
    if space.m == 0:
        return _kernel_order_zero(space, x)
    check_budget(tol, max_terms)
    low = _degree_terms(space, t, x, space.m)
    high = low.pop()  # t^m/(m!)^2
    f = None
    # hypot is inf, where abs raises, for a plane x whose modulus overflows
    if math.hypot(x.real, x.imag) > _integral_radius(space.pfq_extra, space.m, tol):
        from . import _integral  # compiled only by a process that needs it

        f = _integral.high_part(space.pfq_extra, space.m, x, tol)
    if f is None:
        f = eval_pfq(_kernel_spec(space.pfq_extra, space.m), x, tol, max_terms)
    return _with_prefactor(space, compensated_sum(low) + high * f.value, x), f


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
    terms = _degree_terms(space, t, x, max_degree)
    try:  # |c_k| of every degree below m, where a modulus may overflow, and of the last
        for k in (*range(min(space.m, max_degree)), max_degree):
            last = abs(terms[k])
    except OverflowError as exc:  # abs() of a term whose parts are finite
        raise DomainError(f"kernel series term {k} has a modulus beyond the float range") from exc
    value = _with_prefactor(space, compensated_sum(terms), x)
    return value, max_degree + 1, last * space.series_tail_factor


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
    terms = []
    for k in range(max_degree + 1):
        for p in mi.enumerate_indices(space.n, k):
            term = 1 + 0j
            for zj, wj, pj in zip(zt, wt, p):
                term *= zj**pj * wj.conjugate() ** pj
            terms.append(term / space.monomial_norm_sq(p))
    return compensated_sum(terms)


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
    polynomials because higher basis terms are orthogonal to f.  A section
    coefficient conj(w^p)/||z^p||^2 beyond the float range is a DomainError.
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
            try:
                for wj, pj in zip(wt, p):
                    wp *= wj**pj
            except OverflowError:  # a power of a far point on the plane
                wp = complex(math.inf)
            c = wp.conjugate() / space.monomial_norm_sq(p)
            if not cmath.isfinite(c):
                raise DomainError(f"kernel section coefficient conj(w^p)/||z^p||^2 at p = {p} "
                                  f"is beyond the float range ({c})")
            coeffs[p] = c
    section = TaylorSeries(space.n, coeffs)
    return inner_product(space, f, section)
