"""The kernel's pFq factor of order m as a tanh-sinh integral of 113 or 225 nodes.

With m >= 1 and B_0 the m = 0 bracket, (1 - y)^(-a) on the ball (a =
alpha+n+1) and e^y on the plane, the high part of the kernel is

    t^m/(m!)^2 * pFq(1, 1, *extra; m+1, m+1; x) = t^m * int_0^1 P_m(s) B_0(x s) ds,

where P_m(s) = sum_i s^(i-1) (A_i - B_i log s) is the inverse Mellin transform
of 1/((j+1)_m)^2, with A_i, B_i its exact partial fractions: expanding
B_0(x s) and integrating term by term gives the 3F2 series on the ball and
the 2F2 series on the plane.  Those need about 32/(1 - |x|) and |x| terms;
the integral takes a tanh-sinh rule (Takahasi and Mori, 1974) of nested
levels at any |x| < 1 on the ball and any |x| up to a few hundred on the
plane: its 113 nodes of even k where their own error estimate meets the
tolerance, all 225 otherwise.
``spaces.kernel_closed_detail`` imports this module only when it needs it,
so that a process that never evaluates a long kernel series does not
compile it.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

from .hypergeo import SeriesResult

_EPS = sys.float_info.epsilon
STEP = 1.0 / 32.0  # finest tanh-sinh step h; the rule also sums at 8h, 4h and 2h
HALF_WIDTH = 112  # nodes tau = k h for |k| <= 112, |tau| <= 3.5
FULL_NODES = 2 * HALF_WIDTH + 1  # 225: every node, summed at steps 4h, 2h and h
EARLY_NODES = HALF_WIDTH + 1  # 113: the even k, summed at steps 8h, 4h and 2h
# On the ball the rule stops at 2h only where |1 - x| is at least this.  On
# the real axis near x = 1 the levels gain a few digits per halving instead
# of doubling them, so Bailey's estimate from the 8h, 4h and 2h sums can
# miss the error.  Of 1,296 2h stops drawn near x = 1 without this bound
# (a up to 30, tol from 1e-14 to 1e-6), the 3 outside their estimate, by
# 2.2-40 times, were real x at |1 - x| = 4.3e-5 ... 3.5e-4, as are four
# cells at 7.3e-8 ... 1.3e-5 (2.1-569 times, tests/test_spaces.py); the 933
# from |1 - x| = 1e-3 on were within 0.45 of it.
_EARLY_MIN_GAP = 1e-3
# the relative gap between the coarsest and finest of a level's three sums
# (4h and h, or 8h and 2h) above which the rule has not resolved the
# integrand and that level does not stand, however loose tol is
UNRESOLVED = 1e-2
TAYLOR_DEGREE = 64  # P_m's Taylor series in r = 1 - s is cut after r^64, used for r < 1/2
FIXED_BITS = 96  # fractional bits of the integer arithmetic of P_m's log form


@functools.lru_cache(maxsize=None)
def coefficients(m: int) -> tuple[tuple, tuple, int]:
    """The coefficients of P_m, the inverse Mellin transform of 1/((j+1)_m)^2.

    By partial fractions 1/((j+1)_m)^2 = sum_i A_i/(j+i) + B_i/(j+i)^2, with
    B_i = 1/((i-1)! (m-i)!)^2 and A_i = -2 B_i (H_(m-i) - H_(i-1)), so
    P_m(s) = sum_i s^(i-1) (A_i - B_i log s).  Returns

    * the Taylor coefficients of P_m(1 - r) in r from r^(2m-1) to r^64,
      highest first: the lower ones vanish, and from r^m on the k-th is
      sum_i B_i (-1)^(i-1) (i-1)!/(k (k-1) ... (k-i+1)), which is >= 0;
    * the integers den A_i and den B_i, highest i first, and den.

    Every value is an exact integer ratio until one correctly rounded
    division, so no rational type is imported.
    """
    fact = math.factorial(m - 1)
    square = [math.comb(m - 1, i) ** 2 for i in range(m)]  # fact^2 B_(i+1)
    taylor = tuple(
        sum(
            square[i] * (-1) ** i * math.factorial(i) * math.perm(k - i - 1, m - i - 1)
            for i in range(m)
        )
        / (fact * fact * math.perm(k, m))
        for k in range(TAYLOR_DEGREE, 2 * m - 2, -1)
    )
    lcm = math.lcm(*range(1, m + 1))
    harmonic = [0]  # lcm H_p
    for p in range(1, m):
        harmonic.append(harmonic[-1] + lcm // p)
    log_form = tuple(
        (-2 * square[i] * (harmonic[m - 1 - i] - harmonic[i]), square[i] * lcm)
        for i in reversed(range(m))
    )
    return taylor, log_form, fact * fact * lcm


def _atanh_fixed(num: int, den: int) -> int:
    """atanh(num/den) in units of 2^-96, for integers 0 <= num/den <= 1/3."""
    z = (num << FIXED_BITS) // den
    z2 = (z * z) >> FIXED_BITS
    total, j = 0, 1
    while z:
        total += z // j
        z = (z * z2) >> FIXED_BITS
        j += 2
    return total


_LN2_FIXED = 2 * _atanh_fixed(1, 3)  # log 2 in units of 2^-96


def weight(m: int, r: float, s: float, taylor: bool) -> float:
    """P_m at s = 1 - r, from its Taylor series in r or from its log form.

    The log form sum_i s^(i-1) (A_i - B_i log s) cancels: near s = 1, where
    P_m = O(r^(2m-1)), without bound, and at s = 1/2 still by a factor of
    up to 4e4 (m = 4), so in floats it would lose 11 bits there.  It is
    evaluated in integers with 96 fractional bits instead, log s as
    e log 2 + 2 atanh((f - 1)/(f + 1)) for s = f 2^e, 1/sqrt2 <= f < sqrt2,
    and rounded once.  The Taylor series, of terms >= 0, is summed in floats
    and cut where its tail is below eps P_m for r <= 1/2.
    """
    series, log_form, den = coefficients(m)
    if taylor:
        p = 0.0
        for c in series:
            p = p * r + c
        return p * r ** (2 * m - 1)
    f, e = math.frexp(s)
    if f < 0.7071067811865476:
        f, e = 2.0 * f, e - 1
    f_num, one = int(math.ldexp(f, 53)), 1 << 53
    atanh = _atanh_fixed(abs(f_num - one), f_num + one)
    log_s = e * _LN2_FIXED + (2 * atanh if f_num >= one else -2 * atanh)
    s_fixed = int(math.ldexp(s, FIXED_BITS))
    p = 0
    for a_i, b_i in log_form:
        p = ((p * s_fixed) >> FIXED_BITS) + (a_i << FIXED_BITS) - b_i * log_s
    return p / (den << FIXED_BITS)


@functools.lru_cache(maxsize=None)
def rule(m: int) -> tuple:
    """The tanh-sinh nodes of ``high_part`` for order m, in three groups:
    k = 0 mod 4 (the step-4h rule, whose every other node, k = 0 mod 8, is
    the 8h rule), k = 2 mod 4 (added at 2h) and k odd (added at h), each in
    k order.  Each node is (r, w P_m(1 - r)), with w = pi cosh(tau) s r
    the weight of the substitution s = 1/(1 + e^(-pi sinh tau)), and
    r = 1 - s formed directly, not by subtraction.  P_m is taken from its
    Taylor series for r < 1/2 (see ``weight``).
    """
    groups = ([], [], [])
    for k in range(-HALF_WIDTH, HALF_WIDTH + 1):
        tau = k * STEP
        u = math.pi * math.sinh(tau)
        s = 1.0 / (1.0 + math.exp(-u))
        r = 1.0 / (1.0 + math.exp(u))
        w = math.pi * math.cosh(tau) * s * r
        group = groups[0 if k % 4 == 0 else 1 if k % 2 == 0 else 2]
        group.append((r, w * weight(m, r, s, r < 0.5)))
    return tuple(map(tuple, groups))


def _estimate(sums: tuple, step: float, ends: float, size: float, kappa: float,
              tol: float) -> tuple[complex, float] | None:
    """The rule's value at ``step`` and its error estimate, or None.

    ``sums`` are the node sums of the levels at steps 4 step, 2 step and
    step, each holding the one before.  With the values S1, S2, S3 they give
    and the logs d1 = log(|S3 - S2|/|S3|) and d2 = log(|S3 - S1|/|S3|) of
    their relative gaps, the estimate is |S3| e^max(d1^2/d2, 2 d1) (Bailey's
    rule for a rule whose correct digits double as the step halves) plus
    (ends + 4 eps size) step, where ``ends`` is the larger end-node term and
    ``size`` sums the moduli of the level's terms.  Once that meets tol |S3|,
    kappa size step is added.  None when S3 is not finite or zero, the S1
    gap exceeds ``UNRESOLVED``, or the estimate exceeds tol |S3|.
    """
    coarse = sums[0] * (4.0 * step)
    middle = sums[1] * (2.0 * step)
    value = sums[2] * step
    if not cmath.isfinite(value) or value == 0:
        return None
    gap1 = abs(value - middle) / abs(value)
    gap2 = abs(value - coarse) / abs(value)
    if gap2 > UNRESOLVED:
        return None
    if gap1 == 0.0:
        discretization = 0.0
    elif gap1 < gap2:
        d1, d2 = math.log(gap1), math.log(gap2)
        discretization = math.exp(max(d1 * d1 / d2, 2.0 * d1))
    else:  # the gaps do not shrink: no rate to extrapolate
        discretization = max(gap1, gap2)
    estimate = discretization * abs(value) + (ends + 4.0 * _EPS * size) * step
    if not estimate <= tol * abs(value):
        return None
    if kappa:
        estimate += kappa * size * step
    return value, estimate


def high_part(extra: tuple, m: int, x: complex, tol: float) -> SeriesResult | None:
    """pFq(1, 1, *extra; m+1, m+1; x) as (m!)^2 int_0^1 P_m(s) B_0(x s) ds.

    ``extra`` is the space's ``pfq_extra``: (a,) on the ball, whose bracket
    (1 - x s)^(-a) is formed as ((1 - x) + x r)^(-a), exact to rounding
    however small r, and () on the plane, whose e^(x s) is e^(x - x r).  The
    integral is the tanh-sinh rule of ``rule``, whose nodes nest, summed
    level by level at steps 8h, 4h, 2h and h = 1/32.  After the 2h level,
    113 nodes, the call returns that level's value where its estimate (see
    ``_estimate``) meets tol |value|: on the plane, and on the ball where
    |1 - x| >= ``_EARLY_MIN_GAP``.  As that estimate is at least the squared
    4h-to-2h gap, the 8h sum is formed only where that gap is at most
    sqrt(tol).  Otherwise the h level, all 225 nodes, stands or the call
    declines.

    The estimate's end-point term, h max |w_k f_k| over the end nodes
    k = +-112, is on the ball about 3.3 m times the integral over
    r < r_min = 2.7e-23 that the rule leaves out (there w P_m = O(r^(2m))
    and 1 - x s is near 1 - x); it matters only for |1 - x| within a few
    powers of ten of 2^-53.  Once the estimate has met tol, the record adds
    a conditioning term kappa size step: kappa = |x| eps on the plane, where
    e^(x s) turns the rounding of x s into a relative error (tested against
    tol, it would decline every call past |x| = 40 at tol = 1e-14), and
    a eps on the ball at 2h, where (1 - x s)^(-a) multiplies the relative
    rounding of its base by a.  The 225-node ball record leaves the latter
    out, and from a of about 5 on it is often below its error.

    Bailey's rule assumes the three sums are already converging.  Where the
    coarsest sum is more than 1 % off (``UNRESOLVED``), as when a large a
    packs the integrand's mass into a narrow peak near r = |1 - x| < 1e-10,
    all three sums can miss it alike: at m = 4, a = 17.55, x = 1 - 5.7e-15
    the rule puts the error at 1e-6 and the value is off by 100 %.  Such a
    level does not stand at any tol.

    Returns the record (value, 113 or 225, estimate) of the pFq, or None
    when a node or a sum overflows, or when the 225-node value is not
    finite, is unresolved, or its estimate exceeds tol |value| (an
    integrand oscillating at large a |arg(1 - x s)| or |Im x|, or a tol
    below what the rule resolves): the caller then sums the series.
    """
    if extra:
        (a,) = extra
        one_minus_x = 1.0 - x
    exp = cmath.exp
    groups = rule(m)
    try:
        if extra:
            early = abs(one_minus_x) >= _EARLY_MIN_GAP
            kappa = (a * _EPS, 0.0)  # the conditioning terms at 2h and at h
        else:
            early = True
            kappa = (abs(x) * _EPS,) * 2
        # the k = 0 mod 4 nodes, k = -112 first, are kept for the 8h sum
        values = [wp * ((one_minus_x + x * r) ** -a if extra else exp(x - x * r))
                  for r, wp in groups[0]]
        ends = max(abs(values[0]), abs(values[-1]))
        size = 0.0
        sum4 = 0j  # node sums of the levels at steps 4h, 2h and h
        for f in values:
            sum4 += f
            size += abs(f)
        sum2 = 0j
        for r, wp in groups[1]:
            f = wp * ((one_minus_x + x * r) ** -a if extra else exp(x - x * r))
            sum2 += f
            size += abs(f)
        sum2 += sum4
        found = None
        # the 2h level's estimate is at least gap1^2 = (|S2 - 2 S4|/|S2|)^2
        if early and abs(sum2 - 2.0 * sum4) <= math.sqrt(tol) * abs(sum2):
            sum8 = 0j
            for f in values[::2]:
                sum8 += f
            found = _estimate((sum8, sum4, sum2), 2.0 * STEP, ends, size, kappa[0], tol)
            nodes = EARLY_NODES
        if found is None:
            sum1 = 0j
            for r, wp in groups[2]:
                f = wp * ((one_minus_x + x * r) ** -a if extra else exp(x - x * r))
                sum1 += f
                size += abs(f)
            found = _estimate((sum4, sum2, sum2 + sum1), STEP, ends, size, kappa[1], tol)
            nodes = FULL_NODES
    except OverflowError:  # a node, or the modulus of a sum, beyond the float range
        return None
    if found is None:
        return None
    value, estimate = found
    scale = math.factorial(m) ** 2
    return SeriesResult(scale * value, nodes, scale * estimate)
