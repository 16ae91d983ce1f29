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
tolerance, all 225 otherwise.  On the ball, where the integrand's mass lies
near r = 1 - s = |1 - x|/|x|, the rule's nodes are shifted onto that scale.
P_m has one form, its log form, evaluated in integers at each node once
per m and shift.
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
# miss the error.  Of 1,296 2h stops of the unshifted rule drawn near
# x = 1 without this bound (a up to 30, tol from 1e-14 to 1e-6), the 3
# outside their estimate, by 2.2-40 times, were real x at |1 - x| =
# 4.3e-5 ... 3.5e-4, as are four cells at 7.3e-8 ... 1.3e-5 (2.1-569
# times, tests/test_spaces.py); the 933 from |1 - x| = 1e-3 on were within
# 0.45 of it.
_EARLY_MIN_GAP = 1e-3
# The largest shift of ``rule``.  A shift j ends the rule at s = e^-(52 - j)
# instead of 2.6e-23.  The s-mass it leaves out below that node is 0.63 of
# the node's end-point term h |w P_m|, at any j, and that term grows like
# e^j: at j = 12 it is 4.1e-15 of the integral of P_m at m = 4, and at
# j = 13 it would be 1.1e-14, past tol = 1e-14 on its own.
_MAX_SHIFT = 12
# the relative gap between the coarsest and finest of a level's three sums
# (4h and h, or 8h and 2h) above which the rule has not resolved the
# integrand and that level does not stand, however loose tol is
UNRESOLVED = 1e-2


@functools.lru_cache(maxsize=None)
def coefficients(m: int) -> tuple[tuple, int]:
    """The coefficients of P_m, the inverse Mellin transform of 1/((j+1)_m)^2.

    By partial fractions 1/((j+1)_m)^2 = sum_i A_i/(j+i) + B_i/(j+i)^2, with
    B_i = 1/((i-1)! (m-i)!)^2 and A_i = -2 B_i (H_(m-i) - H_(i-1)), so
    P_m(s) = sum_i s^(i-1) (A_i - B_i log s).  Returns the integer pairs
    (den A_i, den B_i), highest i first, and the integer den, so that no
    rational type is imported.
    """
    fact = math.factorial(m - 1)
    square = [math.comb(m - 1, i) ** 2 for i in range(m)]  # fact^2 B_(i+1)
    lcm = math.lcm(*range(1, m + 1))
    harmonic = [0]  # lcm H_p
    for p in range(1, m):
        harmonic.append(harmonic[-1] + lcm // p)
    log_form = tuple(
        (-2 * square[i] * (harmonic[m - 1 - i] - harmonic[i]), square[i] * lcm)
        for i in reversed(range(m))
    )
    return log_form, fact * fact * lcm


def _atanh_fixed(num: int, den: int, bits: int) -> int:
    """atanh(num/den) in units of 2^-bits, for integers 0 <= num/den <= 1/3."""
    z = (num << bits) // den
    z2 = (z * z) >> bits
    total, j = 0, 1
    while z:
        total += z // j
        z = (z * z2) >> bits
        j += 2
    return total


@functools.lru_cache(maxsize=None)
def _ln2_fixed(bits: int) -> int:
    """log 2 = 2 atanh(1/3) in units of 2^-bits."""
    return 2 * _atanh_fixed(1, 3, bits)


def weight(m: int, r: float, s: float) -> float:
    """P_m at s = 1 - r, from its log form in integer fixed point.

    The log form sum_i s^(i-1) (A_i - B_i log s) cancels: near s = 1, where
    P_m = O(r^(2m-1)), by about 2^((2m-1) log2(1/r)), and at s = 1/2 still
    by a factor that grows with m (4e4 at m = 4).  So it is evaluated in
    integers with 96 + 4m fractional bits, plus 2m - 1 for every power of
    two that r lies below 1, and rounded once.  For r < 1/2 it is taken at
    s = 1 - r exactly, with log s = -2 atanh(r/(2 - r)); otherwise at s,
    with log s = e log 2 - 2 atanh((1 - f)/(1 + f)) for s = f 2^e and
    1/2 <= f < 1.  Either atanh argument is at most 1/3.
    """
    log_form, den = coefficients(m)
    bits = 96 + 4 * m + (2 * m - 1) * max(0, -math.frexp(r)[1])
    if r < 0.5:
        r_num, q = r.as_integer_ratio()
        num, e, log_s = q - r_num, 0, 0  # s = num/q, exactly 1 - r
    else:
        f, e = math.frexp(s)
        num, q = f.as_integer_ratio()  # s = 2^e num/q
        log_s = e * _ln2_fixed(bits)
    log_s -= 2 * _atanh_fixed(q - num, q + num, bits)
    s_fixed = (num << (bits + e)) // q
    p = 0
    for a_i, b_i in log_form:
        p = ((p * s_fixed) >> bits) + (a_i << bits) - b_i * log_s
    return p / (den << bits)


@functools.lru_cache(maxsize=None)
def rule(m: int, shift: int) -> tuple:
    """The tanh-sinh nodes of ``high_part`` for order m, in four groups:
    k = 0 mod 8 (the step-8h rule, from k = -112 to 112), k = 4 mod 8
    (added at 4h), k = 2 mod 4 (added at 2h) and k odd (added at h), each
    in k order.  Each node is (r, w P_m(1 - r)), with w = pi cosh(tau) s r
    the weight of the substitution s = 1/(1 + e^(-u)), u = pi sinh tau +
    shift, r = 1 - s formed directly, not by subtraction, and P_m from
    ``weight``.  The integer ``shift`` (0 to ``_MAX_SHIFT``) translates u,
    which leaves the rule exact on the whole line and moves its densest
    nodes from s = 1/2 to r = 1/(1 + e^shift); shift 0 is the plain rule.
    """
    groups = ([], [], [], [])
    for k in range(-HALF_WIDTH, HALF_WIDTH + 1):
        tau = k * STEP
        u = math.pi * math.sinh(tau) + shift
        s = 1.0 / (1.0 + math.exp(-u))
        r = 1.0 / (1.0 + math.exp(u))
        w = math.pi * math.cosh(tau) * s * r
        group = groups[0 if k % 8 == 0 else 1 if k % 4 == 0 else 2 if k % 2 == 0 else 3]
        group.append((r, w * weight(m, r, s)))
    return tuple(map(tuple, groups))


def _estimate(sums: list, step: float, ends: float, size: float, kappa: float,
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
    return value, estimate + kappa * size * step


def high_part(extra: tuple, m: int, x: complex, tol: float) -> SeriesResult | None:
    """pFq(1, 1, *extra; m+1, m+1; x) as (m!)^2 int_0^1 P_m(s) B_0(x s) ds.

    ``extra`` is the space's ``pfq_extra``: (a,) on the ball, whose bracket
    (1 - x s)^(-a) is formed as ((1 - x) + x r)^(-a), exact to rounding
    however small r, and () on the plane, whose e^(x s) is e^(x - x r).  The
    integral is the tanh-sinh rule of ``rule``, whose four node groups nest:
    summed one after another they give the levels at steps 8h, 4h, 2h and
    h = 1/32.  After the 2h level, 113 nodes, the call returns that level's
    value where its estimate (see ``_estimate``) meets tol |value|: on the
    plane, and on the ball where |1 - x| >= ``_EARLY_MIN_GAP``.  Otherwise
    the h level, all 225 nodes, stands or the call declines.

    On the ball with a > 2m - 1 the integrand grows like r^(2m-1-a) as r
    falls, until r nears r0 = |1 - x|/|x|, where (1 - x s)^(-a) levels
    off: its mass lies near r0, far from the plain rule's densest nodes at
    r = 1/2 when x is near 1.  There the rule is ``rule(m, shift)`` with the
    integer shift = round(log(1/r0 - 1)), clamped to 0 .. ``_MAX_SHIFT``,
    which puts those nodes, r = 1/(1 + e^shift), on r0.  Rounding
    log(1/r0) instead moved 3 of 48,800 seeded ball calls from 113 to 225
    nodes or from 225 to declining, all at r0 = 0.54-0.6, and this form
    none.  Elsewhere the shift is 0: on the ball with a <= 2m - 1 the mass
    lies at r of order 1, and on the plane, whose e^(x s) turns within
    r ~ 1/|x| but oscillates with Im x over all of (0, 1), the shift
    round(log |x|) = 5 takes the 2h level at x = 150 e^(0.1i), m = 3 from
    9.3e-15 to 1.1e-10 off.

    The estimate's end-point term is h max |w_k f_k| over the end nodes
    k = +-112.  At k = 112 it is on the ball about 3.3 m times the integral
    over r < r_min = 2.7e-23 e^-shift that the rule leaves out (there
    w P_m = O(r^(2m)) and 1 - x s is near 1 - x); it matters only for
    |1 - x| within a few powers of ten of 2^-53.  At k = -112 it bounds the
    s-mass below the node (see ``_MAX_SHIFT``).  Once the estimate has met
    tol, the record adds a conditioning term kappa size step at either
    level: kappa = |x| eps on the plane, where e^(x s) turns the rounding of
    x s into a relative error (tested against tol, it would decline every
    call past |x| = 40 at tol = 1e-14), and a eps on the ball, where
    (1 - x s)^(-a) multiplies the relative rounding of its base by a.

    Bailey's rule assumes the three sums are already converging.  Where the
    coarsest sum is more than 1 % off (``UNRESOLVED``), as when a large a
    packs the integrand's mass into a narrow peak near r = |1 - x| below
    what the largest shift reaches, all three sums can miss it alike: at
    m = 4, a = 17.55, x = 1 - 5.7e-15 the plain rule put the error at 1e-6
    and the value was off by 100 %, and shifted by 12 it is still off by
    29 powers of ten.  Such a level does not stand at any tol.

    Returns the record (value, 113 or 225, estimate) of the pFq, or None
    when a node or a sum overflows, or when the 225-node value is not
    finite, is unresolved, or its estimate exceeds tol |value| (an
    integrand oscillating at large a |arg(1 - x s)| or |Im x|, or a tol
    below what the rule resolves): the caller then sums the series.
    """
    exp = cmath.exp
    sums = []  # node sums of the levels at steps 8h, 4h, 2h and h, each holding the one before
    total, size, first, found = 0j, 0.0, None, None
    try:
        shift = 0
        if extra:
            (a,) = extra
            one_minus_x = 1.0 - x
            early, kappa = abs(one_minus_x) >= _EARLY_MIN_GAP, a * _EPS
            if a > 2 * m - 1:  # centre the nodes, r = 1/(1 + e^shift), on |1 - x|/|x|
                ratio = abs(x) / abs(one_minus_x)
                shift = min(_MAX_SHIFT, round(math.log(max(1.0, ratio - 1.0))))
        else:
            early, kappa = True, abs(x) * _EPS
        for group in rule(m, shift):
            part = 0j  # summed apart from the total, at the group's own scale
            for r, wp in group:
                f = wp * ((one_minus_x + x * r) ** -a if extra else exp(x - x * r))
                part += f
                size += abs(f)
                if first is None:
                    first = f
            total += part
            if not sums:  # the 8h group opens and closes with the end nodes k = -+112
                ends = max(abs(first), abs(f))
            sums.append(total)
            if len(sums) == 4 or len(sums) == 3 and early:  # the levels at 2h and h
                found = _estimate(sums[-3:], STEP * 2 ** (4 - len(sums)), ends, size, kappa, tol)
                if found is not None:
                    break
    except OverflowError:  # a node, or the modulus of a sum, beyond the float range
        return None
    if found is None:
        return None
    value, estimate = found
    scale = math.factorial(m) ** 2
    return SeriesResult(scale * value, EARLY_NODES if len(sums) == 3 else FULL_NODES,
                        scale * estimate)
