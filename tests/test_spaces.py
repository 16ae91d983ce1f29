import cmath
import copy
import math
import random
import sys

import mpmath as mp
import numpy as np
import pytest

from conftest import RunningSum, random_point, random_polynomial
from holospaces import _integral, bargmann, bergman, spaces
from holospaces.errors import DomainError, NonconvergenceError
from holospaces.hypergeo import HypergeometricSpec, eval_pfq
from holospaces.taylor import inner

# the integral stops at step 2h or at h
INTEGRAL_NODES = (_integral.EARLY_NODES, _integral.FULL_NODES)

FAMILIES = [
    (bergman, bergman.BergmanDirichletSpace(2, 0.5, 1)),
    (bargmann, bargmann.BargmannDirichletSpace(2, 1.0, 1)),
]


@pytest.mark.parametrize("family, space", FAMILIES, ids=["ball", "fock"])
@pytest.mark.parametrize("t", [math.nan, math.inf, complex(0, math.nan)], ids=["nan", "inf", "nan-im"])
def test_non_finite_argument_is_a_domain_error(family, space, t):
    with pytest.raises(DomainError, match="must be finite"):
        family.kernel_closed_detail(space, t)
    with pytest.raises(DomainError, match="must be finite"):
        family.kernel_series_with_tail(space, t)


@pytest.mark.parametrize("make, name", [
    (lambda v: bergman.BergmanDirichletSpace(2, v, 1), "alpha"),
    (lambda v: bergman.BergmanDirichletSpace(2, 0.5, 1, radius=v), "radius"),
    (lambda v: bergman.BergmanDirichletSpace(v, 0.5, 1), "n"),
    (lambda v: bergman.BergmanDirichletSpace(2, 0.5, v), "m"),
    (lambda v: bargmann.BargmannDirichletSpace(2, v, 1), "nu"),
    (lambda v: bargmann.BargmannDirichletSpace(v, 1.0, 1), "n"),
    (lambda v: bargmann.BargmannDirichletSpace(2, 1.0, v), "m"),
], ids=["ball-alpha", "ball-radius", "ball-n", "ball-m", "fock-nu", "fock-n", "fock-m"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_space_parameter_is_a_domain_error(make, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        make(value)


def _reference_series_with_tail(space, t, max_degree):
    """The straightforward degree loop: a ``_step`` closure and a streaming accumulator."""
    t = complex(t)
    x = space.series_argument(t)
    if space.pfq_extra:
        (a,) = space.pfq_extra

        def step(term, j, num, den):
            return term * ((a + j) * num / den) * x
    else:

        def step(term, j, num, den):
            return term * x * num / den
    m = space.m
    acc = RunningSum()
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


def _reference_closed_detail(space, t, tol=1e-14):
    """The closed kernel with its low part sum_{k<m} c_k summed by the ``_step`` loop."""
    t = complex(t)
    x = space.series_argument(t)
    low = RunningSum()
    term = 1 + 0j
    for k in range(space.m):
        low.add(term)
        if space.pfq_extra:
            term = term * ((space.pfq_extra[0] + k) * 1 / (k + 1)) * x
        else:
            term = term * x * 1 / (k + 1)
    spec = HypergeometricSpec((1.0, 1.0, *space.pfq_extra), (space.m + 1.0, space.m + 1.0))
    f = eval_pfq(spec, x, tol)
    mfact = math.factorial(space.m)
    return space.kernel_prefactor() * (low.value + t**space.m / (mfact * mfact) * f.value), f


def _outcome(f, *args):
    """(kind, repr, finite) of the result, or of the exception with its
    partial result; ``finite`` tells whether a returned kernel value is finite."""
    try:
        r = f(*args)
    except (DomainError, NonconvergenceError, OverflowError) as exc:
        return type(exc).__name__, repr((str(exc), getattr(exc, "partial", None))), True
    return "ok", repr(r), cmath.isfinite(r[0])


def _assert_same_outcome(got, expected, case):
    """``got`` repeats ``expected``, except that where the reference loop's
    abs() overflows or its kernel value is not finite, the package raises
    DomainError instead."""
    if expected[0] == "OverflowError" or not expected[2]:
        assert got[0] == "DomainError", case
    else:
        assert got == expected, case


def _series_cases():
    rng = random.Random(20152)
    for m in range(4):
        for n in (1, 3):
            for alpha, radius in ((-0.5, 1.0), (0.37, 2.0), (9876.54321, 100.0)):
                ball = bergman.BergmanDirichletSpace(n, alpha, m, radius)
                for u in (0.0, -0.5, 0.3j, cmath.rect(0.8, rng.uniform(-math.pi, math.pi))):
                    yield ball, u * radius**2
            for nu in (0.5, 2.0):
                fock = bargmann.BargmannDirichletSpace(n, nu, m)
                for r in (0.0, 3.0, 40.0, 300.0):
                    yield fock, cmath.rect(r, rng.uniform(-math.pi, math.pi)) / nu
                yield fock, -25.0 / nu
    # a low-degree term whose parts are finite but whose modulus overflows
    yield bergman.BergmanDirichletSpace(1, 1.5e308, 2), 0.7 + 0.7j
    yield bargmann.BargmannDirichletSpace(1, 1.5e308, 3), 1 + 1j


def test_kernel_series_bit_identical_to_reference_loop():
    for space, t in _series_cases():
        for max_degree in (0, 1, 2, 3, 4, 60, 200):
            expected = _outcome(_reference_series_with_tail, space, t, max_degree)
            got = _outcome(bergman.kernel_series_with_tail, space, t, max_degree)
            _assert_same_outcome(got, expected, (space, t, max_degree))


def test_kernel_closed_bit_identical_to_reference_low_part(oracle):
    # m = 0 is evaluated in closed form; tests/test_order_zero.py judges it.
    # The |nu t| = 300 plane cells take the integral, where the series was
    # off by up to 3.6e100 relative: mpmath judges those
    for space, t in _series_cases():
        if space.m:
            expected = _outcome(_reference_closed_detail, space, t)
            got = _outcome(bergman.kernel_closed_detail, space, t)
            if got[0] != "ok" or not _integral_nodes(oracle, space, t, expected):
                _assert_same_outcome(got, expected, (space, t))


def test_non_finite_kernels_are_domain_errors():
    # t^m overflows while the prefactor underflows: the product was NaN
    ball = bergman.BergmanDirichletSpace(1, 0.5, 2, 1e100)
    for call in (bergman.kernel_closed_detail, bergman.kernel_series_with_tail):
        with pytest.raises(DomainError, match="not a finite float"):
            call(ball, 1e199 + 1e199j)
    for m in (0, 1):
        fock = bargmann.BargmannDirichletSpace(1, 1.5e308, m)
        with pytest.raises(DomainError, match="not a finite float"):
            bargmann.kernel_series_with_tail(fock, 1 + 1j)


@pytest.mark.parametrize("space, t", [
    (bergman.BergmanDirichletSpace(2, 0.5, 1), 0.95),  # where the integral is weighed
    (bergman.BergmanDirichletSpace(2, 0.5, 1), 0.3),
    (bargmann.BargmannDirichletSpace(2, 1.0, 2), 0.5),
], ids=["ball-boundary", "ball", "fock"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_non_positive_tolerance_is_a_value_error(space, t, tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        spaces.kernel_closed_detail(space, t, tol)
    with pytest.raises(ValueError, match="max_terms must be >= 1"):
        spaces.kernel_closed_detail(space, t, 1e-14, 0)


def test_kernel_points_keep_their_values_and_error_messages():
    space = bergman.BergmanDirichletSpace(2, 0.5, 1)
    z, w = (0.1 + 0.2j, -0.3), (0.25j, 0.05 - 0.1j)
    assert repr(bergman.kernel_closed(space, z, w)) == repr(
        bergman.kernel_closed_from_inner(space, inner(z, w))
    )
    for bad, message in (((0.1,), "dimension mismatch"), ((0.1, math.nan), "non-finite")):
        for call in (bergman.kernel_closed, bergman.kernel_series):
            with pytest.raises(ValueError, match=message):
                call(space, bad, w)
            with pytest.raises(ValueError, match=message):
                call(space, z, bad)
        with pytest.raises(ValueError, match=message):
            bergman.pointwise_bound(space, bad)


# the plane has no boundary, so its points may lie beyond the unit ball
@pytest.mark.parametrize("family, space, max_norm", [
    (bergman, bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=1), 0.85),
    (bargmann, bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=1), 2.5),
], ids=["ball", "fock"])
def test_pointwise_bound_dominates_evaluations(family, space, max_norm):
    rng = np.random.default_rng(31)
    for _ in range(50):
        f = random_polynomial(rng, 2, 6, density=0.6)
        z = random_point(rng, 2, max_norm)
        bound = family.pointwise_bound(space, z)
        norm = math.sqrt(family.function_norm_sq(space, f))
        assert abs(f.evaluate(z)) <= bound * norm * (1.0 + 1e-12)


@pytest.mark.parametrize("space, t", [
    (bergman.BergmanDirichletSpace(2, 0.5, 1, radius=1e200), 0.5),  # R^(2n) overflows
    (bergman.BergmanDirichletSpace(2, 0.5, 0, radius=1e-100), 1e-201),  # R^(2n) is 0
    (bargmann.BargmannDirichletSpace(3, 1e-110, 1), 1e100),  # (nu/pi)^n is 0, K is 3.2e-232
], ids=["ball-overflow", "ball-zero", "fock-zero"])
def test_kernel_prefactor_outside_the_normal_range_is_a_domain_error(space, t):
    # every kernel path checks the prefactor: the closed kernel at any m, the
    # series oracle and the evaluation bound
    for evaluate in (spaces.kernel_closed_detail, spaces.kernel_series_with_tail):
        with pytest.raises(DomainError, match="^kernel prefactor"):
            evaluate(space, t)
    with pytest.raises(DomainError, match="^kernel prefactor"):
        spaces.pointwise_bound(space, (0.0,) * space.n)


def _reference(oracle, space, t):
    with mp.workdps(40):
        if space.pfq_extra:
            return oracle.ball_kernel(space.n, space.alpha, space.m, space.radius, mp.mpc(t))
        return oracle.fock_kernel(space.n, space.nu, space.m, mp.mpc(t))


@pytest.mark.parametrize("u", [0.999, 0.99999, -0.999, 0.999j])
def test_ball_boundary_cells_take_the_integral(oracle, u):
    # the series raised NonconvergenceError at each of these cells
    space = bergman.BergmanDirichletSpace(2, 0.5, 1)
    value, record = bergman.kernel_closed_detail(space, u)
    reference = _reference(oracle, space, u)
    assert record.terms_used in INTEGRAL_NODES
    assert abs(value - reference) <= 1e-13 * abs(reference)


def _integral_bound(space, t, value, record):
    """A bound on K's relative error derived from the record of its pFq factor F.

    K = prefactor * (sum_{k<m} c_k x^k + t^m/(m!)^2 F), with
    c_k = (a)_k/k! on the ball and 1/k! on the plane.  F's error estimate,
    scaled by |t|^m/(m!)^2 and the prefactor, is an error in K; to it come
    the rounding of that sum, 4 eps times the sum of the moduli of its
    terms, and of the prefactor, 4 eps (n + 2).
    """
    eps = sys.float_info.epsilon
    x = space.series_argument(t)
    low = 0.0
    term = 1.0
    for k in range(space.m):
        low += term
        term *= (space.pfq_extra[0] + k if space.pfq_extra else 1.0) / (k + 1) * abs(x)
    scale = abs(t) ** space.m / math.factorial(space.m) ** 2
    bracket = scale * record.error_estimate + 4 * eps * (low + scale * abs(record.value))
    return bracket * space.kernel_prefactor() / abs(value) + 4 * eps * (space.n + 2)


def _integral_nodes(oracle, space, t, series, tol=1e-14):
    """The integral's node count if the closed kernel at t took it, else None.

    The call at ``tol`` either repeats ``series``, the outcome of the series
    route, or returns a K from the integral, stopped at 2h or at h, within
    the bound its record implies."""
    if _outcome(spaces.kernel_closed_detail, space, t, tol) == series:
        return None
    x = space.series_argument(t)
    assert abs(x) > spaces._integral_radius(space.pfq_extra, space.m, tol), (space, t)
    value, record = spaces.kernel_closed_detail(space, t, tol)
    assert record.terms_used in INTEGRAL_NODES, (space, t)
    error = abs(value - _reference(oracle, space, t)) / abs(value)
    assert error <= _integral_bound(space, t, value, record), (space, t, error)
    return record.terms_used


def test_ball_integral_error_within_its_estimate(oracle):
    # every call near |x| = 1 either returns a K within the bound its record
    # implies, or repeats the series outcome, NonconvergenceError included
    rng = random.Random(20157)
    nodes = []
    for _ in range(60):
        n, m = rng.choice((1, 2, 3)), rng.randint(1, 4)
        alpha = -1.0 + 21.0 * (1.0 - rng.random())  # (-1, 20]
        radius = rng.choice((1.0, 2.0))
        gap = 10.0 ** rng.uniform(-6.0, math.log10(0.15))
        t = cmath.rect(1.0 - gap, rng.uniform(-math.pi, math.pi)) * radius**2
        space = bergman.BergmanDirichletSpace(n, alpha, m, radius)
        series = _outcome(_reference_closed_detail, space, t)
        nodes.append(_integral_nodes(oracle, space, t, series))
    assert len(nodes) - nodes.count(None) >= 40
    assert nodes.count(_integral.EARLY_NODES) >= 42  # 45 of the 55 integral calls


def test_plane_integral_error_within_its_estimate(oracle):
    # every plane call past the integral's radius, up to |nu t| = 300,
    # either returns a K within the bound its record implies (whose
    # rounding term grows with |x|) or repeats the series outcome
    rng = random.Random(2021)
    nodes = []
    for _ in range(180):
        n, m = rng.choice((1, 2, 3)), rng.randint(1, 4)
        nu = rng.uniform(0.5, 2.0)
        size = rng.uniform(spaces._integral_radius((), m, 1e-14), 300.0)
        t = cmath.rect(size, rng.uniform(-math.pi, math.pi)) / nu
        space = bargmann.BargmannDirichletSpace(n, nu, m)
        series = _outcome(_reference_closed_detail, space, t)
        nodes.append(_integral_nodes(oracle, space, t, series))
    assert len(nodes) - nodes.count(None) >= 80
    assert nodes.count(_integral.EARLY_NODES) >= 15


def test_mid_disk_ball_integral_error_within_its_estimate(oracle):
    # between the radius priced at 80 series terms and |x| = 0.85, where the
    # series was summed before, every call at a <= 45 (so a eps <= tol) either
    # returns a K within the bound its record implies or repeats the series
    # outcome; the integral declines on a few percent of the calls, all at
    # a > 15, where those series cancel and may be silently wrong (a known
    # defect of the series route, which keeps them)
    rng = random.Random(27)
    nodes = []
    for i in range(400):
        m, n, radius = 1 + i % 4, rng.choice((1, 2, 3)), rng.choice((1.0, 2.0))
        a, tol = rng.uniform(n + 0.01, 45.0), 10.0 ** rng.uniform(-14.0, -6.0)
        low = spaces._integral_radius((a,), m, tol)
        if low >= 0.85:
            continue
        t = cmath.rect(rng.uniform(low, 0.85), rng.uniform(-math.pi, math.pi)) * radius**2
        space = bergman.BergmanDirichletSpace(n, a - n - 1.0, m, radius)
        series = _outcome(_reference_closed_detail, space, t, tol)
        nodes.append(_integral_nodes(oracle, space, t, series, tol))
        if nodes[-1] is None:
            assert a > 15.0, (space, t, tol)
    assert len(nodes) == 383
    assert nodes.count(None) <= 12  # 10 declines, 82 calls take 225 nodes
    assert nodes.count(_integral.EARLY_NODES) >= 280  # 291


def _log_form_reference(m, r, s):
    """P_m at s = 1 - r where r < 1/2 and at s otherwise, from its log form
    sum_i s^(i-1) (A_i - B_i log s) at 400 digits."""
    with mp.workdps(400):
        s = 1 - mp.mpf(r) if r < 0.5 else mp.mpf(s)
        harmonic = [mp.fsum(1 / mp.mpf(j) for j in range(1, p + 1)) for p in range(m)]
        total = 0
        for i in range(1, m + 1):
            b = 1 / (mp.factorial(i - 1) * mp.factorial(m - i)) ** 2
            total += s ** (i - 1) * (-2 * b * (harmonic[m - i] - harmonic[i - 1]) - b * mp.log(s))
        return total


@pytest.mark.parametrize("m, every, shift", [
    *(pytest.param(m, every, 0, id=f"{m}-{every}")
      for m, every in ((1, 1), (2, 1), (3, 1), (4, 1), (16, 5))),
    *(pytest.param(m, 5, _integral._MAX_SHIFT, id=f"{m}-5-shifted") for m in range(1, 5)),
])
def test_weight_matches_mpmath_at_the_rule_nodes(m, every, shift):
    # P_m from its log form in integers, at the nodes of rule(m, shift) as it
    # forms them, within 1.1e-16 relative: the fixed point holds the log
    # form's cancellation, up to 2^-((2m-1) 92) at the end node r = 1.6e-28
    # of the largest shift, and leaves only the one rounding.  At m = 16 the
    # nodes are those where the 400-digit reference keeps 100 digits and P_m
    # is a normal float
    nodes = dict(node for group in _integral.rule(m, shift) for node in group) if m <= 4 else {}
    ks = range(-_integral.HALF_WIDTH, _integral.HALF_WIDTH + 1, every)
    checked = 0
    for k in ks:
        u = math.pi * math.sinh(k * _integral.STEP) + shift
        s = 1.0 / (1.0 + math.exp(-u))
        r = 1.0 / (1.0 + math.exp(u))
        if (2 * m - 1) * -math.log10(r) > 300:
            continue
        reference = _log_form_reference(m, r, s)
        if abs(reference) < sys.float_info.min:
            continue
        got = _integral.weight(m, r, s)
        assert abs(got - reference) <= 1.1e-16 * abs(reference), (m, k, r)
        assert m > 4 or r in nodes, (m, k, r)
        checked += 1
    assert checked >= (len(ks) if m <= 4 else 20)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_largest_shift_keeps_the_left_out_mass_below_the_end_point_term(m):
    # the shifted rule ends at s = e^-(52 - shift); the integral of |P_m| below
    # that node, where B_0(x s) is 1 to within a s, is under the end-point
    # term h |w P_m| there, which stays below 1e-14 of int_0^1 P_m = (m!)^-2
    # at the largest shift and, at m = 4, would pass it one shift further
    shift = _integral._MAX_SHIFT
    _, wp = _integral.rule(m, shift)[0][0]  # the node k = -112
    end = _integral.STEP * abs(wp)
    tau = -_integral.HALF_WIDTH * _integral.STEP
    s_end = 1.0 / (1.0 + math.exp(-(math.pi * math.sinh(tau) + shift)))
    with mp.workdps(40):
        mass = mp.quad(lambda s: abs(_log_form_reference(m, 1.0, s)), [0, s_end])
    assert mass <= end <= 1e-14 / math.factorial(m) ** 2
    if m == 4:
        u = math.pi * math.sinh(tau) + shift + 1
        s, r = 1.0 / (1.0 + math.exp(-u)), 1.0 / (1.0 + math.exp(u))
        further = _integral.STEP * math.pi * math.cosh(tau) * s * r * _integral.weight(m, r, s)
        assert further > 1e-14 / math.factorial(m) ** 2


def test_ball_integral_declines_at_the_last_float_below_one():
    # at x = 1 - 2^-53 the 4h sum is 19 % off the h sum, and the end-point
    # term, for the tail below the last node, is 7e-14 of the value: either
    # makes the call fall back to the series and repeat its outcome
    space = bergman.BergmanDirichletSpace(1, 0.5, 1)
    t = 1.0 - 2.0**-53
    assert _integral.high_part(space.pfq_extra, 1, complex(t), 1e-14) is None
    expected = _outcome(_reference_closed_detail, space, t)
    assert _outcome(bergman.kernel_closed_detail, space, t) == expected


def test_unresolved_ball_integral_declines_at_any_tol():
    # a = 17.55 packs the integrand into a peak near r = 5.7e-15 that the
    # 4h, 2h and h sums all miss: extrapolated, their gaps put the error at
    # 1e-6, and the value is off by 100 %
    assert _integral.high_part((17.55,), 4, complex(1.0 - 5.67e-15), 1e-3) is None


@pytest.mark.parametrize("a, m, gap", [
    (7.095, 4, 2.15e-6), (3.296, 2, 1.27e-7), (5.077, 3, 7.27e-8), (4.973, 3, 1.31e-5),
])
def test_ball_integral_near_one_on_the_real_axis_within_its_estimate(a, m, gap):
    # here the levels of the unshifted rule gain a few digits per halving
    # instead of doubling them: its 2h value, with Bailey's estimate from the
    # 8h, 4h and 2h sums, is 2.1-569 times off that estimate, and the h
    # value within it.  The first three cells (a > 2m - 1) now take the
    # shifted rule, whose 2h estimate does not meet tol there; the fourth
    # still stops at h only because |1 - x| < 1e-3.  At 30 digits mpmath's
    # 3F2 agrees with its 60-digit value to 1e-31 here, in a fifth of the time
    x = 1.0 - gap
    record = _integral.high_part((a,), m, complex(x), 1e-14)
    with mp.workdps(30):
        reference = mp.hyp3f2(1, 1, a, m + 1, m + 1, x)
    assert abs(record.value - reference) <= record.error_estimate


@pytest.mark.parametrize("a, m, x, tol", [
    (15.727892064322301, 2, -0.9922461051052957, 1e-10),
    (33.88207608970591, 1, -0.89204749131504, 1e-12),
    (94.43306056857992, 1, -0.8897729496180269, 1e-12),
    (64.19019436466341, 1, -0.9999999988369144, 1e-14),
])
def test_ball_integral_stop_at_large_a_within_its_estimate(a, m, x, tol):
    # (1 - x s)^(-a) multiplies the rounding of its base by a: without the
    # a eps term of the 113-node record these values are 2.2-4.9 times off
    # its estimate
    record = _integral.high_part((a,), m, complex(x), tol)
    assert record.terms_used == _integral.EARLY_NODES
    with mp.workdps(30):
        reference = mp.hyp3f2(1, 1, a, m + 1, m + 1, x)
    assert abs(record.value - reference) <= record.error_estimate


@pytest.mark.parametrize("a, m, x", [
    (56.581101152558226, 3, complex(-0.5937510194453554, -0.7516633140324327)),
    (59.2127711014288, 1, complex(-0.38607715884068117, 0.7741820398048286)),
    (44.94086180306135, 3, complex(-0.20277588330080296, 0.8279248865490523)),
    (41.67696558767483, 4, complex(0.929047404458177, -0.020208346672086226)),
    (36.38619447137604, 2, complex(-0.20063966916923123, 0.9569834273984648)),
])
def test_full_ball_integral_at_large_a_within_its_estimate(a, m, x):
    # the a eps term holds at 225 nodes too: without it these records, from
    # a seeded scan (random.Random(23), |x| in [0.85, 1), a <= 60, every
    # phase), are 1.4-7.3 times off their estimate
    record = _integral.high_part((a,), m, x, 1e-14)
    assert record.terms_used == _integral.FULL_NODES
    with mp.workdps(30):
        reference = mp.hyp3f2(1, 1, a, m + 1, m + 1, x)
    assert abs(record.value - reference) <= record.error_estimate


def _hyper_reference(a, m, x):
    """pFq(1, 1, a; m+1, m+1; x) at 30 digits; near x = 1 mpmath's hyp3f2
    raises NoConvergence where its general series routine does not."""
    with mp.workdps(30):
        return complex(mp.hyper([1, 1, a], [m + 1, m + 1], x, maxterms=10**6))


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_ball_integral_at_loose_tol_near_one_within_its_estimate(tol):
    # unshifted, the 225-node value at m = 2, a = 4, x = 1 - 1e-12 was
    # 2.7e-9 off against an estimate of 8.2e-11: at loose tol Bailey's
    # extrapolation fell short.  The shifted rule puts its nodes on
    # r0 = 1e-12, and the value is within its estimate
    record = _integral.high_part((4.0,), 2, complex(1.0 - 1e-12), tol)
    assert record.terms_used == _integral.FULL_NODES
    reference = _hyper_reference(4.0, 2, 1.0 - 1e-12)
    assert abs(record.value - reference) <= record.error_estimate <= 1e-14 * abs(reference)


def test_ball_kernel_past_the_plain_rule_takes_the_shifted_integral():
    # at a = 12.85 the integrand turns within r ~ 0.02 at a small phase:
    # the plain rule declined, and the series then raised
    # NonconvergenceError after 10,000 terms
    space = bergman.BergmanDirichletSpace(1, 10.85, 1)
    x = complex(0.99815, -0.0225)
    _, record = bergman.kernel_closed_detail(space, x)
    assert record.terms_used == _integral.FULL_NODES
    reference = _hyper_reference(space.pfq_extra[0], 1, x)
    assert abs(record.value - reference) <= record.error_estimate <= 1e-13 * abs(reference)


def _full_rule(extra, m, x, tol):
    """``high_part`` summed over every node of ``_integral.rule``: the record
    (value, 113 or 225, estimate) of the level that stands, or None."""
    eps = sys.float_info.epsilon
    shift = 0
    if extra:
        (a,) = extra
        early, kappa = abs(1.0 - x) >= _integral._EARLY_MIN_GAP, a * eps
        if a > 2 * m - 1:
            ratio = abs(x) / abs(1.0 - x)
            shift = min(_integral._MAX_SHIFT, round(math.log(max(1.0, ratio - 1.0))))

        def bracket(r):
            return ((1.0 - x) + x * r) ** -a
    else:
        early, kappa = True, abs(x) * eps

        def bracket(r):
            return cmath.exp(x - x * r)
    sums, total, size = [], 0j, 0.0
    try:
        for level, group in enumerate(_integral.rule(m, shift)):
            terms = [wp * bracket(r) for r, wp in group]
            part = 0j  # each group summed apart, as ``high_part`` does
            for f in terms:
                part += f
                size += abs(f)
            total += part
            if level == 0:
                ends = max(abs(terms[0]), abs(terms[-1]))
            sums.append(total)
            if level == 3 or level == 2 and early:
                step = _integral.STEP * 2 ** (3 - level)
                found = _integral._estimate(sums[-3:], step, ends, size, kappa, tol)
                if found is not None:
                    scale = math.factorial(m) ** 2
                    nodes = _integral.EARLY_NODES if level == 2 else _integral.FULL_NODES
                    return scale * found[0], nodes, scale * found[1]
    except OverflowError:
        pass
    return None


def _window_cells():
    """Seeded (extra, m, x, tol): the ball near |x| = 1 at a <= 60 and at
    a near 1e4, where the bound on |B_0| overflows, the ball from the
    integral's radius on at a <= 45, and the plane up to |x| = 300, every
    phase and every order the integral serves."""
    rng = random.Random(26)
    for i in range(1500):
        m, tol = 1 + i % 4, 10.0 ** rng.uniform(-14.0, -6.0)
        phase = rng.uniform(-math.pi, math.pi)
        if i % 3 == 2:
            yield (), m, cmath.rect(rng.uniform(45.0, 300.0), phase), tol
        else:
            a = rng.uniform(1.0, 60.0) if i % 15 else rng.uniform(9e3, 1.1e4)
            size = 1.0 - 10.0 ** rng.uniform(-4.0, math.log10(0.16))
            yield (a,), m, cmath.rect(size, phase), tol
    # here a cut that left out the nodes whose r rounds to 1.0 (s < 1.1e-16,
    # |w P_4| up to 3.5e-15) moved the value 7.3 times past the full rule's
    # estimate
    yield (), 4, complex(2.7206858900531965, -45.70652901005947), 1e-8
    # the ball from the radius priced at 80 series terms up to |x| = 0.84,
    # at a <= 45, where a eps <= tol
    for i in range(300):
        m, tol = 1 + i % 4, 10.0 ** rng.uniform(-14.0, -6.0)
        a = rng.uniform(1.0, 45.0)
        low = min(0.84, spaces._integral_radius((a,), m, tol))
        yield (a,), m, cmath.rect(rng.uniform(low, 0.84), rng.uniform(-math.pi, math.pi)), tol


def test_integral_window_matches_the_full_rule():
    # leaving out the nodes that the closed-form bound shows cannot move the
    # sum keeps every level decision of the full rule, and the value within
    # the full rule's estimate
    outcomes = set()
    for extra, m, x, tol in _window_cells():
        got, full = _integral.high_part(extra, m, x, tol), _full_rule(extra, m, x, tol)
        case = (extra, m, x, tol)
        assert (got is None) == (full is None), case
        if full is not None:
            value, nodes, estimate = full
            assert got.terms_used == nodes, case
            assert abs(got.value - value) <= estimate, case
        outcomes.add((bool(extra), full and full[1]))
    assert outcomes == {(ball, nodes) for ball in (True, False)
                        for nodes in (None, _integral.EARLY_NODES, _integral.FULL_NODES)}
    # an 8h sum so small that eps times it underflows leaves nothing out
    assert _integral._window((1.5,), 2, 5, complex(0.999, 0.001), 5e-324) == (
        (0, 0, 0), (0, 0, 0), 0.0)


def _radius_at_150(extra, m, tol):
    """The integral's radius priced at 150 series terms, never below the float
    under 0.85: the price of the plane, and of the ball where a eps > tol."""
    floor = math.nextafter(0.85, 0.0)
    log_size = math.log(tol) - math.lgamma(151.0) - 2.0 * (
        math.lgamma(m + 1.0) - math.lgamma(m + 151.0))
    if extra:
        try:
            log_size -= math.lgamma(extra[0] + 150) - math.lgamma(extra[0])
        except OverflowError:
            return floor
    return max(floor, math.exp(log_size / 150))


def test_series_length_estimate_matches_eval_pfq():
    # the integral's radius predicts whether the series outlasts N terms, 80
    # on the ball where a eps <= tol and 150 elsewhere; away from that length
    # it must be right.  On the plane at phase 0 the partial sum is about
    # e^|x|, so the series stops before its terms alone say (after 123-129
    # terms at |x| = 60), which only sends a long series to the integral
    # sooner: there only the long side is checked
    cells = [((a,), size, 80) for a in (1.2, 3.5, 8.0, 14.0, 30.0, 45.0)
             for size in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85)]
    cells += [((), size, 150) for size in (30.0, 45.0, 60.0, 80.0)]
    cells += [((60.0,), size, 150) for size in (0.9, 0.95)]  # a eps > 1e-14
    checked = 0
    for m in range(1, 5):
        for extra, size, limit in cells:
            spec = HypergeometricSpec((1.0, 1.0, *extra), (m + 1.0, m + 1.0))
            predicted = size > spaces._integral_radius(extra, m, 1e-14)
            for phase in (0.0, 2.0):
                try:
                    terms = eval_pfq(spec, cmath.rect(size, phase)).terms_used
                except NonconvergenceError:
                    terms = math.inf
                case = (m, extra, size, phase, terms)
                if terms >= 1.15 * limit:
                    assert predicted, case
                    checked += 1
                elif terms <= limit / 1.15 and (extra or phase):
                    assert not predicted, case
                    checked += 1
        # where a eps > tol the 150-term price stands, its 0.85 floor too:
        # this series runs past 1.15 * 80 terms and is still summed
        spec = HypergeometricSpec((1.0, 1.0, 60.0), (m + 1.0, m + 1.0))
        assert eval_pfq(spec, cmath.rect(0.5, 2.0)).terms_used >= 1.15 * 80
        assert spaces._integral_radius((60.0,), m, 1e-14) == math.nextafter(0.85, 0.0)
    assert checked == 325  # of the 384 (cell, m, phase) triples


@pytest.mark.parametrize("m, u, integral", [
    (4, 0.8, False),  # the series stops after 67 terms and is kept bit for bit
    (4, -0.8j, False),
    (4, 0.99, True),
    (1, 0.75, True),  # 115 terms
    (1, 0.86, True),  # 214 terms
])
def test_near_boundary_switch_follows_the_series_length(m, u, integral):
    space = bergman.BergmanDirichletSpace(2, 0.5, m)
    expected = _outcome(_reference_closed_detail, space, u)
    got = _outcome(bergman.kernel_closed_detail, space, u)
    if integral:
        assert got != expected
        assert bergman.kernel_closed_detail(space, u)[1].terms_used in INTEGRAL_NODES
    else:
        assert got == expected


# (a, m, phase / 0.8) of the cells just below the ball's radius where the
# series' record does not bound K: eval_pfq's estimate, the first neglected
# term, holds no rounding term, and these 78-82-term series at m = 1 are
# 1.2-3.5 times past it.  The series route sums them on either price.
_SERIES_PAST_ITS_ESTIMATE = {
    (30.0, 1, 1), (30.0, 1, 2),
    (40.0, 1, 1), (40.0, 1, 2), (40.0, 1, 3), (40.0, 1, 4),
}


def test_integral_radius_boundary_keeps_each_form_within_its_bound(oracle):
    # on both sides of the ball's radius the form chosen is within the bound
    # its record implies, but for the series cells listed above: just below
    # it the series, bit for bit as the series route, and just above it the
    # integral (or, where it declines, at a > 15, the series again)
    past = set()
    for a in (2.5, 5.0, 10.0, 20.0, 30.0, 40.0):
        for m in range(1, 5):
            space = bergman.BergmanDirichletSpace(2, a - 3.0, m)
            radius = spaces._integral_radius((a,), m, 1e-14)
            for k in range(5):
                phase = 0.8 * k
                for above in (False, True):
                    t = cmath.rect(radius * (1.03 if above else 0.97), phase)
                    series = _outcome(_reference_closed_detail, space, t)
                    if _integral_nodes(oracle, space, t, series) is None:
                        assert not above or a > 15.0, (a, m, t)
                        value, record = spaces.kernel_closed_detail(space, t)
                        error = abs(value - _reference(oracle, space, t)) / abs(value)
                        if error > _integral_bound(space, t, value, record):
                            past.add((a, m, k))
                    else:
                        assert above, (a, m, t)
    assert past == _SERIES_PAST_ITS_ESTIMATE


def test_plane_and_sweep_radius_keep_the_150_term_price():
    # on the plane, and on the ball where a eps > tol (flat-limit sweeps up to
    # alpha = 1e4), the radius is the one priced at 150 terms, to the last
    # bit, so that every such call keeps its route and value; at a eps <= tol
    # the ball's radius is lower.  At a = 60 the series stands below 0.85,
    # though it runs 238 terms at u = 0.6 for m = 1, and so does a plane
    # series just below its radius
    for m in range(1, 5):
        cells = [(bergman.BergmanDirichletSpace(2, 57.0, m), u) for u in (0.6, -0.6j)]
        radius = _radius_at_150((), m, 1e-14)
        cells += [(bargmann.BargmannDirichletSpace(2, 1.0, m), cmath.rect(0.97 * radius, phase))
                  for phase in (0.0, 2.0)]
        for space, t in cells:
            expected = _outcome(_reference_closed_detail, space, t)
            assert _outcome(spaces.kernel_closed_detail, space, t) == expected, (space, t)
    for tol in (1e-16, 1e-14, 1e-10, 1e-6):
        for m in range(1, 5):
            assert spaces._integral_radius((), m, tol) == _radius_at_150((), m, tol)
            for a in (1.5, 10.0, 45.0, 60.0, 1e4, 1.5e308):
                radius = spaces._integral_radius((a,), m, tol)
                if a * sys.float_info.epsilon > tol:
                    assert radius == _radius_at_150((a,), m, tol), (a, m, tol)
                else:
                    assert min(1.0, radius) <= _radius_at_150((a,), m, tol), (a, m, tol)
        assert spaces._integral_radius((), 5, tol) == math.inf


def test_space_records_are_frozen_values():
    ball = bergman.BergmanDirichletSpace(2, 0.5, 1)
    fock = bargmann.BargmannDirichletSpace(2, 1.5, 0)
    assert ball == bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=1, radius=1.0)
    assert fock == bargmann.BargmannDirichletSpace(n=2, nu=1.5, m=0)
    assert hash(ball) == hash(bergman.BergmanDirichletSpace(2, 0.5, 1, 1.0))
    assert hash(fock) == hash(bargmann.BargmannDirichletSpace(2, 1.5, 0))
    assert ball != bergman.BergmanDirichletSpace(2, 0.5, 1, 2.0)
    assert fock != bargmann.BargmannDirichletSpace(2, 1.5, 1)
    # the plane's radius, pfq_extra and tail factor are class attributes, not fields
    assert vars(fock) == {"n": 2, "nu": 1.5, "m": 0} and fock.radius == math.inf
    assert vars(ball) == {"n": 2, "alpha": 0.5, "m": 1, "radius": 1.0}
    for space in (ball, fock):
        assert space != (2, 0.5, 1) and copy.copy(space) == space
        with pytest.raises(AttributeError):
            space.n = 3
        with pytest.raises(AttributeError):
            del space.m
    assert repr(ball) == "BergmanDirichletSpace(n=2, alpha=0.5, m=1, radius=1.0)"
    assert repr(bergman.BergmanDirichletSpace(1, 0, 2, 3.0)) == (
        "BergmanDirichletSpace(n=1, alpha=0, m=2, radius=3.0)")
    assert repr(fock) == "BargmannDirichletSpace(n=2, nu=1.5, m=0)"
